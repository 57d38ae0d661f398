import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from spadsim.model import BUDGET_SOURCES, RateBudget, Scenario, table_budget
from spadsim.simulator import (
    _MAX_EVENTS,
    _MAX_GATES,
    _MAX_SAMPLES,
    EventStream,
    FrontEndParams,
    _ordered_arrivals,
    _window_counter,
    gate_and_count,
    simulate_frontend,
    simulate_stream,
)


def make_stream(times_ns, duration=1.0):
    t = np.asarray(times_ns, dtype=np.int64)
    return EventStream(t, np.zeros(t.size, dtype=np.int8), duration)


def traced_peak(f):
    """f() and the most memory traced while it ran, beyond what was allocated before it."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSimulateStream:
    def test_all_rates_zero_gives_empty_stream(self):
        sc = Scenario(budget=RateBudget(), trial_duration=10.0, rng_seed=1)
        assert len(simulate_stream(sc, True)) == 0

    def test_dark_counts_mean_matches_rate(self):
        # 1.2 kcps for 50 s -> Poisson(60000); check the sample mean over
        # 100 seeded runs against its 3-sigma band
        sc = Scenario(budget=RateBudget(dark_counts=1200.0), trial_duration=50.0)
        counts = []
        for seed in range(100):
            sc_i = Scenario(budget=sc.budget, trial_duration=50.0, rng_seed=seed)
            counts.append(len(simulate_stream(replace(sc_i, dead_time=0.0), False)))
        mean = np.mean(counts)
        sigma_mean = np.sqrt(60000 / 100)
        assert abs(mean - 60000) < 3 * sigma_mean

    def test_fluorescence_only_with_ion(self):
        sc = Scenario(budget=table_budget(), trial_duration=2.0, rng_seed=5)
        empty = simulate_stream(replace(sc, dead_time=0.0), False)
        assert empty.counts_by_source()["fluorescence"] == 0
        ion = simulate_stream(replace(sc, dead_time=0.0), True)
        assert ion.counts_by_source()["fluorescence"] > 0

    def test_nonparalyzable_dead_time_rate(self):
        rate = 50e3
        tau = 1e-6  # lambda*tau = 0.05
        sc = Scenario(budget=RateBudget(dark_counts=rate), trial_duration=20.0, rng_seed=9)
        stream = simulate_stream(replace(sc, dead_time=tau), False)
        observed = len(stream) / sc.trial_duration
        expected = rate / (1 + rate * tau)
        assert observed == pytest.approx(expected, rel=0.02)

    def test_dead_time_gap_invariant(self):
        tau = 2e-6
        sc = Scenario(budget=RateBudget(dark_counts=100e3), trial_duration=1.0, rng_seed=2)
        stream = simulate_stream(replace(sc, dead_time=tau), False)
        gaps = np.diff(stream.timestamps_ns)
        assert gaps.min() >= tau / 1e-9

    def test_strictly_increasing_and_1ns_grid(self):
        sc = Scenario(budget=table_budget(), trial_duration=1.0, rng_seed=3)
        stream = simulate_stream(replace(sc, dead_time=0.0), True)
        assert np.all(np.diff(stream.timestamps_ns) > 0)
        assert stream.timestamps_ns.dtype == np.int64

    def test_determinism(self):
        sc = Scenario(budget=table_budget(), trial_duration=5.0, rng_seed=42)
        a = simulate_stream(sc, True)
        b = simulate_stream(sc, True)
        np.testing.assert_array_equal(a.timestamps_ns, b.timestamps_ns)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.to_csv() == b.to_csv()

    # sha256 of the event CSV of a 1 s stream at the reference budget and 1 us dead time.
    # A faster path must keep these bytes; a declared change of the random stream updates them.
    @pytest.mark.parametrize("seed, digest", [
        (1, "9438d0e2e2ebb5172957aa05c097d03b3a4a6752560a50691210d8594a45a547"),
        (4242, "85c1292f961ab528032b7925296f0eb6ad9bdd8d4b9b31b68f548a7e653002d8"),
    ])
    def test_fixed_seed_bytes_are_pinned(self, seed, digest):
        stream = simulate_stream(Scenario(budget=table_budget(), trial_duration=1.0, rng_seed=seed), True)
        assert hashlib.sha256(stream.to_csv().encode()).hexdigest() == digest

    def test_draw_peak_per_event(self):
        # the draw peaks in the dead-time filter, which holds the drawn times and labels, its two
        # masks and the kept times and labels, 20 bytes an event; the draw drops each other
        # temporary once it is used up. A short draw first sets up numpy's lazy state.
        simulate_stream(Scenario(budget=table_budget(), trial_duration=1e-3, rng_seed=1), True)
        sc = Scenario(budget=table_budget(), trial_duration=10.0, dead_time=1e-6, rng_seed=1)
        stream, peak = traced_peak(lambda: simulate_stream(sc, True))
        assert len(stream) > 100_000
        assert peak / len(stream) <= 24

    @pytest.mark.parametrize("seed", [1, 2, 3, 4242])
    @pytest.mark.parametrize("ion_present", [True, False])
    def test_source_shares_match_rate_shares(self, seed, ion_present):
        # given the total, each source's count is binomial in it with the source's rate share;
        # a source of zero rate, here one in the middle, and fluorescence without the ion get none
        budget = replace(table_budget(), doppler_scatter=0.0)
        sc = Scenario(budget=budget, trial_duration=10.0, rng_seed=seed, dead_time=0.0)
        rates = [getattr(budget, name) if ion_present or name != "fluorescence" else 0.0 for name in BUDGET_SOURCES]
        counts = simulate_stream(sc, ion_present).counts_by_source()
        n = sum(counts.values())
        assert n > 50_000
        for (label, k), rate in zip(counts.items(), rates):
            p = rate / sum(rates)
            if p == 0:
                assert k == 0, label
            else:
                assert abs(k - n * p) < 4 * np.sqrt(n * p * (1 - p)), label

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hypotheses_draw_independent_streams(self, seed):
        # the ion and empty streams of one scenario share timestamps only by chance, and
        # their gate counts are uncorrelated: r within 4 / sqrt(gates) of 0
        sc = Scenario(budget=table_budget(), trial_duration=50.0, rng_seed=seed)
        ion, empty = simulate_stream(sc, True), simulate_stream(sc, False)
        shared = np.intersect1d(ion.timestamps_ns, empty.timestamps_ns).size
        chance = len(ion) * len(empty) / (sc.trial_duration / 1e-9)  # about 4 at 50 s
        assert shared <= chance + 4 * np.sqrt(chance) + 1
        a, b = gate_and_count(ion, 0.025), gate_and_count(empty, 0.025)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(a.size)

    def test_event_count_past_limit_rejected_before_drawing(self):
        # counts far past any memory, so that a missing bound fails to allocate rather than allocating
        sc = Scenario(budget=table_budget(), trial_duration=1e9, rng_seed=1)  # 1e18 ns: inside int64
        with pytest.raises(ValueError, match=rf"1.17e\+13 events expected in one draw .* limit of {_MAX_EVENTS}"):
            simulate_stream(sc, True)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        counts = _window_counter(sc, [(True, rng, 10**6)], 1e3)
        with pytest.raises(ValueError, match=rf"1.17e\+13 events expected .* limit of {_MAX_EVENTS}"):
            counts(np.arange(10**6), 0, 1)  # a sweep window: rows multiply the count
        assert rng.bit_generator.state == state

    def test_superposition_property(self):
        # merged lambda1 + lambda2 streams vs a single stream at the summed
        # rate: two-sample KS on inter-arrival times
        passes = 0
        for seed in range(20):
            s1 = Scenario(budget=RateBudget(dark_counts=3e3), trial_duration=10.0, rng_seed=seed)
            s2 = Scenario(budget=RateBudget(dark_counts=5e3), trial_duration=10.0, rng_seed=1000 + seed)
            s12 = Scenario(budget=RateBudget(dark_counts=8e3), trial_duration=10.0, rng_seed=2000 + seed)
            merged = np.sort(
                np.concatenate(
                    [
                        simulate_stream(replace(s1, dead_time=0.0), False).times_s,
                        simulate_stream(replace(s2, dead_time=0.0), False).times_s,
                    ]
                )
            )
            single = simulate_stream(replace(s12, dead_time=0.0), False).times_s
            _, p = stats.ks_2samp(np.diff(merged), np.diff(single))
            passes += p > 0.01
        assert passes >= 18

    def test_poisson_gof_property(self):
        # chi^2 goodness of fit of per-gate counts against the Poisson pmf
        rate, gate, duration = 5e3, 10e-3, 20.0
        passes = 0
        n_rep = 100
        for seed in range(n_rep):
            sc = Scenario(budget=RateBudget(dark_counts=rate), trial_duration=duration, rng_seed=seed)
            counts = gate_and_count(simulate_stream(replace(sc, dead_time=0.0), False), gate)
            passes += poisson_gof_pvalue(counts, rate * gate) > 0.01
        assert passes >= 0.95 * n_rep


class TestWindowDraw:
    """The fidelity sweep's draw: each row one superposed Poisson process over a window,
    its times from exponential spacings, already in order."""

    @pytest.mark.parametrize("seed", [1, 4242])
    @pytest.mark.parametrize("ion_present", [True, False])
    def test_times_are_sorted_uniforms_in_the_window(self, seed, ion_present):
        sc = Scenario(budget=table_budget(), rng_seed=seed, dead_time=0.0)
        lo, hi, n = 3.2e-3, 6.4e-3, 2000
        t, per_row = _ordered_arrivals(sc, [(ion_present, np.random.default_rng(seed), n)], lo, hi)
        assert per_row.size == n and per_row.sum() == t.size
        rows = np.repeat(np.arange(n), per_row)
        assert t.size > 10_000
        assert np.all((t >= lo) & (t < hi))
        assert np.all(np.diff(rows) >= 0)
        assert np.all(np.diff(t)[rows[1:] == rows[:-1]] > 0)
        assert stats.kstest((t - lo) / (hi - lo), "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("seed", [1, 4242])
    @pytest.mark.parametrize("ion_present", [True, False])
    def test_window_counts_are_poisson_at_zero_dead_time(self, seed, ion_present):
        sc = Scenario(budget=table_budget(), rng_seed=seed, dead_time=0.0)
        width, n_bins, n = 1e-4, 32, 4000
        rate = sc.budget.ion_total() if ion_present else sc.budget.background_total()
        mu = rate * n_bins * width
        per_row = _window_counter(sc, [(ion_present, np.random.default_rng(seed), n)], width)(np.arange(n), 0, n_bins)
        per_row = per_row.sum(axis=1)
        # a Poisson count's fourth central moment is mu + 3 mu^2, so its sample variance has variance (mu + 2 mu^2) / n
        assert abs(per_row.mean() - mu) < 4 * np.sqrt(mu / n)
        assert abs(per_row.var(ddof=1) - mu) < 4 * np.sqrt((mu + 2 * mu**2) / n)

    @pytest.mark.parametrize("tau", [1e-6, 50e-6])
    def test_dead_time_carried_across_windows_keeps_the_nonparalyzable_rate(self, tau):
        # 8 rows x 5 s in 1 ms windows; a kept count over T has mean T r / (1 + r tau) and,
        # for T much longer than tau, variance T r / (1 + r tau)^3 (Mueller 1973)
        sc = Scenario(budget=table_budget(), rng_seed=7, dead_time=tau)
        width, window, n, horizon = 1e-4, 10, 8, 5.0
        rate = sc.budget.ion_total()
        counts = _window_counter(sc, [(True, np.random.default_rng(7), n)], width)
        rows = np.arange(n)
        n_windows = round(horizon / (window * width))
        kept = sum(int(counts(rows, k * window, (k + 1) * window).sum()) for k in range(n_windows))
        total = n * horizon
        mean = total * rate / (1 + rate * tau)
        sigma = np.sqrt(total * rate / (1 + rate * tau) ** 3)
        assert abs(kept - mean) < 4 * sigma


def poisson_gof_pvalue(counts, mu):
    """chi^2 test of observed counts against Poisson(mu), tail bins pooled to >= 5 expected."""
    n = counts.size
    kmax = int(mu + 8 * np.sqrt(mu))
    ks = np.arange(kmax + 1)
    probs = stats.poisson.pmf(ks, mu)
    probs[-1] += stats.poisson.sf(kmax, mu)
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1).astype(float)
    expected = probs * n
    # pool low-expectation bins from both tails
    lo = 0
    while expected[lo] < 5:
        expected[lo + 1] += expected[lo]
        observed[lo + 1] += observed[lo]
        lo += 1
    hi = kmax
    while expected[hi] < 5:
        expected[hi - 1] += expected[hi]
        observed[hi - 1] += observed[hi]
        hi -= 1
    obs, exp = observed[lo + 1 : hi], expected[lo + 1 : hi]
    exp = exp * obs.sum() / exp.sum()
    stat, p = stats.chisquare(obs, exp)
    return p


class TestGateAndCount:
    def test_empty_stream_all_zeros(self):
        stream = make_stream([], duration=1.0)
        counts = gate_and_count(stream, 0.1)
        assert counts.shape == (10,) and counts.sum() == 0

    def test_hand_countable(self):
        stream = make_stream([1_000_000, 2_000_000, 26_000_000], duration=0.050)
        np.testing.assert_array_equal(gate_and_count(stream, 0.025), [2, 1])

    def test_mean_counts_at_reference_rates(self):
        sc = Scenario(budget=table_budget(), trial_duration=50.0, rng_seed=8)
        counts = gate_and_count(simulate_stream(replace(sc, dead_time=0.0), True), 0.025)
        assert counts.size == 2000
        assert np.mean(counts) == pytest.approx(292.5, rel=0.02)

    def test_count_conservation(self):
        sc = Scenario(budget=table_budget(), trial_duration=1.0, rng_seed=4)
        stream = simulate_stream(replace(sc, dead_time=0.0), True)
        counts = gate_and_count(stream, 0.25)
        assert counts.sum() == np.sum(stream.times_s < 1.0)

    def test_gate_longer_than_duration_rejected(self):
        with pytest.raises(ValueError):
            gate_and_count(make_stream([100], duration=0.01), 0.02)

    def test_nonpositive_gate_rejected(self):
        with pytest.raises(ValueError):
            gate_and_count(make_stream([], duration=1.0), 0.0)

    # a gate that is not finite is named, not met as a failed int conversion or a "longer than" error
    @pytest.mark.parametrize("gate", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_gate_named(self, gate):
        with pytest.raises(ValueError, match=rf"^gate must be > 0 and finite, got {gate}$"):
            gate_and_count(make_stream([100], duration=1.0), gate)

    # the window count is bounded before any edge is made; a count past float range is refused too
    @pytest.mark.parametrize("gate, count", [(1e-9, "5e+10"), (1e-320, "inf")], ids=["large", "overflow"])
    def test_gate_count_past_limit_named(self, gate, count):
        named = f"{count} gates of {gate:g} s, more than the limit of {_MAX_GATES}"
        with pytest.raises(ValueError, match=re.escape(named)):
            gate_and_count(make_stream([100], duration=50.0), gate)


class TestFrontEnd:
    def test_single_event_single_digital_pulse(self):
        events = make_stream([1_000], duration=10e-6)
        params = FrontEndParams(pulse_amplitude_range=(0.3, 0.3))
        t, wave, digital = simulate_frontend(events, params, 50e6)
        assert len(digital) == 1
        width = np.sum(wave >= params.schmitt_low) / 50e6
        assert width == pytest.approx(1e-6, rel=0.5)

    def test_no_events_quiet_rf(self):
        events = make_stream([], duration=20e-6)
        params = FrontEndParams(rf_pickup_amplitude=0.05)  # filtered well below threshold
        _, _, digital = simulate_frontend(events, params, 200e6)
        assert len(digital) == 0

    def test_rf_pickup_above_threshold_counts(self):
        # post-filter rf amplitude above schmitt_high sustains ~1 count/period
        events = make_stream([], duration=20e-6)
        params = FrontEndParams(rf_pickup_amplitude=2.0)
        _, _, digital = simulate_frontend(events, params, 400e6)
        n_periods = 20e-6 * params.rf_frequency
        assert len(digital) >= int(n_periods) - 1

    def test_count_preservation_sparse_pulses(self):
        rng = np.random.default_rng(12)
        sc = Scenario(budget=RateBudget(dark_counts=2e3), trial_duration=20e-3, rng_seed=31)
        events = simulate_stream(replace(sc, dead_time=2e-6), False)
        # thresholds below the filtered peak of the smallest pulses so only
        # overlap, not amplitude, could lose counts
        params = FrontEndParams(schmitt_high=0.05, schmitt_low=0.025)
        _, _, digital = simulate_frontend(events, params, 20e6, rng=rng)
        assert abs(len(digital) - len(events)) <= max(1, 0.01 * len(events))

    # sha256 of the time axis, waveform and digital timestamps of one 4 ms stream: at 50 MS/s,
    # at the low-pass's 10x sample-rate floor (its scan takes 512-sample blocks), and with rf
    # pickup, which at 16 MS/s aliases to 1.7 MHz and fires the trigger thousands of times
    @pytest.mark.parametrize("rate, rf, digest", [
        (50e6, 0.0, "dfb2114be876b428dec51251687a1e4c48387c7bc4037cf8bb9f41cc7063c370"),
        (16e6, 0.0, "7dc449fb10cc39dc856ce08e35a818b44b67c2fe777f03495b0363a980c8ef8f"),
        (50e6, 0.2, "236d8e98add9a1d85903a01aaa01c758b3a051203c557bb75589e70742028284"),
        (16e6, 0.2, "1571cf2184b6d69a1fd199fee49fdec8e470fbacb8c85e08b638473b302a353f"),
    ], ids=["50MSps", "lowpass-floor", "50MSps-rf", "lowpass-floor-rf"])
    def test_fixed_seed_render_is_pinned(self, rate, rf, digest):
        sc = Scenario(budget=table_budget(), trial_duration=4e-3, dead_time=1e-6, rng_seed=20)
        params = FrontEndParams(rf_pickup_amplitude=rf)
        t, wave, digital = simulate_frontend(simulate_stream(sc, True), params, rate, rng=np.random.default_rng(5))
        data = t.tobytes() + wave.tobytes() + digital.timestamps_ns.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # the returned time axis and waveform take 16 bytes a sample, and the render holds little else at once
    @pytest.mark.parametrize("rf", [0.0, 0.2], ids=["no-rf", "rf"])
    def test_render_peak_per_sample(self, rf):
        sc = Scenario(budget=table_budget(), trial_duration=25e-3, dead_time=1e-6, rng_seed=3)
        events, params = simulate_stream(sc, True), FrontEndParams(rf_pickup_amplitude=rf)
        (t, wave, _), peak = traced_peak(lambda: simulate_frontend(events, params, 50e6))
        assert t.size == wave.size >= 1_000_000
        assert peak / t.size <= 20

    # a span too long for memory is refused before any sample or amplitude is allocated or drawn;
    # a non-finite span cannot reach the render, since EventStream refuses a non-finite duration
    @pytest.mark.parametrize("duration, named", [
        (2.0, r"100000125 samples to render \(5e\+07 samples/s over 2 s\)"),
        (1e301, r"inf samples to render \(5e\+07 samples/s over 1e\+301 s\)"),
    ])
    def test_render_past_sample_limit_rejected_before_allocating(self, duration, named):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        events = make_stream([1_000, 2_000], duration=duration)

        def render():
            with pytest.raises(ValueError, match=rf"^{named}, more than the limit of {_MAX_SAMPLES}$"):
                simulate_frontend(events, FrontEndParams(), 50e6, rng=rng)

        _, peak = traced_peak(render)
        assert peak < 100_000
        assert rng.bit_generator.state == state

    def test_sample_rate_too_low_rejected(self):
        with pytest.raises(ValueError):
            simulate_frontend(make_stream([], duration=1e-3), FrontEndParams(), 1e6)

    # NaN passed the old lower-bound check and failed on an integer conversion; inf divided by zero
    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_sample_rate_named(self, rate):
        with pytest.raises(ValueError, match=f"sample_rate must be finite and at least 10x the low-pass cutoff, got {rate}"):
            simulate_frontend(make_stream([1_000], duration=1e-3), FrontEndParams(), rate)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FrontEndParams(schmitt_high=0.03)  # below schmitt_low
        with pytest.raises(ValueError):
            FrontEndParams(lowpass_cutoff=0.0)

    # the scan's premise is 0 <= a < 1 for both filters: a time constant of 0 divided by zero, a
    # negative one rendered growing pulses, and NaN or inf passed the range checks
    @pytest.mark.parametrize("field, value", [
        ("pulse_time_constant", 0.0),
        ("pulse_time_constant", -0.5e-6),
        ("pulse_time_constant", float("nan")),
        ("pulse_time_constant", float("inf")),
        ("lowpass_cutoff", float("inf")),
        ("lowpass_cutoff", float("nan")),
        ("rf_frequency", float("inf")),
        ("rf_frequency", float("nan")),
        ("pulse_amplitude_range", (0.1, float("inf"))),
        ("pulse_amplitude_range", (float("nan"), 0.5)),
        ("pulse_amplitude_range", (0.1, float("nan"))),
        ("rf_pickup_amplitude", float("inf")),
        ("rf_pickup_amplitude", float("nan")),
        # a Schmitt level of inf never fired: a 14-event stream rendered 0 digital events
        ("schmitt_high", float("inf")),
        ("schmitt_high", float("nan")),
        ("schmitt_low", float("-inf")),
    ])
    def test_bad_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FrontEndParams(**{field: value})


class TestEventStreamSerialization:
    def test_csv_round_trip(self):
        sc = Scenario(budget=table_budget(), trial_duration=0.1, rng_seed=6)
        stream = simulate_stream(sc, True)
        back = EventStream.from_csv(stream.to_csv(), duration=stream.duration)
        np.testing.assert_array_equal(back.timestamps_ns, stream.timestamps_ns)
        np.testing.assert_array_equal(back.labels, stream.labels)

    def test_csv_bad_header(self):
        with pytest.raises(ValueError):
            EventStream.from_csv("time,source\n", duration=1.0)

    def test_csv_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match=r"timestamp -500 ns at index 0 is negative"):
            EventStream.from_csv("timestamp_ns,label\n-500,dark\n1000,dark\n", duration=1.0)

    # each bad row sits on line 5, below a manifest line, the header and blank lines
    @pytest.mark.parametrize("row", ["1000,bogus", "1000.5,dark", "1000,dark,1", "1000,-1", "1000,7"])
    def test_csv_bad_row_names_its_line(self, row):
        text = f"# manifest: 0123456789abcdef\n\ntimestamp_ns,label\n\n{row}\n2000,dark\n"
        with pytest.raises(ValueError, match=r"event CSV line 5: "):
            EventStream.from_csv(text, duration=1.0)

    @pytest.mark.parametrize("stamp", ["99999999999999999999", "-9223372036854775809"])
    def test_csv_timestamp_past_int64_names_its_line(self, stamp):
        text = f"timestamp_ns,label\n1000,dark\n{stamp},dark\n"
        with pytest.raises(ValueError, match=rf"event CSV line 3: timestamp {stamp} ns does not fit in int64"):
            EventStream.from_csv(text, duration=1.0)

    def test_csv_bad_row_in_a_later_block_names_its_line(self):
        rows = "".join(f"{t},dark\n" for t in range(1, 60_001))  # over 512 KB with the bad row
        text = f"# manifest: 0123456789abcdef\ntimestamp_ns,label\n{rows}60001,bogus\n"
        with pytest.raises(ValueError, match=r"event CSV line 60003: unknown source label 'bogus'"):
            EventStream.from_csv(text, duration=1.0)


class TestEventStreamValidation:
    def test_negative_timestamp_named(self):
        with pytest.raises(ValueError, match=r"timestamp -7 ns at index 1 is negative"):
            make_stream([3, -7, -9])  # the first negative one is named, even out of order
        with pytest.raises(ValueError, match=r"timestamp -1 ns at index 2 is negative"):
            make_stream([5, 8, -1])

    @pytest.mark.parametrize("label", [-1, 7])
    def test_label_outside_sources_named(self, label):
        with pytest.raises(ValueError, match=rf"label {label} at index 1 is not a source index 0\.\.4"):
            EventStream(np.array([10, 20]), np.array([0, label]), 1.0)

    def test_label_beyond_int8_not_wrapped(self):
        with pytest.raises(ValueError, match=r"label 256 at index 0"):
            EventStream(np.array([10]), np.array([256]), 1.0)

    @pytest.mark.parametrize("labels, named", [([0.0, 1.5], "1.5 at index 1"), ([0.9, 1.0], "0.9 at index 0"),
                                               ([2.0, np.nan], "nan at index 1")])
    def test_fractional_label_named_not_truncated(self, labels, named):
        with pytest.raises(ValueError, match=rf"label {named} is not a source index"):
            EventStream(np.array([10, 20]), np.array(labels), 1.0)

    def test_whole_float_labels_accepted(self):
        assert EventStream(np.array([10, 20]), np.array([4.0, 0.0]), 1.0).labels.tolist() == [4, 0]

    def test_counts_by_source_covers_every_source(self):
        stream = EventStream(np.array([1, 2, 3, 4]), np.array([4, 0, 4, 2]), 1.0)
        assert stream.counts_by_source() == {"fluorescence": 1, "repump": 0, "doppler": 1, "dark": 0, "rf": 2}

    # a duration that is not finite is named here, not later by gate_and_count's int conversion
    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_duration_named(self, duration):
        with pytest.raises(ValueError, match=rf"^duration must be > 0 and finite, got {duration}$"):
            EventStream(np.array([1000, 2000]), np.array([0, 0]), duration)

    def test_zero_timestamp_accepted(self):
        assert len(make_stream([0, 1])) == 2

    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_stream([3, 3])

    def test_not_increasing_named(self):
        with pytest.raises(ValueError, match=r"timestamp 4 ns at index 3 is not after 9 ns at index 2: .*strictly increasing"):
            make_stream([1, 5, 9, 4, 2])  # the first step back is named
        with pytest.raises(ValueError, match=r"timestamp 5 ns at index 1 is not after 5 ns at index 0"):
            EventStream.from_csv("timestamp_ns,label\n5,dark\n5,rf\n", duration=1.0)
