from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from spadsim.model import RateBudget, Scenario, table_budget
from spadsim.simulator import (
    EventStream,
    FrontEndParams,
    gate_and_count,
    simulate_frontend,
    simulate_stream,
)


def make_stream(times_ns, duration=1.0):
    t = np.asarray(times_ns, dtype=np.int64)
    return EventStream(t, np.zeros(t.size, dtype=np.int8), duration)


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

    def test_sample_rate_too_low_rejected(self):
        with pytest.raises(ValueError):
            simulate_frontend(make_stream([], duration=1e-3), FrontEndParams(), 1e6)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FrontEndParams(schmitt_high=0.03)  # below schmitt_low
        with pytest.raises(ValueError):
            FrontEndParams(lowpass_cutoff=0.0)


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

    def test_zero_timestamp_accepted(self):
        assert len(make_stream([0, 1])) == 2

    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_stream([3, 3])
