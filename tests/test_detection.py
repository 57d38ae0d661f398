import math
import re
import unittest.mock

import numpy as np
import pytest

from spadsim import detection
from spadsim.detection import (
    PROJECTED_MAX_TIME,
    PROJECTED_SUB_BIN,
    PROJECTION_TARGET_SWEEP,
    _CHUNK_TRIALS,
    _SLICE_CELLS,
    _SLICE_EVENTS,
    _bin_log_likelihood_ratios,
    analytic_threshold_fidelity,
    fidelity_curve,
    projected_budget,
    sweep_bins,
    threshold_fidelity,
    wald_bound,
)
from spadsim.model import RateBudget, Scenario, table_budget
from test_oracles import exact_sequential, stopping_bins_of

ION_RATE = 11700.0
EMPTY_RATE = 6900.0


class TestThresholdFidelity:
    def test_perfectly_separated(self):
        result = threshold_fidelity([10] * 50, [0] * 50)
        assert result.fidelity == 1.0
        assert 0 <= result.threshold <= 9
        # both histograms run from 0 to the largest count of either, so they line up row by row
        assert result.histogram_ion.size == result.histogram_empty.size == 11

    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(0)
        a = rng.poisson(20, 2000)
        b = rng.poisson(20, 2000)
        result = threshold_fidelity(a, b)
        assert result.fidelity == pytest.approx(0.5, abs=0.05)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            threshold_fidelity([], [1, 2])

    def test_ties_at_threshold_go_to_no_ion(self):
        # single threshold k classifies count > k as ion
        result = threshold_fidelity([5, 5, 5], [5, 5, 5])
        assert result.fidelity == pytest.approx(0.5)


class TestAnalyticThreshold:
    def test_equal_rates_exactly_half(self):
        _, fid = analytic_threshold_fidelity(5000.0, 5000.0, 0.025)
        assert fid == 0.5

    def test_zero_background_closed_form(self):
        lam, window = 2000.0, 1e-3
        k, fid = analytic_threshold_fidelity(lam, 0.0, window)
        assert k == 0
        assert fid == pytest.approx(1 - math.exp(-lam * window) / 2, rel=1e-12)

    def test_rate_ordering_violation(self):
        with pytest.raises(ValueError):
            analytic_threshold_fidelity(5000.0, 6000.0, 0.025)

    def test_table_past_limit_refused_before_it_is_built(self):
        # the ln k! table runs to the longest window's kmax: 1.04e6 entries at 88 s of the
        # reference budget, past the 2^20 limit at 89 s
        rate = table_budget().ion_total()
        assert detection.threshold_kmax(rate, [1.0, 88.0]).max() < 2**20
        with unittest.mock.patch.object(detection.math, "lgamma", side_effect=AssertionError("built the table")):
            with pytest.raises(ValueError, match=r"^a window of 89 s at 11700 counts/s needs a ln k! table of "
                                                 r"1.05152e\+06 entries, more than the limit of 1048576$"):
                analytic_threshold_fidelity(rate, 0.0, 89.0)

    def test_log_factorial_table_is_built_once_and_grown_to_the_bit(self, monkeypatch):
        monkeypatch.setattr(detection, "_log_factorial_table", None)
        rate = table_budget().ion_total()
        first = analytic_threshold_fidelity(rate, 0.0, 0.025)
        table = detection._log_factorial_table
        # a second call that needs no more entries reuses the table, and gives the same result
        with unittest.mock.patch.object(detection.math, "lgamma", side_effect=AssertionError("rebuilt the table")):
            again = analytic_threshold_fidelity(rate, 0.0, 0.025)
            analytic_threshold_fidelity(rate, 0.0, 0.01)
        assert again == first and detection._log_factorial_table is table
        # a longer window grows it, keeping the entries it had; every entry is a fresh lgamma to the bit
        fidelity_curve(Scenario(), [0.99], 1, max_time=0.05)
        grown = detection._log_factorial_table
        assert grown.size > table.size and not grown.flags.writeable
        fresh = np.fromiter(map(math.lgamma, range(1, grown.size + 1)), float)
        assert grown.tobytes() == fresh.tobytes()

    def test_curve_refuses_a_table_past_limit_before_any_draw(self):
        with unittest.mock.patch.object(detection, "_window_counter", side_effect=AssertionError("drew a window")):
            with pytest.raises(ValueError, match="a window of 100 s .* more than the limit of 1048576"):
                fidelity_curve(Scenario(), [0.99], 1, sub_bin=1.0, max_time=100.0)

    @pytest.mark.parametrize("budget, sub_bin, max_time", [
        (table_budget(), 100e-6, 50e-3),
        (projected_budget(), PROJECTED_SUB_BIN, PROJECTED_MAX_TIME),
    ], ids=["reference", "projection"])
    def test_curve_matches_per_window_wrapper(self, budget, sub_bin, max_time):
        # the curve takes all 25 windows in one call on one ln k! table; each equals its own call
        curve = fidelity_curve(Scenario(budget=budget), [0.99], 1, sub_bin=sub_bin, max_time=max_time)
        assert len(curve.threshold) == 25
        for window, fid in curve.threshold:
            assert fid == analytic_threshold_fidelity(curve.ion_rate, curve.empty_rate, window)[1]

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(7)
        window, n = 0.025, 2000
        ion = rng.poisson(ION_RATE * window, n)
        empty = rng.poisson(EMPTY_RATE * window, n)
        mc = threshold_fidelity(ion, empty)
        _, exact = analytic_threshold_fidelity(ION_RATE, EMPTY_RATE, window)
        assert abs(mc.fidelity - exact) <= 0.005


class TestBayesianDetect:
    """The adaptive detector's stopping rule, _stopping_bins, on hand-made bin counts."""

    @staticmethod
    def stop(counts, target=0.99, sub_bin=100e-6, ion_rate=ION_RATE, empty_rate=EMPTY_RATE):
        """(stopping bin, says ion) of each row of counts at one target."""
        stop, says_ion = stopping_bins_of(
            np.atleast_2d(counts), ion_rate, empty_rate, sub_bin, [math.log(target / (1.0 - target))]
        )
        return stop[:, 0], says_ion[:, 0]

    def test_empty_stream_rapid_no_ion(self):
        counts = np.zeros(500, dtype=np.int64)  # 50 ms of 100 us bins
        [stop], [says_ion] = self.stop(counts)
        assert not says_ion
        assert (stop + 1) * 100e-6 < 0.01
        assert np.all(np.diff(np.cumsum(_bin_log_likelihood_ratios(counts, ION_RATE, EMPTY_RATE, 100e-6))) < 0)

    def test_unit_likelihood_ratio_undecided(self):
        # one event per sub-bin with bin width chosen so the per-bin
        # likelihood ratio is exactly 1: posterior pinned at the prior
        sub_bin = math.log(ION_RATE / EMPTY_RATE) / (ION_RATE - EMPTY_RATE)
        counts = np.ones(100, dtype=np.int64)
        [stop], _ = self.stop(counts, sub_bin=sub_bin)
        assert stop == counts.size - 1
        llr = np.cumsum(_bin_log_likelihood_ratios(counts, ION_RATE, EMPTY_RATE, sub_bin))
        np.testing.assert_allclose(1.0 / (1.0 + np.exp(-llr)), 0.5, atol=1e-9)

    def test_zero_empty_rate_event_decides_ion(self):
        counts = np.zeros(50, dtype=np.int64)  # 50 ms of 1 ms bins, one event at 0.5 ms
        counts[0] = 1
        [stop], [says_ion] = self.stop(counts, sub_bin=1e-3, ion_rate=5000.0, empty_rate=0.0)
        assert stop == 0
        assert says_ion
        assert _bin_log_likelihood_ratios(counts, 5000.0, 0.0, 1e-3)[0] == np.inf

    def test_decision_matches_llr_sign_with_flat_prior(self):
        # rows that never reach the target stop at their last bin and take the
        # sign of their full log-likelihood sum
        counts = np.random.default_rng(3).poisson(9000 * 1e-3, (20, 20))
        stop, says_ion = self.stop(counts, target=0.999, sub_bin=1e-3)
        llr = np.cumsum(_bin_log_likelihood_ratios(counts, ION_RATE, EMPTY_RATE, 1e-3), axis=1)
        undecided = np.abs(llr).max(axis=1) < math.log(0.999 / 0.001)
        assert undecided.any()
        assert np.all(stop[undecided] == 19)
        assert says_ion[undecided].tolist() == (llr[undecided, -1] > 0).tolist()

    def test_permutation_invariance_of_final_posterior(self):
        rng = np.random.default_rng(11)
        counts = rng.poisson(1.0, 200)
        rows = np.array([counts] + [rng.permutation(counts) for _ in range(5)])
        final = np.cumsum(_bin_log_likelihood_ratios(rows, ION_RATE, EMPTY_RATE, 1e-4), axis=1)[:, -1]
        for llr in final[1:]:
            assert llr == pytest.approx(final[0], rel=1e-9)
        # no ordering reaches the target, so each stops at its last bin with the same choice
        stop, says_ion = self.stop(rows, target=0.9999999, sub_bin=1e-4)
        assert stop.tolist() == [199] * 6
        assert says_ion.tolist() == [bool(final[0] > 0)] * 6

    def test_config_validation(self):
        sc = Scenario(budget=table_budget(), rng_seed=1)
        with pytest.raises(ValueError, match="target_posterior must lie in"):
            fidelity_curve(sc, [0.4], trials=10)
        with pytest.raises(ValueError, match="require 0 < sub_bin <= max_time"):
            fidelity_curve(sc, [0.99], trials=10, sub_bin=0.2, max_time=0.1)

    @pytest.mark.parametrize(
        "targets, sub_bin, max_time, message",
        [
            ([0.99, 1.0], 100e-6, 0.05, "target_posterior must lie in"),
            ([math.nan], 100e-6, 0.05, "target_posterior must lie in"),
            ([0.99], math.nan, 0.05, "require 0 < sub_bin <= max_time"),
            ([0.99], 100e-6, math.nan, "require 0 < sub_bin <= max_time"),
            ([0.99], 100e-6, math.inf, "require 0 < sub_bin <= max_time"),
        ],
        ids=["target-1", "target-nan", "sub-bin-nan", "max-time-nan", "max-time-inf"],
    )
    def test_unit_and_non_finite_settings_rejected(self, targets, sub_bin, max_time, message):
        # a target of 1 has an infinite threshold, and an infinite max_time an endless bin array
        sc = Scenario(budget=table_budget(), rng_seed=1)
        with pytest.raises(ValueError, match=message):
            fidelity_curve(sc, targets, trials=10, sub_bin=sub_bin, max_time=max_time)

    def test_bins_bounded_before_any_draw(self):
        # 2^16 bins keep a chunk's widest window near 64 MiB; one more bin is refused before anything is drawn
        assert sweep_bins(1e-6, 65.536e-3) == 1 << 16
        assert sweep_bins(100e-6, 100e-6) == sweep_bins(100e-6, 150e-6) == 1
        sc = Scenario(budget=table_budget(), rng_seed=1)
        with unittest.mock.patch.object(detection, "_window_counter", side_effect=AssertionError("drew a window")):
            for sub_bin, max_time, named in [
                (1e-6, 65.537e-3, "65537 bins, more than the limit of 65536"),
                (1e-12, 50e-3, "5e+10 bins"),
                (1e-300, 1e300, "inf bins"),
            ]:
                with pytest.raises(ValueError, match=rf"^max_time / sub_bin is {re.escape(named)}"):
                    fidelity_curve(sc, [0.99], trials=10, sub_bin=sub_bin, max_time=max_time)


class TestWaldBound:
    def test_reference_rates(self):
        t_ion, t_empty = wald_bound(ION_RATE, EMPTY_RATE, 0.01)
        assert t_ion == pytest.approx(3.3e-3, rel=0.02)
        assert t_empty == pytest.approx(4.0e-3, rel=0.02)

    def test_kl_rates(self):
        d_ion = ION_RATE * math.log(ION_RATE / EMPTY_RATE) - ION_RATE + EMPTY_RATE
        d_empty = EMPTY_RATE * math.log(EMPTY_RATE / ION_RATE) + ION_RATE - EMPTY_RATE
        assert d_ion == pytest.approx(1.38e3, rel=0.01)
        assert d_empty == pytest.approx(1.16e3, rel=0.01)

    def test_vanishes_as_error_approaches_half(self):
        t_ion, t_empty = wald_bound(ION_RATE, EMPTY_RATE, 0.4999)
        assert t_ion < 1e-6 and t_empty < 1e-6

    def test_doubling_rates_halves_bounds(self):
        a = wald_bound(ION_RATE, EMPTY_RATE, 0.01)
        b = wald_bound(2 * ION_RATE, 2 * EMPTY_RATE, 0.01)
        assert b[0] == pytest.approx(a[0] / 2, rel=1e-12)
        assert b[1] == pytest.approx(a[1] / 2, rel=1e-12)

    def test_degenerate_rates_rejected(self):
        with pytest.raises(ValueError):
            wald_bound(5000.0, 5000.0, 0.01)
        with pytest.raises(ValueError):
            wald_bound(5000.0, 0.0, 0.01)
        with pytest.raises(ValueError):
            wald_bound(ION_RATE, EMPTY_RATE, 0.6)


class TestFidelityCurve:
    def test_vacuous_target_one_bin(self):
        sc = Scenario(budget=table_budget(), rng_seed=17)
        curve = fidelity_curve(sc, [0.51], trials=200, max_time=5e-3)
        _, _, mean_time = curve.bayes[0]
        assert mean_time == pytest.approx(100e-6, rel=0.05)

    def test_mean_time_nondecreasing_in_target(self):
        sc = Scenario(budget=table_budget(), rng_seed=23)
        curve = fidelity_curve(sc, [0.9, 0.99, 0.999], trials=500, max_time=0.05)
        times = [t for _, _, t in curve.bayes]
        assert times[0] <= times[1] <= times[2]

    def test_achieved_fidelity_tracks_target(self):
        # generating model equals inference model: achieved fidelity within
        # binomial 3 sigma of (at least) the target
        sc = Scenario(budget=table_budget(), rng_seed=29, dead_time=0.0)
        trials = 2000
        target = 0.98
        curve = fidelity_curve(sc, [target], trials)
        _, fid, _ = curve.bayes[0]
        sigma = math.sqrt(target * (1 - target) / (2 * trials))
        assert fid >= target - 3 * sigma

    def test_mean_time_dominates_wald_bound(self):
        sc = Scenario(budget=table_budget(), rng_seed=31, dead_time=0.0)
        trials = 2000
        curve = fidelity_curve(sc, [0.99], trials)
        _, _, mean_time = curve.bayes[0]
        bound = sum(wald_bound(ION_RATE, EMPTY_RATE, 0.01)) / 2
        assert mean_time > bound

    def test_threshold_comparison_curve_present(self):
        sc = Scenario(budget=table_budget(), rng_seed=37)
        curve = fidelity_curve(sc, [0.9], trials=100, max_time=5e-3)
        windows = [w for w, _ in curve.threshold]
        fids = [f for _, f in curve.threshold]
        assert windows == sorted(windows)
        assert all(b >= a for a, b in zip(fids, fids[1:]))

    def test_no_signal_rejected(self):
        sc = Scenario(budget=RateBudget(dark_counts=1000.0), rng_seed=1)
        with pytest.raises(ValueError):
            fidelity_curve(sc, [0.99], trials=10)

    def test_passes_of_any_size_give_the_same_curve(self):
        scenario = Scenario(budget=projected_budget(), rng_seed=5, dead_time=0.0)
        args = (scenario, [0.99, 0.9987], 5 * _CHUNK_TRIALS + 3, PROJECTED_SUB_BIN, PROJECTED_MAX_TIME)
        # 12 chunks in passes of 4: the middle pass holds both hypotheses' chunks
        with unittest.mock.patch.object(detection, "_PASS_CHUNKS", 4):
            in_passes = fidelity_curve(*args)
        assert in_passes == fidelity_curve(*args)

    @pytest.mark.parametrize("budget, dead_time, sub_bin, max_time", [
        (projected_budget(), 0.0, PROJECTED_SUB_BIN, PROJECTED_MAX_TIME),
        (table_budget(), 1e-6, 100e-6, 20e-3),
    ], ids=["projection", "reference"])
    def test_slices_hold_whole_chunks_within_budgets(self, budget, dead_time, sub_bin, max_time):
        # every counts call is one slice: record each with the chunk of each of its trials
        scenario = Scenario(budget=budget, rng_seed=3, dead_time=dead_time)
        rates = {True: budget.ion_total(), False: budget.background_total()}
        calls = []

        def recording_counter(scenario, chunks, width):
            counts = window_counter(scenario, chunks, width)
            chunk_of = np.repeat(np.arange(len(chunks)), [n for _, _, n in chunks])
            rate_of = np.array([rates[ion] for ion, _, _ in chunks])

            def recorded(rows, start, end):
                calls.append((start, end, chunk_of[rows], rate_of[chunk_of[rows]]))
                return counts(rows, start, end)

            return recorded

        window_counter = detection._window_counter
        trials = 5 * _CHUNK_TRIALS + 3
        with unittest.mock.patch.object(detection, "_window_counter", recording_counter):
            curve = fidelity_curve(scenario, [0.9, 0.99], trials, sub_bin=sub_bin, max_time=max_time)
        assert curve == fidelity_curve(scenario, [0.9, 0.99], trials, sub_bin=sub_bin, max_time=max_time)
        split_windows = multi_chunk = 0
        for window in sorted({(start, end) for start, end, _, _ in calls}):
            slices = [(chunks, row_rates) for start, end, chunks, row_rates in calls if (start, end) == window]
            owners = [set(chunks.tolist()) for chunks, _ in slices]
            assert sum(map(len, owners)) == len(set().union(*owners))  # no chunk in two slices
            span = window[1] - window[0]
            for (chunks, row_rates), owner in zip(slices, owners):
                assert np.all(np.diff(chunks) >= 0)
                if len(owner) > 1:
                    multi_chunk += 1
                    assert row_rates.sum() * span * sub_bin <= _SLICE_EVENTS
                    assert chunks.size * span <= _SLICE_CELLS
            split_windows += len(slices) > 1
        # the case is not vacuous: the budgets split some window, and some slice holds several chunks
        assert split_windows and multi_chunk


class TestProjection:
    def test_projected_budget_composition(self):
        b = projected_budget()
        assert b.repump_scatter == b.doppler_scatter == b.rf_pickup == 0.0
        assert b.dark_counts == 100.0
        assert b.fluorescence == pytest.approx(4.17e6 * 0.05 * 0.24, rel=1e-9)

    def test_no_dark_counts_dominates(self):
        # at each stopping target of the projection, removing its dark counts raises the exact
        # fidelity and shortens the exact mean time; the fidelity margin falls to ~3e-5 at the
        # top target, which no affordable Monte Carlo resolves
        budget = projected_budget()

        def exact(background, target):
            """(fidelity, mean stopping bin) of the exact sequential test."""
            (p_ion, bins_ion, _), (p_empty, bins_empty, _) = exact_sequential(
                budget.fluorescence + background, background, target, PROJECTED_SUB_BIN, PROJECTED_MAX_TIME
            )
            return 0.5 * (p_ion + p_empty), 0.5 * (bins_ion + bins_empty)

        for target in PROJECTION_TARGET_SWEEP:
            fid_dark, bins_dark = exact(budget.dark_counts, target)
            fid_clean, bins_clean = exact(0.0, target)
            assert fid_clean > fid_dark, target
            assert bins_clean < bins_dark, target
