import math

import numpy as np
import pytest

from spadsim.detection import (
    PROJECTED_MAX_TIME,
    PROJECTED_SUB_BIN,
    PROJECTION_TARGET_SWEEP,
    BayesianConfig,
    analytic_threshold_fidelity,
    bayesian_detect,
    detect_from_counts,
    fidelity_curve,
    projected_budget,
    threshold_fidelity,
    wald_bound,
)
from spadsim.model import RateBudget, Scenario, table_budget
from spadsim.simulator import EventStream
from test_oracles import exact_sequential

ION_RATE = 11700.0
EMPTY_RATE = 6900.0


def make_stream(times_ns, duration):
    t = np.asarray(times_ns, dtype=np.int64)
    return EventStream(t, np.zeros(t.size, dtype=np.int8), duration)


class TestThresholdFidelity:
    def test_perfectly_separated(self):
        result = threshold_fidelity([10] * 50, [0] * 50, 0.025)
        assert result.fidelity == 1.0
        assert 0 <= result.threshold <= 9
        # both histograms run from 0 to the largest count of either, so they line up row by row
        assert result.histogram_ion.size == result.histogram_empty.size == 11

    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(0)
        a = rng.poisson(20, 2000)
        b = rng.poisson(20, 2000)
        result = threshold_fidelity(a, b, 0.025)
        assert result.fidelity == pytest.approx(0.5, abs=0.05)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            threshold_fidelity([], [1, 2], 0.025)

    def test_ties_at_threshold_go_to_no_ion(self):
        # single threshold k classifies count > k as ion
        result = threshold_fidelity([5, 5, 5], [5, 5, 5], 0.025)
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

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(7)
        window, n = 0.025, 2000
        ion = rng.poisson(ION_RATE * window, n)
        empty = rng.poisson(EMPTY_RATE * window, n)
        mc = threshold_fidelity(ion, empty, window)
        _, exact = analytic_threshold_fidelity(ION_RATE, EMPTY_RATE, window)
        assert abs(mc.fidelity - exact) <= 0.005


class TestBayesianDetect:
    CONFIG = BayesianConfig(target_posterior=0.99)

    def test_empty_stream_rapid_no_ion(self):
        stream = make_stream([], duration=0.05)
        out = bayesian_detect(stream, ION_RATE, EMPTY_RATE, self.CONFIG)
        assert out.decision == "no_ion"
        assert out.stopping_time < 0.01
        post_no_ion = 1.0 - out.posterior_trace[:, 1]
        assert np.all(np.diff(post_no_ion) > 0)

    def test_stopping_time_is_sub_bin_multiple(self):
        stream = make_stream([], duration=0.05)
        out = bayesian_detect(stream, ION_RATE, EMPTY_RATE, self.CONFIG)
        steps = out.stopping_time / self.CONFIG.sub_bin
        assert steps == pytest.approx(round(steps))

    def test_unit_likelihood_ratio_undecided(self):
        # one event per sub-bin with bin width chosen so the per-bin
        # likelihood ratio is exactly 1: posterior pinned at the prior
        sub_bin = math.log(ION_RATE / EMPTY_RATE) / (ION_RATE - EMPTY_RATE)
        config = BayesianConfig(target_posterior=0.99, sub_bin=sub_bin, max_time=100 * sub_bin)
        times_ns = np.round((np.arange(100) + 0.5) * sub_bin / 1e-9).astype(np.int64)
        stream = make_stream(times_ns, duration=100 * sub_bin)
        out = bayesian_detect(stream, ION_RATE, EMPTY_RATE, config)
        assert out.decision == "undecided"
        np.testing.assert_allclose(out.posterior_trace[:, 1], 0.5, atol=1e-9)

    def test_zero_empty_rate_event_decides_ion(self):
        config = BayesianConfig(target_posterior=0.99, sub_bin=1e-3, max_time=0.05)
        stream = make_stream([500_000], duration=0.05)
        out = bayesian_detect(stream, 5000.0, 0.0, config)
        assert out.decision == "ion"
        assert out.stopping_time == pytest.approx(1e-3)
        assert out.final_posterior == 1.0

    def test_decision_matches_llr_sign_with_flat_prior(self):
        rng = np.random.default_rng(3)
        config = BayesianConfig(target_posterior=0.999, sub_bin=1e-3, max_time=0.02)
        for _ in range(20):
            n = rng.poisson(9000 * 0.02)
            times = np.sort(rng.integers(0, int(0.02 / 1e-9), n))
            stream = make_stream(np.unique(times), duration=0.02)
            out = bayesian_detect(stream, ION_RATE, EMPTY_RATE, config)
            counts = np.histogram(stream.timestamps_ns, bins=np.arange(21) * 10**6)[0]
            llr = np.sum(
                counts * math.log(ION_RATE / EMPTY_RATE)
                - (ION_RATE - EMPTY_RATE) * config.sub_bin
            )
            # undecided trials are resolved at max_time, so the full-record
            # sign applies only there; decided trials match their stop point
            if out.decision == "undecided":
                assert out.map_decision == ("ion" if llr > 0 else "no_ion")

    def test_permutation_invariance_of_final_posterior(self):
        rng = np.random.default_rng(11)
        counts = rng.poisson(1.0, 200)
        config = BayesianConfig(target_posterior=0.9999999, sub_bin=1e-4, max_time=0.02)
        base = detect_from_counts(counts, ION_RATE, EMPTY_RATE, config)
        for _ in range(5):
            perm = detect_from_counts(rng.permutation(counts), ION_RATE, EMPTY_RATE, config)
            assert perm.posterior_trace[-1, 1] == pytest.approx(
                base.posterior_trace[-1, 1], rel=1e-9
            )

    def test_rate_ordering_rejected(self):
        with pytest.raises(ValueError):
            bayesian_detect(make_stream([], 0.05), 5000.0, 5000.0, self.CONFIG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BayesianConfig(target_posterior=0.4)
        with pytest.raises(ValueError):
            BayesianConfig(target_posterior=0.99, sub_bin=0.2, max_time=0.1)


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
