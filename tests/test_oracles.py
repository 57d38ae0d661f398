"""Property tests: each array-at-a-time stage against the per-element loop it replaced.

The loops below are the reference implementations: the per-trial arrival
draw; the per-event dead-time filter; np.histogram per stream for the block
binning; the per-trial, per-target detector sweep; the dense log-odds pass
for the early-exit one; the per-event direct sum of exponential pulses; the
per-edge Schmitt trigger; the per-angle 2x2 transfer-matrix product; the
per-offset collection sum; and the per-line table reader. The sequential detector's Monte Carlo is also checked
against its exact solution at zero dead time.
"""

import math
import re
import unittest.mock
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal

from spadsim import detection, tables
from spadsim.detection import (
    _CHUNK_TRIALS,
    PROJECTION_TARGET_SWEEP,
    BayesianConfig,
    _first_crossings,
    _log_odds,
    _stopping_bins,
    detect_from_counts,
    fidelity_curve,
    projected_scenario_fidelity,
)
from spadsim.model import BUDGET_SOURCES, SOURCE_LABELS, RateBudget, Scenario, table_budget
from spadsim import optics
from spadsim.optics import (
    DetectorGeometry,
    OpticalStack,
    ShadowingWarning,
    aperture_filling_map,
    efficiency_vs_offset,
    quarter_disc_map,
    stack_reflectance,
    stack_transmittance,
)
from spadsim.simulator import (
    _EVENT_HEADER,
    NS,
    EventStream,
    FrontEndParams,
    _arrivals,
    _bin_counts,
    _event_columns,
    _schmitt_crossings,
    apply_dead_time,
    simulate_frontend,
    simulate_stream,
)


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# --- dead time -------------------------------------------------------------------


def loop_dead_time(times_ns, labels, dead_ns):
    """Walk every event; keep it iff it is >= max(dead_ns, 1) after the last kept one."""
    keep = np.zeros(times_ns.size, dtype=bool)
    last = -(1 << 62)
    gap = max(int(dead_ns), 1)
    for i, t in enumerate(times_ns):
        if t - last >= gap:
            keep[i] = True
            last = t
    return times_ns[keep], labels[keep]


@st.composite
def dead_time_cases(draw):
    """A dead time and event times whose gaps favour the boundary cases: duplicates,
    exactly dead_ns and dead_ns - 1 apart, and bursts of close events.

    apply_dead_time takes ascending times; cumulative nonnegative gaps keep them so.
    """
    dead_ns = draw(st.one_of(st.sampled_from([0, 1, 2, 1000]), st.integers(0, 5000)))
    gap = st.one_of(
        st.sampled_from([0, dead_ns, max(dead_ns - 1, 0), dead_ns + 1]),
        st.integers(0, max(dead_ns // 3, 1)),  # inside a burst
        st.integers(0, 3 * dead_ns + 3),
        st.integers(0, 10**6),
    )
    gaps = draw(st.lists(gap, max_size=200))
    start = draw(st.integers(0, 10**9))
    return dead_ns, start + np.cumsum(np.asarray(gaps, dtype=np.int64))


@settings(deadline=None, max_examples=300)
@given(case=dead_time_cases())
@example(case=(0, np.array([5, 5, 5, 6, 6, 9], dtype=np.int64)))
@example(case=(1000, np.array([0, 999, 1000, 1999, 2000, 2999, 3998, 3999], dtype=np.int64)))
@example(case=(1000, np.arange(0, 5000, 100, dtype=np.int64)))  # one long burst
def test_dead_time_matches_per_event_walk(case):
    dead_ns, times = case
    labels = np.arange(times.size)
    got_t, got_l = apply_dead_time(times, labels, dead_ns)
    want_t, want_l = loop_dead_time(times, labels, dead_ns)
    assert got_t.tolist() == want_t.tolist()
    assert got_l.tolist() == want_l.tolist()


# --- arrivals --------------------------------------------------------------------


def loop_arrivals(scenario, ion_present, rng):
    """One trial's arrivals, a count and then its times per source: sorted ns times and labels."""
    rates = [getattr(scenario.budget, name) for name in BUDGET_SOURCES]
    if not ion_present:
        rates[0] = 0.0  # fluorescence
    duration = scenario.trial_duration
    all_t, all_l = [], []
    for idx, rate in enumerate(rates):
        if rate > 0:
            t = rng.uniform(0.0, duration, size=rng.poisson(rate * duration))
            all_t.append(t)
            all_l.append(np.full(t.size, idx, dtype=np.int8))
    if not all_t:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)
    t = np.concatenate(all_t)
    order = np.argsort(t, kind="stable")
    return np.round(t[order] / NS).astype(np.int64), np.concatenate(all_l)[order]


@pytest.mark.parametrize("seed", [0, 1, 77, 4242, 2**40 + 3])
@pytest.mark.parametrize("ion_present", [True, False])
@pytest.mark.parametrize("budget", [table_budget(), RateBudget(dark_counts=300.0)], ids=["reference", "dark"])
def test_simulate_stream_matches_per_trial_draw(seed, ion_present, budget):
    for dead_time in (0.0, 1e-6):
        scenario = Scenario(budget=budget, trial_duration=0.5, rng_seed=seed, dead_time=dead_time)
        stream = simulate_stream(scenario, ion_present)
        t_ns, labels = loop_arrivals(scenario, ion_present, np.random.default_rng(seed))
        want_t, want_l = loop_dead_time(t_ns, labels, round(dead_time / NS))
        assert stream.timestamps_ns.tolist() == want_t.tolist()
        assert stream.labels.tolist() == want_l.tolist()


@pytest.mark.parametrize("seed", [0, 1, 4242])
@pytest.mark.parametrize("ion_present", [True, False])
@pytest.mark.parametrize("budget", [table_budget(), RateBudget(dark_counts=300.0)], ids=["reference", "dark"])
def test_chunk_draw_matches_per_source_calls(seed, ion_present, budget):
    """n trials at once: per source, all n Poisson counts and then all their uniform
    times, split into trials by count, are _arrivals(..., n) row by row."""
    scenario = Scenario(budget=budget, trial_duration=2e-3, rng_seed=seed)
    n = 9
    t, labels, rows = _arrivals(scenario, ion_present, np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    want_t, want_l = [[] for _ in range(n)], [[] for _ in range(n)]
    for idx, name in enumerate(BUDGET_SOURCES):
        rate = getattr(budget, name) if ion_present or idx > 0 else 0.0
        if rate > 0:
            counts = rng.poisson(rate * scenario.trial_duration, size=n)
            times = rng.uniform(0.0, scenario.trial_duration, size=counts.sum())
            for j, part in enumerate(np.split(times, np.cumsum(counts)[:-1])):
                want_t[j] += part.tolist()
                want_l[j] += [idx] * part.size
    assert sum(map(len, want_t)) == t.size
    for j in range(n):
        assert t[rows == j].tolist() == want_t[j]
        assert labels[rows == j].tolist() == want_l[j]


# --- binning ---------------------------------------------------------------------


@st.composite
def binning_cases(draw):
    """Window width and count, events (some on an edge, some outside) and each event's row."""
    width = draw(st.one_of(finite(0.3e-9, 5e-9), finite(5e-9, 1e-4)))  # below 1 ns, edges repeat
    n = draw(st.integers(1, 40))
    edges = np.round(np.arange(n + 1) * width / NS).astype(np.int64)
    on_edge = st.sampled_from(edges.tolist())
    anywhere = st.integers(int(edges[0]) - 3, int(edges[-1]) + 3)
    ts = draw(st.lists(st.one_of(on_edge, anywhere), max_size=60))
    n_rows = draw(st.integers(1, 5))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=len(ts), max_size=len(ts)))
    return width, n, np.asarray(ts, dtype=np.int64), np.asarray(rows, dtype=np.int64), n_rows


@settings(deadline=None, max_examples=300)
@given(case=binning_cases())
# on the first edge, an inner edge and the closing edge, in every row
@example(case=(1e-6, 3, np.array([0, 999, 1000, 3000, 3000, 3001, -1]), np.array([0, 0, 1, 1, 2, 0, 2]), 3))
def test_bin_counts_match_histogram(case):
    width, n, ts, rows, n_rows = case
    edges = np.round(np.arange(n + 1) * width / NS).astype(np.int64)
    np.testing.assert_array_equal(_bin_counts(ts, width, n), np.histogram(ts, bins=edges)[0])
    block = _bin_counts(ts, width, n, rows, n_rows)
    assert block.shape == (n_rows, n)
    for r in range(n_rows):
        np.testing.assert_array_equal(block[r], np.histogram(ts[rows == r], bins=edges)[0])


# --- sequential detector ---------------------------------------------------------


def loop_detect(counts, ion_rate, empty_rate, config):
    """(decided, MAP says ion, stopping time) by scanning every bin for the first |log odds| >= threshold."""
    counts = np.asarray(counts)
    prior_logit = math.log(config.prior_ion / (1.0 - config.prior_ion))
    if empty_rate > 0:
        per_bin = counts * math.log(ion_rate / empty_rate) - (ion_rate - empty_rate) * config.sub_bin
    else:
        per_bin = np.where(counts > 0, np.inf, -ion_rate * config.sub_bin)
    llr = prior_logit + np.cumsum(per_bin)
    thresh = math.log(config.target_posterior / (1.0 - config.target_posterior))
    hit = np.abs(llr) >= thresh
    stop = int(hit.argmax()) if hit.any() else counts.size - 1
    return bool(hit[stop]), bool(llr[stop] > 0), float((stop + 1) * config.sub_bin)


def loop_fidelity_points(scenario, targets, trials, sub_bin, max_time):
    """The adaptive points of fidelity_curve: split each chunk's draw into its trials, sort,
    dead-time filter and bin each trial on its own, then run detect_from_counts per trial and target."""
    ion_rate, empty_rate = scenario.budget.ion_total(), scenario.budget.background_total()
    trial_scenario = replace(scenario, trial_duration=max_time)
    n_bins = max(int(np.floor(max_time / sub_bin + 1e-9)), 1)
    edges = np.round(np.arange(n_bins + 1) * sub_bin / NS).astype(np.int64)
    binned = {}
    for hyp, ion_present in ((1, True), (0, False)):
        binned[hyp] = []
        for chunk, first in enumerate(range(0, trials, _CHUNK_TRIALS)):
            n = min(_CHUNK_TRIALS, trials - first)
            rng = np.random.default_rng([scenario.rng_seed, hyp, chunk])
            t, labels, trial = _arrivals(trial_scenario, ion_present, rng, n)
            for j in range(n):
                order = np.argsort(t[trial == j], kind="stable")
                t_ns = np.round(t[trial == j][order] / NS).astype(np.int64)
                t_ns, _ = loop_dead_time(t_ns, labels[trial == j][order], round(scenario.dead_time / NS))
                binned[hyp].append(np.histogram(t_ns, bins=edges)[0])
    points = []
    for target in targets:
        config = BayesianConfig(target_posterior=target, sub_bin=sub_bin, max_time=max_time)
        correct = {}
        bins_used = 0
        for hyp in (1, 0):
            want = "ion" if hyp else "no_ion"
            ok = 0
            for counts in binned[hyp]:
                out = detect_from_counts(counts, ion_rate, empty_rate, config)
                ok += out.map_decision == want
                bins_used += len(out.posterior_trace)  # the stopping bin + 1
            correct[hyp] = ok / trials
        points.append((target, 0.5 * (correct[1] + correct[0]), float(bins_used * sub_bin / (2 * trials))))
    return points


targets_st = st.lists(
    st.one_of(finite(0.5001, 0.9999), st.sampled_from([0.51, 0.99, 0.999999999])), min_size=1, max_size=4
)


@settings(deadline=None, max_examples=40)
@given(
    fluorescence=finite(100.0, 3e4),
    background=st.one_of(st.just(0.0), finite(10.0, 2e4)),
    dead_time=st.sampled_from([0.0, 1e-6, 50e-6]),
    targets=targets_st,
    trials=st.one_of(st.integers(1, 12), st.sampled_from([_CHUNK_TRIALS, _CHUNK_TRIALS + 1])),
    max_time=finite(0.5e-3, 20e-3),
    n_bins=st.integers(1, 60),
    seed=st.integers(0, 2**32),
)
# no background: the first count gives infinite log odds
@example(fluorescence=5e3, background=0.0, dead_time=1e-6, targets=[0.99, 0.999999999],
         trials=10, max_time=5e-3, n_bins=50, seed=3)
# a weak signal and a short horizon leave most trials undecided
@example(fluorescence=200.0, background=6900.0, dead_time=1e-6, targets=[0.9, 0.999999999],
         trials=10, max_time=2e-3, n_bins=20, seed=4)
# two full chunks and a partial one; a 1 ms dead time would reach from most trials
# into the next if they were packed too closely
@example(fluorescence=3e4, background=2e4, dead_time=1e-3, targets=[0.9, 0.999],
         trials=2 * _CHUNK_TRIALS + 7, max_time=20e-3, n_bins=50, seed=5)
@example(fluorescence=2e3, background=0.0, dead_time=1e-6, targets=[0.99],
         trials=2 * _CHUNK_TRIALS + 7, max_time=20e-3, n_bins=200, seed=6)
# empty_rate = 0 at zero dead time: the empty hypothesis draws no events at all
@example(fluorescence=5e3, background=0.0, dead_time=0.0, targets=[0.9, 0.999999999],
         trials=_CHUNK_TRIALS + 1, max_time=5e-3, n_bins=50, seed=7)
def test_fidelity_curve_matches_per_trial_detector(
    fluorescence, background, dead_time, targets, trials, max_time, n_bins, seed
):
    budget = RateBudget(fluorescence=fluorescence, dark_counts=background)
    scenario = Scenario(budget=budget, rng_seed=seed, dead_time=dead_time)
    sub_bin = max_time / n_bins
    curve = fidelity_curve(scenario, targets, trials, sub_bin=sub_bin, max_time=max_time, threshold_windows=[sub_bin])
    want = loop_fidelity_points(scenario, targets, trials, sub_bin, max_time)
    assert repr(curve.bayes) == repr(want)


def dense_stopping_bins(counts, ion_rate, empty_rate, config, thresholds):
    """The whole-row pass: log odds after every bin, then each threshold's first crossing."""
    llr = _log_odds(counts, ion_rate, empty_rate, config)
    stop = np.minimum(_first_crossings(llr, thresholds), counts.shape[1] - 1)
    return stop, np.take_along_axis(llr, stop, axis=1) > 0


@settings(deadline=None, max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 70), st.integers(1, 300)),
    mu_ion=finite(0.01, 5.0),
    empty_fraction=st.one_of(st.just(0.0), finite(0.05, 0.95)),
    drawn_from=finite(0.0, 1.0),  # the count mean, from the empty (0) to the ion (1) hypothesis's
    targets=targets_st,
    prior=finite(0.01, 0.99),
    first_window=st.sampled_from([1, 2, 3, 32]),
    seed=st.integers(0, 2**32),
)
# empty_rate = 0: a count gives infinite log odds, and no count only a slow drift
@example(shape=(64, 300), mu_ion=0.02, empty_fraction=0.0, drawn_from=0.5, targets=[0.9, 0.999999999],
         prior=0.5, first_window=32, seed=1)
def test_early_exit_matches_dense_pass(shape, mu_ion, empty_fraction, drawn_from, targets, prior, first_window, seed):
    sub_bin = 1e-4
    ion_rate, empty_rate = mu_ion / sub_bin, mu_ion * empty_fraction / sub_bin
    mean = mu_ion * (empty_fraction + drawn_from * (1.0 - empty_fraction))
    counts = np.random.default_rng(seed).poisson(mean, shape)
    config = BayesianConfig(target_posterior=0.9, sub_bin=sub_bin, max_time=sub_bin * shape[1], prior_ion=prior)
    thresholds = [math.log(t / (1.0 - t)) for t in targets]
    with unittest.mock.patch.object(detection, "_FIRST_WINDOW", first_window):
        stop, says_ion = _stopping_bins(counts, ion_rate, empty_rate, config, thresholds)
    want_stop, want_ion = dense_stopping_bins(counts, ion_rate, empty_rate, config, thresholds)
    assert stop.tolist() == want_stop.tolist()
    assert says_ion.tolist() == want_ion.tolist()


@settings(deadline=None, max_examples=200)
@given(
    counts=arrays(np.int64, st.integers(1, 80), elements=st.integers(0, 6)),
    rates=st.tuples(finite(1.0, 1e5), st.one_of(st.just(0.0), finite(1e-3, 1.0))),
    target=st.one_of(finite(0.5001, 0.99999), st.just(0.999999999)),
    prior=finite(0.01, 0.99),
    sub_bin=finite(1e-6, 1e-2),
)
def test_detect_from_counts_matches_bin_scan(counts, rates, target, prior, sub_bin):
    ion_rate, empty_fraction = rates
    empty_rate = ion_rate * empty_fraction
    if not ion_rate > empty_rate:
        return
    config = BayesianConfig(target_posterior=target, sub_bin=sub_bin, max_time=sub_bin * counts.size, prior_ion=prior)
    out = detect_from_counts(counts, ion_rate, empty_rate, config)
    decided, says_ion, stopping_time = loop_detect(counts, ion_rate, empty_rate, config)
    assert (out.decision != "undecided") == decided
    assert (out.map_decision == "ion") == says_ion
    assert out.stopping_time == stopping_time


# --- exact sequential test --------------------------------------------------------


def exact_sequential(ion_rate, empty_rate, target, sub_bin, max_time, prior_ion=0.5):
    """The adaptive detector's exact outcome at zero dead time, per hypothesis (ion, then empty):
    (probability of the right MAP choice, mean stopping bin + 1, its variance).

    With no dead time the bin counts are independent Poisson draws, so after n
    bins the log odds depend only on the cumulative count k: prior + k ln(r1/r0)
    - n (r1 - r0) sub_bin. A forward pass over the bins convolves the still
    undecided probability over k with one bin's Poisson pmf, then absorbs it
    wherever |log odds| reaches the threshold. What is left after the last bin
    stops there and takes its MAP choice, as in fidelity_curve.
    """
    from scipy.stats import poisson

    n_bins = max(int(np.floor(max_time / sub_bin + 1e-9)), 1)
    threshold = math.log(target / (1.0 - target))
    prior = math.log(prior_ion / (1.0 - prior_ion))
    total = ion_rate * sub_bin * n_bins
    ks = np.arange(int(total + 12 * math.sqrt(total) + 30))  # every count reached with any weight
    if empty_rate > 0:
        count_weight = ks * math.log(ion_rate / empty_rate)
    else:  # the empty hypothesis emits nothing: any count is decisive
        count_weight = np.where(ks > 0, np.inf, 0.0)
    out = []
    for rate, says_right in ((ion_rate, lambda llr: llr > 0), (empty_rate, lambda llr: llr <= 0)):
        mu = rate * sub_bin
        pmf = poisson.pmf(np.arange(int(mu + 12 * math.sqrt(mu) + 12)), mu)
        undecided = np.zeros(ks.size)
        undecided[0] = 1.0
        right = moment1 = moment2 = 0.0
        for n in range(1, n_bins + 1):
            undecided = np.convolve(undecided, pmf)[: ks.size]
            llr = prior + count_weight - n * (ion_rate - empty_rate) * sub_bin
            stops = np.abs(llr) >= threshold if n < n_bins else np.ones(ks.size, dtype=bool)
            mass = undecided[stops].sum()
            right += undecided[stops & says_right(llr)].sum()
            moment1 += n * mass
            moment2 += n * n * mass
            undecided[stops] = 0.0
        out.append((right, moment1, max(moment2 - moment1**2, 0.0)))  # rounding can leave it just below 0
    return out


def assert_matches_exact(point, exact, trials, sub_bin):
    """A Monte Carlo (target, fidelity, mean time) within 4 standard errors of the exact values,
    each combining the two hypotheses' binomial (or stopping-time) errors over `trials` trials.

    Each bound also allows one trial's share, for counts near 0 or all of `trials`,
    where a binomial's standard error vanishes but its count still moves in whole trials.
    """
    _, fidelity, mean_time = point
    (p_ion, bins_ion, var_ion), (p_empty, bins_empty, var_empty) = exact
    want_fidelity = 0.5 * (p_ion + p_empty)
    sd_fidelity = 0.5 * math.sqrt((p_ion * (1 - p_ion) + p_empty * (1 - p_empty)) / trials)
    assert abs(fidelity - want_fidelity) <= 4 * sd_fidelity + 0.5 / trials, (point, want_fidelity, sd_fidelity)
    want_time = 0.5 * (bins_ion + bins_empty) * sub_bin
    sd_time = 0.5 * math.sqrt((var_ion + var_empty) / trials) * sub_bin
    assert abs(mean_time - want_time) <= 4 * sd_time + 0.5 * sub_bin / trials, (point, want_time, sd_time)


def test_exact_sequential_matches_one_bin():
    # one bin: the MAP choice on a single Poisson count, stopping there
    (p_ion, bins_ion, var_ion), (p_empty, bins_empty, _) = exact_sequential(2e4, 5e3, 0.99, 1e-4, 1e-4)
    # the MAP threshold: ion iff k ln 4 > 1.5
    assert p_ion == pytest.approx(1 - math.exp(-2.0) * 3.0, rel=1e-12)
    assert p_empty == pytest.approx(math.exp(-0.5) * 1.5, rel=1e-12)
    assert (bins_ion, bins_empty, var_ion) == (pytest.approx(1.0), pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))


# statistical: derandomized, so the same budgets and seeds run every time and a rare
# 4-sigma miss cannot come and go between runs
@settings(deadline=None, max_examples=15, derandomize=True)
@given(
    fluorescence=finite(500.0, 2e4),
    background=st.one_of(st.just(0.0), finite(500.0, 2e4)),
    targets=st.lists(finite(0.6, 0.999), min_size=1, max_size=3),
    sub_bin=finite(20e-6, 500e-6),
    n_bins=st.integers(1, 200),
    seed=st.integers(0, 2**32),
)
def test_fidelity_curve_matches_exact_sequential_test(fluorescence, background, targets, sub_bin, n_bins, seed):
    trials = 2000
    scenario = Scenario(
        budget=RateBudget(fluorescence=fluorescence, dark_counts=background), rng_seed=seed, dead_time=0.0
    )
    max_time = sub_bin * n_bins
    curve = fidelity_curve(scenario, targets, trials, sub_bin=sub_bin, max_time=max_time, threshold_windows=[sub_bin])
    for point in curve.bayes:
        exact = exact_sequential(fluorescence + background, background, point[0], sub_bin, max_time)
        assert_matches_exact(point, exact, trials, sub_bin)


def test_reference_preset_matches_exact_sequential_test():
    trials = 5000
    scenario = Scenario(budget=table_budget(), rng_seed=20260824, dead_time=0.0)
    curve = fidelity_curve(scenario, [0.9, 0.95, 0.99], trials)
    for point in curve.bayes:
        exact = exact_sequential(curve.ion_rate, curve.empty_rate, point[0], 100e-6, 50e-3)
        assert_matches_exact(point, exact, trials, 100e-6)


def test_projection_preset_matches_exact_sequential_test():
    _, curve = projected_scenario_fidelity(full_curve=True)
    assert [p[0] for p in curve.bayes] == list(PROJECTION_TARGET_SWEEP)
    for point in curve.bayes:
        exact = exact_sequential(curve.ion_rate, curve.empty_rate, point[0], 2e-6, 2e-3)
        assert_matches_exact(point, exact, 20000, 2e-6)


# --- analog front end ------------------------------------------------------------


def loop_schmitt_crossings(wave, high, low):
    """Walk the rising edges of `high`; take one only if the wave fell below `low` since the last one taken."""
    above = wave >= high
    rising = np.flatnonzero(above & ~np.concatenate(([False], above[:-1])))
    below_idx = np.flatnonzero(wave < low)
    crossings = []
    last = -1
    for r in rising:
        if last < 0:
            crossings.append(r)
            last = r
        else:
            j = np.searchsorted(below_idx, last, side="right")
            if j < below_idx.size and below_idx[j] < r:
                crossings.append(r)
                last = r
    return np.array(crossings, dtype=np.int64)


def direct_sum_frontend(events, params, sample_rate, rng):
    """simulate_frontend with each pulse added to the waveform sample by sample."""
    dt = 1.0 / sample_rate
    span = events.duration + 5 * params.pulse_time_constant
    n = int(np.ceil(span / dt))
    t = np.arange(n) * dt
    wave = np.zeros(n)
    lo, hi = params.pulse_amplitude_range
    amps = rng.uniform(lo, hi, size=len(events))
    tau = params.pulse_time_constant
    for t0, amp in zip(events.times_s, amps):
        i0 = int(np.ceil(t0 / dt))
        if i0 >= n:
            continue
        wave[i0:] += amp * np.exp(-(t[i0:] - t0) / tau)
    if params.rf_pickup_amplitude > 0:
        wave = wave + params.rf_pickup_amplitude * np.sin(2 * np.pi * params.rf_frequency * t)
    a = np.exp(-dt * 2 * np.pi * params.lowpass_cutoff)
    filtered = signal.lfilter([1 - a], [1, -a], wave)
    idx = loop_schmitt_crossings(filtered, params.schmitt_high, params.schmitt_low)
    ts_ns = np.unique(np.round(idx * dt / NS).astype(np.int64))
    return t, filtered, ts_ns


@settings(deadline=None, max_examples=40)
@given(
    gaps_ns=st.lists(st.integers(1, 200_000), max_size=40),
    duration_ns=st.integers(1_000, 2_000_000),
    sample_rate=st.sampled_from([20e6, 50e6, 100e6]),
    rf=st.sampled_from([0.0, 0.03, 0.2]),
    seed=st.integers(0, 2**32),
)
def test_frontend_matches_direct_sum(gaps_ns, duration_ns, sample_rate, rf, seed):
    # events may lie past the rendered span (EventStream does not bound them); those are skipped
    times = np.cumsum(gaps_ns, dtype=np.int64)
    events = EventStream(times, np.zeros(times.size, dtype=np.int8), duration_ns * NS)
    params = FrontEndParams(rf_pickup_amplitude=rf)
    t, wave, digital = simulate_frontend(events, params, sample_rate, rng=np.random.default_rng(seed))
    t_ref, wave_ref, ts_ref = direct_sum_frontend(events, params, sample_rate, np.random.default_rng(seed))
    np.testing.assert_array_equal(t, t_ref)
    np.testing.assert_allclose(wave, wave_ref, rtol=0, atol=1e-11)
    np.testing.assert_array_equal(digital.timestamps_ns, ts_ref)


@settings(deadline=None, max_examples=300)
@given(
    wave=arrays(
        float,
        st.integers(0, 120),
        elements=st.one_of(finite(-0.1, 0.2), st.sampled_from([0.03, 0.04, 0.06, 0.08, 0.09])),
    ),
)
def test_schmitt_crossings_match_edge_walk(wave):
    got = _schmitt_crossings(wave, 0.08, 0.04)
    want = loop_schmitt_crossings(wave, 0.08, 0.04)
    assert got.tolist() == want.tolist()


# --- thin-film reflectance -------------------------------------------------------


def matrix_product_coeffs(stack, angle, pol):
    """r and transmittance factor at one angle from the product of 2x2 layer matrices."""
    n0 = complex(stack.ambient_index)
    kpar = n0 * math.sin(angle)

    def admittance(n):
        q = np.sqrt(n * n - kpar * kpar + 0j)
        return q if pol == "s" else n * n / q

    m = np.eye(2, dtype=complex)
    for d, n in stack.layers:
        q = np.sqrt(n * n - kpar * kpar + 0j)
        delta = 2.0 * np.pi * d / stack.wavelength * q
        e = admittance(n)
        m = m @ np.array(
            [
                [np.cos(delta), 1j * np.sin(delta) / e],
                [1j * e * np.sin(delta), np.cos(delta)],
            ]
        )
    e0 = admittance(n0)
    es = admittance(complex(stack.substrate_index))
    b, c = m @ np.array([1.0, es])
    r = (e0 * b - c) / (e0 * b + c)
    return abs(r) ** 2, 4.0 * e0.real * es.real / abs(e0 * b + c) ** 2


# Lossless layers, as in the device's coating, over an absorbing substrate. An
# absorbing layer is modelled as gain (see the FOUND note on the index sign
# convention in CHANGES.md); near its resonances R grows without bound and no
# two evaluation orders agree to 1e-15.
indices = st.builds(complex, finite(1.2, 3.0))


@settings(deadline=None, max_examples=100)
@given(
    layers=st.lists(st.tuples(finite(1e-9, 200e-9), indices), max_size=3),
    substrate=st.builds(complex, finite(1.2, 7.0), finite(0.0, 2.0)),
    angles=arrays(float, st.integers(1, 30), elements=finite(0.0, 1.5707)),
    pol=st.sampled_from(["s", "p", "unpolarized"]),
)
def test_array_reflectance_matches_per_angle_matrix_product(layers, substrate, angles, pol):
    stack = OpticalStack(layers=tuple(layers), substrate_index=substrate)
    pols = ("s", "p") if pol == "unpolarized" else (pol,)
    want_r = [np.mean([matrix_product_coeffs(stack, a, p)[0] for p in pols]) for a in angles]
    want_t = [np.mean([matrix_product_coeffs(stack, a, p)[1] for p in pols]) for a in angles]
    got_r = stack_reflectance(stack, angles, pol)
    assert got_r.shape == angles.shape
    np.testing.assert_allclose(got_r, want_r, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got_r, [stack_reflectance(stack, a, pol) for a in angles], rtol=0, atol=1e-15)
    np.testing.assert_allclose(stack_transmittance(stack, angles, pol), want_t, rtol=0, atol=1e-15)


# --- collection efficiency ---------------------------------------------------------


def loop_collection_efficiency(geometry, include_arc=True):
    """(efficiency, shadowed) at the geometry's own offset: the per-offset cell sum and
    aperture-wall test that efficiency_vs_offset evaluates for many offsets at once."""
    amap = geometry.active_area
    cx, cy = amap.centroid()
    ion_x = cx + geometry.ion_lateral_offset
    ion_y = cy
    d = geometry.vertical_distance
    xx, yy = amap.cell_centers()
    dx = xx - ion_x
    dy = yy - ion_y
    r2 = dx * dx + dy * dy + d * d
    cos_t = d / np.sqrt(r2)
    theta = np.arccos(np.clip(cos_t, -1.0, 1.0))

    frac = amap.weights * cos_t / (4.0 * np.pi * r2) * amap.cell_size**2
    if geometry.emission_pattern == "dipole_perpendicular":
        frac = frac * 1.5 * np.sin(theta) ** 2
    if include_arc:
        frac = frac * (1.0 - stack_reflectance(geometry.stack, theta))

    shadowed = False
    recess = geometry.detector_recess_below_surface
    if recess > 0:
        t = recess / d  # ray parameter at the trap surface
        sx = xx + (ion_x - xx) * t
        sy = yy + (ion_y - yy) * t
        outside = np.hypot(sx, sy) > geometry.aperture_diameter / 2
        shadowed = bool(np.any(outside & (amap.weights > 0)))
    return float(frac.sum()), shadowed


AREA_MAPS = {"quarter disc": quarter_disc_map(), "aperture filling": aperture_filling_map()}


@st.composite
def offset_sweeps(draw):
    """Offsets in any order, with repeats, negative ones and ones past the wall."""
    anywhere = st.one_of(finite(-200e-6, 200e-6), st.sampled_from([0.0, 75e-6, 80e-6]))
    pool = draw(st.lists(anywhere, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


@settings(deadline=None, max_examples=100)
@given(
    offsets=offset_sweeps(),
    area=st.sampled_from(sorted(AREA_MAPS)),
    pattern=st.sampled_from(["isotropic", "dipole_perpendicular"]),
    include_arc=st.booleans(),
    sweep_cells=st.sampled_from([1, 20_000, 1 << 20, optics._SWEEP_CELLS]),
)
@example(offsets=[80e-6, 0.0, -160e-6, 75e-6, 80e-6, 70e-6], area="quarter disc", pattern="isotropic",
         include_arc=True, sweep_cells=optics._SWEEP_CELLS)
def test_efficiency_sweep_matches_per_offset_loop(offsets, area, pattern, include_arc, sweep_cells):
    geometry = DetectorGeometry(active_area=AREA_MAPS[area], emission_pattern=pattern)
    want = [loop_collection_efficiency(geometry.with_offset(off), include_arc) for off in offsets]
    # blocks of one offset, of several with a partial last one, and of every offset at once
    with unittest.mock.patch.object(optics, "_SWEEP_CELLS", sweep_cells):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            got = efficiency_vs_offset(geometry, offsets, include_arc)
    assert np.array_equal(got, [ce for ce, _ in want])
    named = [f"{off * 1e6:.6g}" for off, (_, shadowed) in zip(offsets, want) if shadowed]
    assert [str(w.message) for w in record] == (
        [f"line of sight from part of the active area to the ion clips the aperture wall at offsets "
         f"{', '.join(named)} um; wall occlusion is not modeled"] if named else []
    )
    assert all(w.category is ShadowingWarning for w in record)


# --- table reader ----------------------------------------------------------------


def loop_read_rows(text, what, header, parse_row):
    """Walk every line: skip blank and '#' lines, check the header, then split and parse each row.

    A headerless table takes its column count from its first data row.
    """
    ncols = None if header is None else header.count(",") + 1
    need_header = header is not None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if need_header:
            if line != header:
                break
            need_header = False
            continue
        fields = line.split(",")
        ncols = ncols or len(fields)
        try:
            if len(fields) != ncols:
                raise ValueError(f"expected {ncols} columns, got {len(fields)}")
            row = parse_row(fields)
        except ValueError as exc:
            raise ValueError(f"{what} line {lineno}: {exc}") from exc
        yield row
    if need_header:
        raise ValueError(f"{what} needs the column header {header!r}")


def read_event_rows(text):
    """The block reader's event rows as (timestamp, label code) pairs."""
    blocks = list(tables.read_rows(text, "event CSV", _EVENT_HEADER, _event_columns))
    return [row for ts, labels in blocks for row in zip(ts.tolist(), labels.tolist())]


def loop_event_rows(text):
    return list(loop_read_rows(text, "event CSV", _EVENT_HEADER, lambda f: (int(f[0]), SOURCE_LABELS.index(f[1]))))


def read_grid_rows(text):
    return tables.read_grid(text, "grid CSV").tolist()


def loop_grid_rows(text):
    return list(loop_read_rows(text, "grid CSV", None, lambda f: [float(v) for v in f]))


def outcome(read, text):
    """The rows read, or where the ValueError says the table went wrong."""
    try:
        return read(text)
    except ValueError as exc:
        return re.search(r"line \d+:|needs the column header", str(exc)).group()


# Rows the two readers must agree on, good and bad: surrounding whitespace,
# underscores and signs that int() takes, a wrong field count, a non-number,
# an unknown label and an empty field.
EVENT_LINES = ["12,dark", "  7,fluorescence ", "+3,rf", "1_000,doppler", "0,dark",
               "5,dark,1", "9", "x1,dark", "1.5,dark", "4,bogus", "4, dark", ",dark", "8,"]
GRID_LINES = ["1,2,3", "0.5, 1e3 ,-2", " 4,5,6 ", "7,8", "1,2,3,4", "1,x,3", "1,,3", "inf,0,1"]
SKIPPED = ["", "   ", "# manifest: 0123456789abcdef", "# cell_size_um=1, origin_um=0,0", " # note, with, commas"]


@st.composite
def tables_text(draw, body_lines, header):
    """A table text with '#' and blank lines anywhere and LF or CRLF line ends, and a block size
    from 1 character to past its end, often exactly where a line ends."""
    lines = draw(st.lists(st.one_of(st.sampled_from(body_lines), st.sampled_from(SKIPPED)), max_size=40))
    if header is not None and draw(st.integers(0, 9)):  # the header, sometimes missing or misplaced
        lines.insert(draw(st.integers(0, len(lines))), header)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    line_ends = [m.end() for m in re.finditer("\n", text)]
    block = draw(st.one_of(st.integers(1, len(text) + 2), st.sampled_from(line_ends or [1])))
    return text, block


def assert_readers_agree(read, loop, text, block):
    with unittest.mock.patch.object(tables, "_BLOCK_CHARS", block):
        got = outcome(read, text)
    assert got == outcome(loop, text)


EVENT_BODY = "timestamp_ns,label\n1,dark\n2,rf\n"


@settings(deadline=None, max_examples=400)
@given(case=tables_text(EVENT_LINES, _EVENT_HEADER))
@example(case=("# manifest: 0123456789abcdef\n" + EVENT_BODY, len(EVENT_BODY)))  # the body is exactly a block
@example(case=(EVENT_BODY + "3,dark\n", len(EVENT_BODY)))  # a block of the header and two rows, then one row
@example(case=(EVENT_BODY + "\n\n# a\n\n4,bogus\n", 5))  # a bad row past several blocks
def test_event_block_reader_matches_per_line_loop(case):
    assert_readers_agree(read_event_rows, loop_event_rows, *case)


@settings(deadline=None, max_examples=200)
@given(case=tables_text(GRID_LINES, None))
@example(case=("1,2\n\r\n3,4\n5\n", 4))  # CRLF blank line, then a short row in a later block
def test_grid_block_reader_matches_per_line_loop(case):
    assert_readers_agree(read_grid_rows, loop_grid_rows, *case)


def test_table_reader_holds_one_block_of_lines():
    """A long table is split into blocks of at most _BLOCK_CHARS characters plus one line."""
    text = "".join(f"{i},dark\n" for i in range(100_000))
    longest = max(sum(map(len, lines)) + len(lines) for _, lines, _ in tables._blocks(text))
    assert longest <= tables._BLOCK_CHARS + len("99999,dark\n")


def test_columns_rejects_rows_whose_field_counts_balance():
    # one field short and one over: the total matches two rows of two fields
    with pytest.raises(ValueError, match="wrong number of columns"):
        tables._columns(["9", "5,dark,1"], 2)
