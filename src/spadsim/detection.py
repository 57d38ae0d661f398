"""Ion/no-ion discrimination: fixed-window thresholding, adaptive Bayesian stopping,
fidelity-vs-time curves and the sequential-analysis lower bound."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import RateBudget, Scenario
from .simulator import _window_counter

# Effective emission rate (photons/s) of the odd-isotope emitter during
# hyperfine-qubit readout. Coherent population trapping reduces it well below
# the even-isotope two-level saturated rate; this value is calibrated so the
# forward-projection budget is self-consistent with its quoted performance.
PROJECTED_EMISSION_RATE = 4.17e6
PROJECTED_COLLECTION_EFFICIENCY = 0.05
PROJECTED_DARK_RATE = 100.0
PROJECTED_QUANTUM_EFFICIENCY = 0.24
PROJECTED_TARGET_TIME = 75e-6
PROJECTED_SEED = 20260824
PROJECTED_TRIALS = 20000
# the projection's sequential detector: 2 us bins over at most 2 ms
PROJECTED_SUB_BIN = 2e-6
PROJECTED_MAX_TIME = 2e-3


@dataclass(frozen=True)
class ThresholdResult:
    threshold: int
    fidelity: float
    histogram_ion: np.ndarray
    histogram_empty: np.ndarray


def _fidelity_by_threshold(miss_cdf: np.ndarray, fa_sf: np.ndarray) -> np.ndarray:
    """Equal-prior fidelity per candidate threshold k: 1 - (miss(k) + fa(k)) / 2."""
    return 1.0 - 0.5 * (miss_cdf + fa_sf)


def threshold_fidelity(ion_counts, empty_counts) -> ThresholdResult:
    """Best classify-if-count-exceeds-k rule on two empirical count histograms.

    Ties in fidelity break toward the smaller threshold; a count equal to the
    threshold is classified no_ion.
    """
    ion = np.asarray(ion_counts, dtype=np.int64)
    empty = np.asarray(empty_counts, dtype=np.int64)
    if ion.size == 0 or empty.size == 0:
        raise ValueError("both count lists must be non-empty")
    kmax = int(max(ion.max(), empty.max()))
    hist_ion = np.bincount(ion, minlength=kmax + 1)
    hist_empty = np.bincount(empty, minlength=kmax + 1)
    miss = np.cumsum(hist_ion) / ion.size  # empirical P(count <= k), k = 0..kmax
    fa = 1.0 - np.cumsum(hist_empty) / empty.size
    fid = _fidelity_by_threshold(miss, fa)
    best = int(np.argmax(fid))
    return ThresholdResult(
        threshold=best,
        fidelity=float(fid[best]),
        histogram_ion=hist_ion,
        histogram_empty=hist_empty,
    )


def _poisson_cdf(mu, log_factorial: np.ndarray) -> np.ndarray:
    """P(X <= k) for X ~ Poisson(mu), k = 0..kmax, one row per mean in mu, where
    log_factorial holds ln k! for k = 0..kmax.

    The pmf is exp(k ln mu - mu - ln k!), and its cumsum, divided by its last
    entry, is the CDF. kmax must lie 10 standard deviations or more above each
    mean, where the mass left out is below 1e-20; the division then removes the
    sum's drift from rounding ln mu. The result is within about mu times the
    float epsilon of the exact CDF: within 1e-12 for 0 <= mu <= 1000, which
    holds every window of both presets.
    """
    ks = np.arange(log_factorial.size)
    mu = np.asarray(mu, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # mu = 0: only k = 0 has mass
        k_log_mu = np.where(ks > 0, ks * np.log(mu), 0.0)
    cdf = np.cumsum(np.exp(k_log_mu - mu - log_factorial), axis=1)
    return cdf / cdf[:, -1:]


# A band of the threshold curve holds the windows whose kmax is at most this many times
# its least one's: 3 bands at the reference budget, 2 at the projection's.
_BAND_RATIO = 4
# The most entries of the threshold law's ln k! table, which runs to the longest window's
# kmax. An entry costs one math.lgamma call and its share of the bands' CDF rows, about
# 0.5 us and 140 B (2-vCPU Xeon, numpy 2.4): a curve at the limit took 0.51 s and 150 MB.
# It covers windows up to about 89 s at the reference budget; the presets take 837
# entries (fidelity), 474 (threshold at 25 ms) and 211 (projection).
_MAX_TABLE = 1 << 20
# ln k! for k = 0, 1, ..., from math.lgamma: built on first use, grown on demand and kept
# for the process (_log_factorials), read-only
_log_factorial_table = None


class TableBoundError(ValueError):
    """A threshold law whose ln k! table would hold more than _MAX_TABLE entries."""


def threshold_kmax(ion_rate: float, windows) -> np.ndarray:
    """Each window's largest candidate threshold, 10 standard deviations above its
    ion-present mean; a TableBoundError if the ln k! table to the largest would hold
    more than _MAX_TABLE entries, raised before it is built."""
    windows = np.asarray(windows, dtype=float)
    mu1 = ion_rate * windows
    kmax = mu1 + 10.0 * np.sqrt(mu1) + 10
    if not kmax.max(initial=0) < _MAX_TABLE:  # written so that inf fails it
        raise TableBoundError(
            f"a window of {windows.max():.6g} s at {ion_rate:.6g} counts/s needs a ln k! table of "
            f"{np.floor(kmax.max()) + 1:.6g} entries, more than the limit of {_MAX_TABLE}"
        )
    return kmax.astype(np.int64)


def _log_factorials(size: int) -> np.ndarray:
    """ln k! for k = 0..size-1, each math.lgamma(k + 1): a view of the process's table, which
    grows to `size` entries first if it holds fewer. The caller bounds `size` (threshold_kmax)."""
    global _log_factorial_table
    have = 0 if _log_factorial_table is None else _log_factorial_table.size
    if size > have:
        more = np.fromiter(map(math.lgamma, range(have + 1, size + 1)), float, size - have)
        table = more if _log_factorial_table is None else np.concatenate((_log_factorial_table, more))
        table.flags.writeable = False
        _log_factorial_table = table
    return _log_factorial_table[:size]


def _threshold_optima(ion_rate: float, empty_rate: float, windows) -> tuple[np.ndarray, np.ndarray]:
    """Exact-Poisson optimal threshold and fidelity of the classify-if-count-exceeds-k
    rule for each window.

    A window's candidate thresholds k run to kmax, 10 standard deviations above
    its ion-present mean (threshold_kmax). The false alarm is 1 - CDF of the
    empty mean, so equal rates give exactly 0.5. The windows go in bands of
    similar kmax (_BAND_RATIO), and a band's CDF rows run only to its own
    largest kmax, all from the process's table of ln k! (_log_factorials). A
    row's cumsum up to k does not depend on how far the row runs, and the terms
    past a band's width, over 10 standard deviations above every mean in it,
    are below half an ulp of the sum they would join, so its last entry, the
    divisor, does not either: every value equals the one a row run to the
    largest kmax of all windows gives, to the bit.
    """
    if not ion_rate >= empty_rate >= 0:
        raise ValueError("rate ordering violated: require ion_rate >= empty_rate >= 0")
    windows = np.asarray(windows, dtype=float)
    if not np.all(windows > 0):
        raise ValueError("window must be > 0")
    kmax = threshold_kmax(ion_rate, windows)
    mu1 = ion_rate * windows
    mu0 = empty_rate * windows
    log_factorial = _log_factorials(int(kmax.max(initial=0)) + 1)
    best = np.empty(windows.size, dtype=np.intp)
    best_fid = np.empty(windows.size)
    order = np.argsort(kmax, kind="stable")
    ascending = kmax[order]
    first = 0
    while first < order.size:
        end = int(np.searchsorted(ascending, _BAND_RATIO * ascending[first], side="right"))
        band, width = order[first:end], int(ascending[end - 1]) + 1
        cdf = _poisson_cdf(np.concatenate((mu1[band], mu0[band])), log_factorial[:width])
        fid = _fidelity_by_threshold(cdf[: band.size], 1.0 - cdf[band.size :])
        fid[np.arange(width) > kmax[band, None]] = -np.inf
        best[band] = np.argmax(fid, axis=1)
        best_fid[band] = fid[np.arange(band.size), best[band]]
        first = end
    return best, best_fid


def analytic_threshold_fidelity(ion_rate: float, empty_rate: float, window: float) -> tuple[int, float]:
    """Exact-Poisson optimal threshold and fidelity for the same rule.

    Equal rates are the degenerate indistinguishable case and give exactly 0.5.
    """
    best, fid = _threshold_optima(ion_rate, empty_rate, [window])
    return int(best[0]), float(fid[0])


def _bin_log_likelihood_ratios(counts: np.ndarray, ion_rate: float, empty_rate: float, sub_bin: float) -> np.ndarray:
    """Per-bin log likelihood ratio ion vs empty for Poisson bin counts."""
    if empty_rate > 0:
        return counts * math.log(ion_rate / empty_rate) - (ion_rate - empty_rate) * sub_bin
    # empty hypothesis emits nothing: any count is decisive
    return np.where(counts > 0, np.inf, -ion_rate * sub_bin)


def _first_crossings(llr: np.ndarray, thresholds) -> np.ndarray:
    """For each row of llr (rows x bins) and each threshold, the first bin where |llr|
    reaches it, or the number of bins where it never does: a rows x thresholds array.

    Per threshold, argmax of the rows x bins boolean |llr| >= t is each row's first
    true bin, or bin 0 for a row with none; a row whose element at its argmax is
    false never reaches t.
    """
    magnitude = np.abs(llr)
    rows = np.arange(llr.shape[0])
    first = np.empty((llr.shape[0], len(thresholds)), dtype=np.intp)
    for j, t in enumerate(thresholds):
        reached = magnitude >= t
        at = reached.argmax(axis=1)
        at[~reached[rows, at]] = llr.shape[1]
        first[:, j] = at
    return first


def wald_bound(ion_rate: float, empty_rate: float, error: float) -> tuple[float, float]:
    """Sequential-analysis lower bounds on mean decision time under each hypothesis.

    ln((1-error)/error) divided by the per-second KL divergence rate between
    the two Poisson processes.
    """
    if not ion_rate > empty_rate > 0:
        raise ValueError("require ion_rate > empty_rate > 0")
    if not 0.0 < error < 0.5:
        raise ValueError("error must lie in (0, 0.5)")
    a = math.log((1.0 - error) / error)
    d_ion = ion_rate * math.log(ion_rate / empty_rate) - ion_rate + empty_rate
    d_empty = empty_rate * math.log(empty_rate / ion_rate) + ion_rate - empty_rate
    if not (d_ion > 0 and d_empty > 0):  # rates within rounding of each other cancel to 0, or below it
        raise ValueError(
            f"the KL divergence rates {d_ion:g} and {d_empty:g} /s between ion_rate {ion_rate:g} /s"
            f" and empty_rate {empty_rate:g} /s round to <= 0"
        )
    return a / d_ion, a / d_empty


@dataclass(frozen=True)
class FidelityCurve:
    """Adaptive points (target, achieved fidelity, mean time) plus the fixed-window
    thresholding comparison curve (window, analytic fidelity)."""

    bayes: list[tuple[float, float, float]]
    threshold: list[tuple[float, float]]
    ion_rate: float
    empty_rate: float


# Trials drawn from one generator, [seed, hypothesis, chunk]: this constant fixes
# the sweep's random stream. A window of a chunk's undecided trials draws at most
# about 10k events at either preset with 256 trials, about 1 MiB with its spacings.
_CHUNK_TRIALS = 256
# The most chunks one stopping pass takes, so that its per-trial state (16 bytes a trial
# and 10 more per target) and its generators (about 1.7 KB each) stay bounded whatever
# the trial count. The presets take one pass each (80 and 158 chunks).
_PASS_CHUNKS = 256
# Bins in the first window of the early-exit log-odds pass; each next window is twice as wide.
_FIRST_WINDOW = 32
# The most bins a sweep may take. Its widest window is half of them: at 2^16 bins, a chunk's
# int64 counts in it are 256 x 32768, 64 MiB, and its log odds and their cumsum take as much
# each. A sweep at the limit with every trial undecided to the end peaked at 236 MB (2-vCPU
# Xeon, numpy 2.4). The presets take 500 and 1000 bins.
_MAX_BINS = 1 << 16


def fidelity_curve(
    scenario: Scenario,
    targets,
    trials: int,
    sub_bin: float = 100e-6,
    max_time: float = 50e-3,
) -> FidelityCurve:
    """Monte Carlo sweep of the adaptive detector over stopping targets.

    For each target, `trials` ion-present and `trials` ion-absent streams run
    through the sequential detector; streams are shared across targets so the
    sweep is smooth in the common randomness. Each target lies in (0.5, 1),
    0 < sub_bin <= max_time < inf, max_time holds at most _MAX_BINS bins
    (sweep_bins), and its threshold law's ln k! table at most _MAX_TABLE entries
    (threshold_kmax).

    Trials come in chunks of _CHUNK_TRIALS, each chunk drawing from its own
    generator, and the chunks of both hypotheses go through one stopping pass
    (_stopping_bins), up to _PASS_CHUNKS at a time, each pass's chunks made as
    it starts. The pass goes window by window, and the counter behind it
    (_window_counter) plans each window's slices of whole chunks and yields them
    one at a time. A slice draws each undecided trial's superposed process over
    the window's span only, in time order, bins it, and dead-time filters only
    the events close to their predecessor or in the trial's carried dead time.
    Every chunk makes the draws it would make on its own, so the slicing leaves
    every result bit-identical. Only the trials that drew an arrival in the
    window are binned and summed as rows of their own; the silent ones share
    one log-odds ramp per carried log odds (_stopping_bins), which is what each
    of them would have summed on its own. Memory is bounded by the counter's
    slice budgets and by the per-trial state of one pass; only counts of
    correct choices and sums of stopping bins outlive it.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("targets must be non-empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ion_rate, empty_rate = scenario.budget.ion_total(), scenario.budget.background_total()
    if not ion_rate > empty_rate:
        raise ValueError("scenario has no signal rate above background")
    # written so that NaN fails them; a target of 1 would divide by zero below
    if not all(0.5 < t < 1.0 for t in targets):
        raise ValueError("target_posterior must lie in (0.5, 1)")
    n_bins = sweep_bins(sub_bin, max_time)
    # the threshold curve draws nothing: taken first, a window past its table's limit is refused before any draw
    windows = np.geomspace(sub_bin, max_time, 25)
    _, thresh_fid = _threshold_optima(ion_rate, empty_rate, windows)
    thresholds = [math.log(t / (1.0 - t)) for t in targets]
    # per target: correct MAP choices per hypothesis (ion, then empty), and the sum of stopping bins + 1
    correct = np.zeros((len(targets), 2), dtype=np.int64)
    bins_used = np.zeros(len(targets), dtype=np.int64)
    chunks = (  # made pass by pass, so that no list of them grows with the trial count
        (ion_present, chunk, min(_CHUNK_TRIALS, trials - first))
        for ion_present in (True, False)
        for chunk, first in enumerate(range(0, trials, _CHUNK_TRIALS))
    )
    while part := list(itertools.islice(chunks, _PASS_CHUNKS)):
        sizes = [n for _, _, n in part]
        draws = [(ion, np.random.default_rng([scenario.rng_seed, int(ion), chunk]), n) for ion, chunk, n in part]
        counts = _window_counter(scenario, draws, sub_bin)
        stop, says_ion = _stopping_bins(counts, sum(sizes), n_bins, ion_rate, empty_rate, sub_bin, thresholds)
        ion_rows = np.repeat([ion for ion, _, _ in part], sizes)
        correct[:, 0] += np.count_nonzero(says_ion[ion_rows], axis=0)
        correct[:, 1] += np.count_nonzero(~says_ion[~ion_rows], axis=0)
        bins_used += (stop + 1).sum(axis=0)

    bayes_points = [
        (target, 0.5 * (int(ok[0]) / trials + int(ok[1]) / trials), float(int(used) * sub_bin / (2 * trials)))
        for target, ok, used in zip(targets, correct, bins_used)
    ]
    thresh_points = [(float(w), float(f)) for w, f in zip(windows, thresh_fid)]
    return FidelityCurve(bayes_points, thresh_points, ion_rate, empty_rate)


def sweep_bins(sub_bin: float, max_time: float) -> int:
    """The bins of sub_bin seconds that fit in max_time, at least one; a ValueError unless
    0 < sub_bin <= max_time < inf and they are at most _MAX_BINS, raised before any is made."""
    if not 0.0 < sub_bin <= max_time < math.inf:
        raise ValueError(f"require 0 < sub_bin <= max_time < inf, got sub_bin={sub_bin}, max_time={max_time}")
    bins = np.floor(max_time / sub_bin + 1e-9)
    if not bins <= _MAX_BINS:  # written so that inf fails it
        raise ValueError(f"max_time / sub_bin is {bins:.6g} bins, more than the limit of {_MAX_BINS}")
    return max(int(bins), 1)


def _stopping_bins(counts, n_rows: int, n_bins: int, ion_rate: float, empty_rate: float, sub_bin: float, thresholds):
    """Each of n_rows rows' stopping bin per threshold, and whether its log odds there favour
    the ion, as two rows x thresholds arrays; a row that never reaches a threshold stops at
    its last bin, n_bins - 1.

    counts(live, start, end) yields the counts of the rows `live` in bins
    start..end-1 slice by slice, as (rows, loud, counts): the slice's rows, a
    run of `live` in order, the ascending places in `rows` of the rows it
    counts, and their len(loud) x (end - start) matrix; every other row of
    `rows` is silent, with no count in the window. The slices cover `live`, and
    the counter (_window_counter) plans them. It is asked for windows of
    _FIRST_WINDOW bins, then twice as many, and so on, each starting where the
    last ended and each only for the rows still below some threshold, so its
    draw need go no further than that.

    The priors are equal, so a row's log odds after a bin are the cumsum of its
    _bin_log_likelihood_ratios up to that bin, and the result is
    _first_crossings of that cumsum over whole rows. Each row still below a
    threshold carries its log odds into the next window's first bin, so the
    sums are added in the same order as one cumsum over the row. Nothing else
    is carried: a row still below a threshold has reached it in no earlier
    bin, so its first crossing in this window is its first over the row. Rows
    are independent, so how a window is sliced changes no result. Silent rows
    whose carried log odds have the same bits have the same log odds in every
    bin of the window, so each such group shares one zero-count row of the
    matrix (_silent_ramps); a slice with no silent row takes the loud matrix
    as it is.
    """
    stop = np.empty((n_rows, len(thresholds)), dtype=np.int64)
    says_ion = np.empty((n_rows, len(thresholds)), dtype=bool)
    below = np.ones((n_rows, len(thresholds)), dtype=bool)  # not yet at the threshold
    total = np.zeros(n_rows)  # log odds so far
    live = np.arange(n_rows)  # rows below some threshold
    start, width = 0, _FIRST_WINDOW
    while live.size:
        end = min(start + width, n_bins)
        for rows, loud, window in counts(live, start, end):
            carried, place = total[rows], None  # place: each row's row of the matrix, when not its own
            if loud.size < rows.size:
                window, carried, place = _silent_ramps(loud, window, carried)
            per_bin = _bin_log_likelihood_ratios(window, ion_rate, empty_rate, sub_bin)
            del window  # the counts go once used, before the log odds' arrays are made
            per_bin[:, 0] += carried
            llr = np.cumsum(per_bin, axis=1)
            total[rows] = llr[:, -1] if place is None else llr[place, -1]
            crossing = _first_crossings(llr, thresholds)
            if end == n_bins:  # the rows left stop at the last bin
                crossing = np.minimum(crossing, end - start - 1)
            if place is not None:
                crossing = crossing[place]
            r, j = np.nonzero(below[rows] & (crossing < end - start))
            stop[rows[r], j] = start + crossing[r, j]
            says_ion[rows[r], j] = llr[r if place is None else place[r], crossing[r, j]] > 0
            below[rows[r], j] = False
        live = live[below[live].any(axis=1)]
        start, width = end, 2 * width
    return stop, says_ion


def _silent_ramps(loud: np.ndarray, window: np.ndarray, carried: np.ndarray):
    """The matrix of a slice with silent rows, its carried log odds and each row's row of it:
    the loud rows' counts (window, at the places `loud` in the slice), then one zero-count
    row for each distinct bit pattern of the silent rows' carried log odds."""
    silent = np.ones(carried.size, dtype=bool)
    silent[loud] = False
    bits, group = np.unique(carried[silent].view(np.int64), return_inverse=True)
    place = np.empty(carried.size, dtype=np.intp)
    place[loud] = np.arange(loud.size)
    place[silent] = loud.size + group
    window = np.concatenate((window, np.zeros((bits.size, window.shape[1]), dtype=window.dtype)))
    return window, np.concatenate((carried[loud], bits.view(float))), place


def projected_budget() -> RateBudget:
    """Detected-count budget for the improved-device projection: no laser scatter,
    reduced dark counts, higher collection efficiency."""
    return RateBudget(
        fluorescence=PROJECTED_EMISSION_RATE * PROJECTED_COLLECTION_EFFICIENCY * PROJECTED_QUANTUM_EFFICIENCY,
        dark_counts=PROJECTED_DARK_RATE,
    )


PROJECTION_TARGET_SWEEP = (0.990, 0.9925, 0.995, 0.9965, 0.9977, 0.9987)


def projected_scenario_fidelity(
    trials: int = PROJECTED_TRIALS, seed: int = PROJECTED_SEED, full_curve: bool = False
):
    """Fidelity/mean-time of the forward-projection scenario at its design point.

    Sweeps the stopping target and reports the sweep point whose mean decision
    time lands closest to the 75 us design time.
    """
    scenario = Scenario(budget=projected_budget(), trial_duration=PROJECTED_MAX_TIME, rng_seed=seed, dead_time=0.0)
    curve = fidelity_curve(
        scenario, PROJECTION_TARGET_SWEEP, trials, sub_bin=PROJECTED_SUB_BIN, max_time=PROJECTED_MAX_TIME
    )
    _, fid, mean_time = min(
        curve.bayes, key=lambda p: abs(p[2] - PROJECTED_TARGET_TIME)
    )
    if full_curve:
        return (fid, mean_time), curve
    return fid, mean_time
