"""Event-stream generation: Poisson sources, Geiger-mode dead time, analog front end."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BUDGET_SOURCES, SOURCE_LABELS, Scenario
from .tables import read_rows

NS = 1e-9

_EVENT_HEADER = "timestamp_ns,label"
_LABEL_CODES = {name: code for code, name in enumerate(SOURCE_LABELS)}
_WRITE_ROWS = 1 << 14  # events per block of CSV text


@dataclass(frozen=True)
class EventStream:
    """Timestamped detector events on a 1 ns grid.

    timestamps_ns are nonnegative, strictly increasing int64 nanoseconds;
    labels index into SOURCE_LABELS. duration is the covered span in seconds.
    """

    timestamps_ns: np.ndarray
    labels: np.ndarray
    duration: float

    def __post_init__(self):
        ts = np.asarray(self.timestamps_ns, dtype=np.int64)
        lb = np.asarray(self.labels)
        if ts.shape != lb.shape:
            raise ValueError("timestamps and labels must have equal length")
        negative = np.flatnonzero(ts < 0)
        if negative.size:
            i = int(negative[0])
            raise ValueError(f"timestamp {ts[i]} ns at index {i} is negative")
        bad = (lb < 0) | (lb >= len(SOURCE_LABELS))
        if lb.dtype.kind == "f":  # a fractional label is no source index either, not one truncated
            bad |= lb != np.floor(lb)
        unknown = np.flatnonzero(bad)
        if unknown.size:
            i = int(unknown[0])
            raise ValueError(f"label {lb[i]} at index {i} is not a source index 0..{len(SOURCE_LABELS) - 1}")
        object.__setattr__(self, "timestamps_ns", ts)
        object.__setattr__(self, "labels", lb.astype(np.int8, copy=False))
        if np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")

    def __len__(self):
        return self.timestamps_ns.size

    @property
    def times_s(self) -> np.ndarray:
        return self.timestamps_ns * NS

    def counts_by_source(self) -> dict[str, int]:
        return dict(zip(SOURCE_LABELS, np.bincount(self.labels, minlength=len(SOURCE_LABELS)).tolist()))

    def to_csv(self) -> str:
        suffix = [f",{name}\n" for name in SOURCE_LABELS]
        parts = [_EVENT_HEADER + "\n"]
        for start in range(0, len(self), _WRITE_ROWS):
            stamps = self.timestamps_ns[start : start + _WRITE_ROWS].tolist()
            labels = self.labels[start : start + _WRITE_ROWS].tolist()
            parts.append("".join([f"{t}{suffix[l]}" for t, l in zip(stamps, labels)]))
        return "".join(parts)

    @classmethod
    def from_csv(cls, text: str, duration: float) -> "EventStream":
        blocks = list(read_rows(text, "event CSV", _EVENT_HEADER, _event_columns))
        ts, labels = (np.concatenate(col) for col in zip(*blocks)) if blocks else ([], [])
        return cls(ts, labels, duration)


def _event_columns(columns: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """One block of event CSV rows: (timestamps, label codes)."""
    stamps, names = columns
    try:
        codes = list(map(_LABEL_CODES.__getitem__, names))
    except KeyError as exc:
        raise ValueError(f"unknown source label {exc.args[0]!r}") from None
    return np.array(stamps, dtype=np.int64), np.array(codes, dtype=np.int8)


def apply_dead_time(times_ns: np.ndarray, labels: np.ndarray, dead_ns: int):
    """Nonparalyzable filter on ascending times_ns: keep an event iff it is >= dead_ns
    (and >= 1 ns) after the last kept one.

    An event at least that gap after its predecessor is always kept, so only
    the events closer than that to their predecessor are walked in order.
    """
    gap = _dead_gap_ns(dead_ns)
    close = np.flatnonzero(np.diff(times_ns) < gap) + 1
    drop = []
    last, dropped = 0, -1
    for i, t, prev in zip(close.tolist(), times_ns[close].tolist(), times_ns[close - 1].tolist()):
        if i - 1 != dropped:  # the predecessor was kept; otherwise the last kept time carries over
            last = prev
        if t - last < gap:
            drop.append(i)
            dropped = i
    keep = np.ones(times_ns.size, dtype=bool)
    keep[drop] = False
    return times_ns[keep], labels[keep]


def _dead_gap_ns(dead_ns: int) -> int:
    """The least gap between kept events: the dead time, but at least the 1 ns grid."""
    return max(int(dead_ns), 1)


def _dead_ns(scenario: Scenario) -> int:
    """The scenario's dead time on the 1 ns grid."""
    return int(round(scenario.dead_time / NS))


def _arrivals(scenario: Scenario, ion_present: bool, rng, n: int = 1):
    """n trials' superposed Poisson arrivals before dead time, unsorted: float times in
    seconds, source labels and trial rows.

    Fluorescence contributes only when ion_present. Each source with a
    positive rate draws the counts of all n trials in one call, then all their
    times in one call, in BUDGET_SOURCES order; its events come grouped by
    trial. With n = 1 that is one count and its times per source.
    """
    rates = [getattr(scenario.budget, name) for name in BUDGET_SOURCES]
    if not ion_present:
        rates[0] = 0.0  # fluorescence
    duration = scenario.trial_duration
    times, labels, rows = [np.empty(0)], [np.empty(0, dtype=np.int8)], [np.empty(0, dtype=np.int64)]
    for idx, rate in enumerate(rates):
        if rate > 0:
            counts = rng.poisson(rate * duration, size=n)
            times.append(rng.uniform(0.0, duration, size=int(counts.sum())))
            labels.append(np.full(times[-1].size, idx, dtype=np.int8))
            rows.append(np.repeat(np.arange(n), counts))
    return np.concatenate(times), np.concatenate(labels), np.concatenate(rows)


def simulate_stream(scenario: Scenario, ion_present: bool) -> EventStream:
    """Superpose the budget's homogeneous Poisson sources into one stream filtered by the
    scenario's dead time.

    Fluorescence contributes only when ion_present. Deterministic given the
    scenario seed.
    """
    t, labels, _ = _arrivals(scenario, ion_present, np.random.default_rng(scenario.rng_seed))
    # stable: events at equal float times keep their source order
    order = np.argsort(t, kind="stable")
    t_ns, labels = apply_dead_time(np.round(t[order] / NS).astype(np.int64), labels[order], _dead_ns(scenario))
    return EventStream(t_ns, labels, scenario.trial_duration)


def _chunk_counts(scenario: Scenario, ion_present: bool, rng, trials: int, width: float, n: int):
    """Dead-time-filtered counts in n windows of `width` seconds for `trials` trials drawn
    together from rng, as a trials x n matrix.

    Trial j is shifted by j spans. A span exceeds the trial duration by more
    than the dead-time gap, so one apply_dead_time pass over the joined trials
    is exact: no trial's dead time reaches into the next. One integer sort of
    the shifted nanosecond times orders the events by trial, then time: the
    order of events at equal times does not matter here, since only the times
    are kept.
    """
    dead_ns = _dead_ns(scenario)
    span = round(scenario.trial_duration / NS) + _dead_gap_ns(dead_ns) + 1
    t, _, rows = _arrivals(scenario, ion_present, rng, trials)
    t_ns = np.sort(np.round(t / NS).astype(np.int64) + rows * span)
    rows = t_ns // span
    # each event's trial rides through the filter as its label
    t_ns, rows = apply_dead_time(t_ns, rows, dead_ns)
    return _bin_counts(t_ns - rows * span, width, n, rows, trials)


def gate_and_count(stream: EventStream, gate: float) -> np.ndarray:
    """Counts in consecutive windows of length gate partitioning [0, duration)."""
    if gate <= 0:
        raise ValueError("gate must be > 0")
    n_gates = int(np.floor(stream.duration / gate + 1e-9))
    if n_gates < 1:
        raise ValueError("gate is longer than the stream duration")
    return _bin_counts(stream.timestamps_ns, gate, n_gates)


def _bin_counts(timestamps_ns: np.ndarray, width: float, n: int, rows: np.ndarray | None = None, n_rows: int = 1):
    """Events in each of n consecutive windows of `width` seconds starting at 0.

    The windows are half-open except the last, which also takes its closing
    edge (as np.histogram does). With `rows`, each event's row index below
    n_rows, the counts come back as an n_rows x n matrix.
    """
    if rows is None:  # one stream is a block of one row
        return _bin_counts(timestamps_ns, width, n, np.zeros(timestamps_ns.size, dtype=np.int64))[0]
    edges_ns = np.round(np.arange(n + 1) * width / NS).astype(np.int64)
    idx = np.searchsorted(edges_ns, timestamps_ns, side="right") - 1
    idx[timestamps_ns == edges_ns[-1]] = n - 1
    inside = (idx >= 0) & (idx < n)
    return np.bincount(rows[inside] * n + idx[inside], minlength=n_rows * n).reshape(n_rows, n)


@dataclass(frozen=True)
class FrontEndParams:
    """Analog chain: quench pulse shape, low-pass filter, rf pickup, Schmitt trigger."""

    pulse_amplitude_range: tuple[float, float] = (0.1, 0.5)
    pulse_time_constant: float = 0.5e-6
    lowpass_cutoff: float = 1.6e6
    rf_frequency: float = 17.7e6
    rf_pickup_amplitude: float = 0.0
    schmitt_high: float = 0.08
    schmitt_low: float = 0.04

    def __post_init__(self):
        if not self.schmitt_high > self.schmitt_low > 0:
            raise ValueError("require schmitt_high > schmitt_low > 0")
        if self.lowpass_cutoff <= 0:
            raise ValueError("lowpass_cutoff must be > 0")
        lo, hi = self.pulse_amplitude_range
        if lo < 0 or hi < lo:
            raise ValueError("pulse_amplitude_range must be ordered and nonnegative")
        if self.rf_pickup_amplitude < 0:
            raise ValueError("amplitudes must be >= 0")


def _schmitt_crossings(wave: np.ndarray, high: float, low: float) -> np.ndarray:
    """Indices of rising crossings of `high`, re-armed only after dropping below `low`.

    Samples at or above `high` are labelled +1 and samples below `low` -1; a
    crossing is a +1 whose previous label is -1, or the first label.
    """
    label = (wave >= high).astype(np.int8) - (wave < low)
    idx = np.flatnonzero(label)
    return idx[np.diff(label[idx], prepend=-1) == 2]


def simulate_frontend(events: EventStream, params: FrontEndParams, sample_rate: float, rng=None):
    """Render the analog waveform for an event stream and redigitize it.

    Each event adds a single-exponential pulse with a uniformly drawn amplitude;
    the sum plus an rf sinusoid passes a first-order low-pass before the
    Schmitt trigger. Returns (time axis, waveform, digital EventStream).
    """
    from scipy import signal

    if sample_rate < 10 * params.lowpass_cutoff:
        raise ValueError("sample_rate must be at least 10x the low-pass cutoff")
    if rng is None:
        rng = np.random.default_rng(0)
    dt = 1.0 / sample_rate
    span = events.duration + 5 * params.pulse_time_constant
    n = int(np.ceil(span / dt))
    t = np.arange(n) * dt

    # each pulse is an impulse at its first sample, scaled by the decay since its
    # arrival, and the pulse decay is the one-pole filter over the impulse train
    lo, hi = params.pulse_amplitude_range
    amps = rng.uniform(lo, hi, size=len(events))
    tau = params.pulse_time_constant
    t0 = events.times_s
    i0 = np.ceil(t0 / dt).astype(np.int64)
    on = i0 < n
    weights = amps[on] * np.exp(-(t[i0[on]] - t0[on]) / tau)
    impulses = np.bincount(i0[on], weights, minlength=n)
    wave = signal.lfilter([1.0], [1.0, -np.exp(-dt / tau)], impulses)

    if params.rf_pickup_amplitude > 0:
        wave = wave + params.rf_pickup_amplitude * np.sin(2 * np.pi * params.rf_frequency * t)

    # exact first-order low-pass discretization
    a = np.exp(-dt * 2 * np.pi * params.lowpass_cutoff)
    filtered = signal.lfilter([1 - a], [1, -a], wave)

    idx = _schmitt_crossings(filtered, params.schmitt_high, params.schmitt_low)
    ts_ns = np.round(idx * dt / NS).astype(np.int64)
    keep = np.concatenate(([True], np.diff(ts_ns) > 0)) if ts_ns.size else np.empty(0, dtype=bool)
    ts_ns = ts_ns[keep]
    digital = EventStream(ts_ns, np.zeros(ts_ns.size, dtype=np.int8), max(span, events.duration))
    return t, filtered, digital
