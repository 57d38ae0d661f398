"""Event-stream generation: Poisson sources, Geiger-mode dead time, analog front end."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tables
from .model import BUDGET_SOURCES, SOURCE_LABELS, Scenario

NS = 1e-9

_EVENT_HEADER = "timestamp_ns,label"
_LABEL_CODES = {name: code for code, name in enumerate(SOURCE_LABELS)}
_WRITE_ROWS = 1 << 14  # events per block of CSV text
_READ_CHARS = 1 << 19  # characters per block of CSV text parsed as bytes, some 26k events
# The most events one draw may expect: about 24 bytes each (a sweep window's spacing sum, time
# and row), 0.8 GB, and a few times that while filtered; a 50 s stream holds about 585k.
_MAX_EVENTS = 1 << 25
# A sweep window's trials are drawn in slices of whole consecutive chunks (_window_counter),
# and each slice draws, bins and sums its log odds in one go. A slice grows while its
# expected events (trials x the window's span x their hypothesis's total rate, over its
# chunks) stay within _SLICE_EVENTS and its trials x bins within _SLICE_CELLS; a chunk past
# either budget is a slice of its own. These are the cells asked for, a bound on those
# built, since a silent trial builds none. At 2^14 events and 2^16 cells a slice holds about
# what one chunk does at worst at either preset, so a window's arrays stay about as large as
# one chunk's, while the per-slice calls are made fewer times: the projection preset takes
# 46 slices where chunk by chunk it took 426 windows, the fidelity preset 121 where it took 241.
_SLICE_EVENTS = 1 << 14
_SLICE_CELLS = 1 << 16
# The most windows one gating may make: some 0.5 GB in its few int64 arrays; 50 s in 25 ms gates make 2000
_MAX_GATES = 1 << 24


@dataclass(frozen=True)
class EventStream:
    """Timestamped detector events on a 1 ns grid.

    timestamps_ns are nonnegative, strictly increasing int64 nanoseconds, given as a
    1-D array of integers or of whole floats, not booleans; labels are a 1-D array of
    the same length, each an index into SOURCE_LABELS. duration is the covered span in
    seconds, finite and > 0. Any other value is a ValueError that names it: by its
    index, or for an array that is not 1-D, by the shapes.
    """

    timestamps_ns: np.ndarray
    labels: np.ndarray
    duration: float

    def __post_init__(self):
        ts, lb = np.asarray(self.timestamps_ns), np.asarray(self.labels)
        if ts.ndim != 1 or lb.ndim != 1:
            raise ValueError(f"timestamps and labels must be 1-D arrays, got shapes {ts.shape} and {lb.shape}")
        if ts.shape != lb.shape:
            raise ValueError("timestamps and labels must have equal length")
        if ts.dtype.kind == "b" or lb.dtype.kind == "b":  # not taken as 0 and 1
            raise ValueError(f"timestamps and labels must be numbers, got {ts.dtype} and {lb.dtype}")
        if ts.dtype.kind in "fuO":  # a float, uint64 or Python int stamp: not truncated, wrapped or overflowed
            whole = (ts >= -(2**63)) & (ts < 2**63) & (ts == np.floor(ts))  # NaN fails each test
            if not whole.all():
                i = int(whole.argmin())
                raise ValueError(f"timestamp {ts[i]} ns at index {i} is not a whole number of ns in int64")
        ts = ts.astype(np.int64, copy=False)
        # integer stamps and labels are checked by reductions; a failing place is searched for only then
        if ts.size and ts.min() < 0:
            i = int(np.flatnonzero(ts < 0)[0])
            raise ValueError(f"timestamp {ts[i]} ns at index {i} is negative")
        if lb.dtype.kind not in "iu" or lb.size and (lb.min() < 0 or lb.max() >= len(SOURCE_LABELS)):
            bad = (lb < 0) | (lb >= len(SOURCE_LABELS))
            if lb.dtype.kind == "f":  # a fractional label is no source index either, not one truncated
                bad |= lb != np.floor(lb)
            unknown = np.flatnonzero(bad)
            if unknown.size:
                i = int(unknown[0])
                raise ValueError(f"label {lb[i]} at index {i} is not a source index 0..{len(SOURCE_LABELS) - 1}")
        object.__setattr__(self, "timestamps_ns", ts)
        object.__setattr__(self, "labels", lb.astype(np.int8, copy=False))
        behind = ts[1:] <= ts[:-1]
        if behind.any():
            i = int(behind.argmax()) + 1
            raise ValueError(
                f"timestamp {ts[i]} ns at index {i} is not after {ts[i - 1]} ns at index {i - 1}: "
                "timestamps must be strictly increasing"
            )
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be > 0 and finite, got {self.duration}")

    def __len__(self):
        return self.timestamps_ns.size

    @property
    def times_s(self) -> np.ndarray:
        return self.timestamps_ns * NS

    def counts_by_source(self) -> dict[str, int]:
        return {name: np.count_nonzero(self.labels == code) for code, name in enumerate(SOURCE_LABELS)}

    def to_csv(self) -> str:
        """The event CSV text: its blocks are joined as bytes, which are dropped before the one
        decode, so the text is held at most twice."""
        parts = [_EVENT_HEADER.encode() + b"\n"]
        for start in range(0, len(self), _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            parts.append(_format_rows(self.timestamps_ns[block], self.labels[block]))
        text = b"".join(parts)
        del parts
        return text.decode("ascii")

    @classmethod
    def from_csv(cls, text: str, duration: float) -> "EventStream":
        """Text in the form to_csv writes, '#' lines ahead allowed, is parsed as bytes; any
        other text line by line by tables.read_rows, whose errors name the line."""
        columns = _parse_canonical(text)
        if columns is None:
            rows = list(tables.read_rows(text, "event CSV", _EVENT_HEADER, _event_row))
            columns = np.array(rows, dtype=np.int64).reshape(-1, 2).T
        return cls(*columns, duration)


def _event_row(fields: list[str]) -> tuple[int, int]:
    """One event CSV row: (timestamp, label code). A timestamp past int64 is a ValueError
    naming it, as an unknown label is."""
    stamp, name = fields
    if name not in _LABEL_CODES:
        raise ValueError(f"unknown source label {name!r}")
    t = int(stamp)
    if not -(2**63) <= t < 2**63:
        raise ValueError(f"timestamp {stamp.strip()} ns does not fit in int64")
    return t, _LABEL_CODES[name]


# The event CSV codec. A row is `<timestamp digits>,<label name>\n`. Each label's
# suffix `,<name>\n` is kept right-aligned in 16 NUL-padded bytes, and as the two
# little-endian words ending at its newline, with masks of the bytes it fills.
# The five names end in five different letters, so the byte before a row's
# newline names its label (_END_CODES, -1 for none), and the name's length
# places the comma (_COMMA_BACK, the comma's distance before the newline). The
# tables come from Python bytes and ints where they can: then an import loads no
# numpy arithmetic kernel, whose pages would count in every process's memory.
_SUFFIXES = [f",{name}\n".encode().rjust(16, b"\0") for name in SOURCE_LABELS]
_SUFFIX_BYTES = np.frombuffer(b"".join(_SUFFIXES), "V16")
_LAST_BYTES = [ord(name[-1]) for name in SOURCE_LABELS]
_END_CODES = np.array([_LAST_BYTES.index(b) if b in _LAST_BYTES else -1 for b in range(256)], np.int8)
_COMMA_BACK = np.array([len(name) + 1 for name in SOURCE_LABELS])


def _suffix_words(rows: list[bytes]) -> np.ndarray:
    """16-byte rows as their two little-endian words, nearest the row's end first: [k][code]."""
    return np.frombuffer(b"".join(rows), "<u8").reshape(-1, 2)[:, ::-1].T.copy()


_SUFFIX_WORDS = _suffix_words(_SUFFIXES)
_SUFFIX_MASKS = _suffix_words([bytes(b and 0xFF for b in x) for x in _SUFFIXES])
_MAX_DIGITS = 18  # the reader's longest timestamp: every one of 18 digits fits in int64
_BACK = 24  # zero bytes ahead of a block's rows: its first timestamp's three digit words reach that far
_GROUP_LIMITS = np.array([10**4, 10**8, 10**12, 10**16])  # the least stamps of 2, 3, 4 and 5 four-digit groups
_TOP_BYTES = np.array([(1 << 8 * m) - 1 << 64 - 8 * m for m in range(9)], "<u8")  # the m high bytes of a word
_TOP_ZEROS = np.array([top & 0x3030303030303030 for top in _TOP_BYTES.tolist()], "<u8")  # ASCII '0' in them


def _digit_quads() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32 each, and the same
    with leading zeros as NUL bytes (0 keeps its last '0')."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    quads[..., 0] = digits[:, None, None, None]
    quads[..., 1] = digits[:, None, None]
    quads[..., 2] = digits[:, None]
    quads[..., 3] = digits
    quads = quads.reshape(10_000, 4)
    lead = quads.copy()
    lead[:1000, 0] = lead[:100, 1] = lead[:10, 2] = 0
    return quads.view(np.uint32).ravel(), lead.view(np.uint32).ravel()


_DIGIT_QUADS, _LEAD_QUADS = _digit_quads()


def _format_rows(stamps: np.ndarray, labels: np.ndarray) -> bytes:
    """The event CSV rows of ascending nonnegative stamps and their label codes, as ASCII bytes.

    Row i is laid out in row i of a NUL-filled byte matrix: the timestamp in
    groups of four digits, right-aligned, then the label's suffix. A stamp's
    leading group comes from _LEAD_QUADS, whose leading zeros are NUL; the
    stamps ascend, so the rows whose leading group is the j-th from the right
    lie between the places of 10**(4j) and 10**(4j + 4) in them. Deleting
    every NUL joins the rows.
    """
    below = np.searchsorted(stamps, _GROUP_LIMITS).tolist() + [stamps.size]  # rows under 10**4, 10**8, ...
    groups = below.index(stamps.size) + 1
    rows = np.zeros((stamps.size, 4 * groups + 16), np.uint8)
    quads = rows.view(np.uint32)
    rest, lead = stamps, 0
    for j in range(groups):
        high = rest // 10_000
        low = rest - high * 10_000
        quads[lead : below[j], groups - 1 - j] = _LEAD_QUADS[low[lead : below[j]]]
        quads[below[j] :, groups - 1 - j] = _DIGIT_QUADS[low[below[j] :]]
        rest, lead = high, below[j]
    rows[:, 4 * groups :].view(_SUFFIX_BYTES.dtype)[:, 0] = np.take(_SUFFIX_BYTES, labels)
    return rows.tobytes().translate(None, b"\0")


def _parse_canonical(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(timestamps, label codes) of event CSV text in the form to_csv writes, or None.

    That form is ASCII: lines starting with '#', the header, then rows of 1 to
    _MAX_DIGITS digits, a comma and a label name, each line ending in "\n".
    Any other text is left to tables.read_rows. The rows are parsed as bytes,
    a block of about _READ_CHARS at a time.
    """
    if not text.isascii() or not text.endswith("\n"):
        return None
    start = 0
    while text.startswith("#", start):
        end = text.find("\n", start)
        if text[start:end].splitlines() != [text[start:end]]:  # another line break inside
            return None
        start = end + 1
    if not text.startswith(_EVENT_HEADER + "\n", start):
        return None
    start += len(_EVENT_HEADER) + 1
    blocks = []
    while start < len(text):
        end = text.find("\n", start + _READ_CHARS) + 1 or len(text)
        block = _parse_rows(text[start:end].encode("ascii"))
        if block is None:
            return None
        blocks.append(block)
        start = end
    if not blocks:
        return np.empty(0, np.int64), np.empty(0, np.int8)
    return tuple(np.concatenate(col) for col in zip(*blocks))


def _parse_rows(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(timestamps, label codes) of the rows of raw, which ends in a newline, or None unless
    each is `[0-9]{1,18},<label>\n`.

    raw goes behind _BACK zero bytes, read as the little-endian word at each byte
    offset. Only the newlines are searched for: the byte before each names its
    row's label, whose length places the comma. Each row's suffix is checked as
    the two words ending at its newline, and its digits are read from up to three
    words ending before its comma, eight digits per word by shifts and multiplies.
    """
    data = np.frombuffer(bytes(_BACK) + raw, np.uint8)
    words = np.lib.stride_tricks.sliding_window_view(data, 8).view("<u8")[:, 0]
    ends = np.flatnonzero(data == ord("\n"))
    codes = np.take(_END_CODES, data[ends - 1])
    if codes.min() < 0:
        return None
    commas = ends - np.take(_COMMA_BACK, codes)
    ndigits = commas - np.append(_BACK - 1, ends[:-1]) - 1
    fewest, most = int(ndigits.min()), int(ndigits.max())
    if fewest < 1 or most > _MAX_DIGITS:
        return None
    for word, mask, suffix in zip((words[ends - 7], words[ends - 15]), _SUFFIX_MASKS, _SUFFIX_WORDS):
        if np.any(word & np.take(mask, codes) != np.take(suffix, codes)):
            return None
    # the labels and the zero bytes hold no digit, so the count is right iff the rest of each row is digits
    if np.count_nonzero(data - ord("0") < 10) != ndigits.sum():
        return None
    stamps = np.zeros(commas.size, np.uint64)
    for k in range(-(-most // 8)):
        # the digits in word k: one number for a block of stamps of one width, as most blocks are
        valid = min(most - 8 * k, 8) if fewest == most else np.clip(ndigits - 8 * k, 0, 8)
        v = (words[commas - 8 * (k + 1)] & _TOP_BYTES[valid]) - _TOP_ZEROS[valid]
        # the first digit is the lowest byte: pair digits, then pairs, then quads
        v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
        v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
        v = (v * 10_000 + (v >> 32)) & 0xFFFFFFFF
        stamps += v * 10 ** (8 * k)
    return stamps.view(np.int64), codes


def apply_dead_time(times_ns: np.ndarray, labels: np.ndarray, dead_ns: int):
    """Nonparalyzable filter on ascending times_ns: keep an event iff it is >= dead_ns
    (and >= 1 ns) after the last kept one (_dead_time_drops)."""
    keep = np.ones(times_ns.size, dtype=bool)
    keep[_dropped(times_ns, dead_ns)] = False
    return times_ns[keep], labels[keep]


def _dropped(times_ns: np.ndarray, dead_ns: int) -> np.ndarray:
    """The ascending places of the events of ascending times_ns that apply_dead_time drops."""
    gap = _dead_gap_ns(dead_ns)
    return _dead_time_drops(times_ns, np.flatnonzero(np.diff(times_ns) < gap) + 1, gap)


def _dead_time_drops(times_ns: np.ndarray, close: np.ndarray, gap: int) -> np.ndarray:
    """The ascending places of the events the nonparalyzable filter drops: those in `close`, the
    ascending places of the events less than gap after their predecessor in the same run (a
    run's times ascending), that are less than gap after the last kept event of their run.

    An event that is not close to its predecessor is always kept, and one close
    to a kept predecessor is always dropped. So the first close event of each
    chain is dropped after a kept one, and only the events whose predecessor is
    close too are walked in order.
    """
    chained = np.flatnonzero(np.diff(close) == 1) + 1  # the places in `close` of those events
    if not chained.size:
        return close
    dropped = np.ones(close.size, dtype=bool)
    walked = -1
    at = close[chained]
    for j, i, t, before in zip(chained.tolist(), at.tolist(), times_ns[at].tolist(), times_ns[at - 2].tolist()):
        if i - 1 != walked:  # event i - 1 starts the chain: dropped after the kept event i - 2
            last = before
        if t - last >= gap:
            dropped[j] = False
            last = t
        walked = i
    return close[dropped]


def _dead_gap_ns(dead_ns: int) -> int:
    """The least gap between kept events: the dead time, but at least the 1 ns grid."""
    return max(int(dead_ns), 1)


def _dead_ns(scenario: Scenario) -> int:
    """The scenario's dead time on the 1 ns grid."""
    return int(round(scenario.dead_time / NS))


class EventBoundError(ValueError):
    """A draw that expects more than _MAX_EVENTS events."""


def _rates(scenario: Scenario, ion_present: bool, span: float, n: int = 1) -> list[float]:
    """The budget's rates in BUDGET_SOURCES order, fluorescence only when ion_present; a draw
    of n rows over `span` seconds expecting over _MAX_EVENTS events is refused before it starts,
    with an EventBoundError."""
    rates = [getattr(scenario.budget, s) if ion_present or s != "fluorescence" else 0.0 for s in BUDGET_SOURCES]
    expected = sum(rates) * span * n
    if expected > _MAX_EVENTS:
        raise EventBoundError(
            f"{expected:.3g} events expected in one draw (total rate x span x rows), "
            f"more than the limit of {_MAX_EVENTS}"
        )
    return rates


def _ordered_arrivals(scenario: Scenario, draws, start: float, end: float):
    """The superposed Poisson arrivals over [start, end) seconds, before dead time, of the rows
    of `draws`, a sequence of (ion_present, rng, n): n rows of that hypothesis drawn from rng,
    numbered draw after draw. Returns float times in seconds, row after row, ascending within
    each row, and each row's number of them.

    Each draw makes two calls on its own generator: its rows' counts at the total rate, then
    the exponential spacings of all its rows, k + 1 for a row of k, whose partial sums over
    their total are k sorted uniforms on [0, 1) (Devroye 1986, ch. V): nothing is sorted.
    The partial sums run within each draw, into its own part of one buffer, so a draw's sums
    do not depend on the draws beside it; the rest runs once over every draw's rows.
    """
    span = end - start
    per_draw = [
        rng.poisson(sum(_rates(scenario, ion_present, span, n)) * span, size=n) for ion_present, rng, n in draws
    ]
    per_row = np.concatenate(per_draw)
    sums = np.empty(per_row.sum() + per_row.size)
    at = 0
    for (_, rng, n), counts in zip(draws, per_draw):
        size = int(counts.sum()) + n
        np.cumsum(rng.standard_exponential(size), out=sums[at : at + size])
        at += size
    ends = np.cumsum(per_row + 1) - 1  # each row's last spacing
    base = np.append(0.0, sums[ends[:-1]])  # the sum before each row's first spacing, in its draw
    base[np.cumsum([0] + [n for _, _, n in draws[:-1]])] = 0.0  # a draw's first row: its sums start at 0
    inner = np.ones(sums.size, dtype=bool)
    inner[ends] = False
    fractions = (sums[inner] - np.repeat(base, per_row)) / np.repeat(sums[ends] - base, per_row)
    return start + (end - start) * fractions, per_row


def simulate_stream(scenario: Scenario, ion_present: bool) -> EventStream:
    """Superpose the budget's homogeneous Poisson sources into one stream filtered by the
    scenario's dead time.

    Fluorescence contributes only when ion_present. The sources superpose into one
    Poisson process at the total rate whose events take independent labels by rate
    share (Kingman 1993), so one draw serves them all: the arrival times
    (_arrival_times), then one uniform per event, whose label is the number of the
    four interior cumulative rate shares at or below it. Nothing is sorted, and a
    source of zero rate is never drawn. Deterministic given the scenario seed and
    ion_present, which seed the draw together, so the two hypotheses' streams are
    independent.
    """
    rates = _rates(scenario, ion_present, scenario.trial_duration)
    total = sum(rates)
    rng, t_ns = _arrival_times(scenario, ion_present, total)
    n = t_ns.size
    u = rng.random(n)
    labels = np.zeros(n, dtype=np.int8)
    for cumulative in accumulate(rates[:-1]) if n else ():  # no events: no shares, and maybe no rate
        labels += u >= cumulative / total
    del u  # each temporary goes once it is used up: the draw peaks at the dead-time filter
    t_ns, labels = apply_dead_time(t_ns, labels, _dead_ns(scenario))
    return EventStream(t_ns, labels, scenario.trial_duration)


def _arrival_times(scenario: Scenario, ion_present: bool, total: float) -> tuple[np.random.Generator, np.ndarray]:
    """The generator of the scenario's stream under ion_present, and the stream's arrival times
    at the total rate, rounded to the 1 ns grid, before dead time; the generator is left where
    the stream's label uniforms start.

    A count at the total rate, then count + 1 exponential spacings, whose partial sums over
    their total, times the span, are the count's sorted uniform times (Devroye 1986, ch. V).
    This is _ordered_arrivals' law for one row, drawn in place: that function's per-row sums
    and compress would cost a stream more memory and time.
    """
    rng, span = np.random.default_rng([scenario.rng_seed, int(ion_present)]), scenario.trial_duration
    t = rng.standard_exponential(rng.poisson(total * span) + 1)
    np.cumsum(t, out=t)
    t *= span / NS / t[-1]
    return rng, np.round(t[:-1], out=t[:-1]).astype(np.int64)


def _window_counter(scenario: Scenario, chunks, width: float):
    """Dead-time-filtered counts in bins of `width` seconds of the trials of `chunks`, drawn
    one window at a time, slice by slice, as they are asked for.

    chunks is a sequence of (ion_present, rng, n_rows): n_rows trials of that hypothesis,
    drawn from rng; the trials are numbered chunk after chunk. Returns counts(live, start,
    end), which yields the counts of the trials `live` (ascending) in bins start..end-1 as
    (rows, loud, counts), one slice at a time. The slices' rows are `live` cut into whole
    consecutive chunks: a slice takes the next chunk while its expected events (each
    chunk's trials x its total rate, _rates, x the window's span) and its trials x bins
    stay within _SLICE_EVENTS and _SLICE_CELLS, and holds at least one chunk. loud holds
    the ascending places in `rows` of the trials that drew at least one arrival in the
    window, and counts is their len(loud) x (end - start) matrix. Every other trial is
    silent, with no count in any bin of the window, and costs no cell; a trial whose
    arrivals all fell in its carried dead time stays loud, with a zero row. A trial is
    asked for consecutive windows, each starting where its last one ended. A slice draws
    the arrivals of its rows over [start * width, end * width) only, row after row, each
    chunk's from its own generator (_ordered_arrivals), and bins each on its drawn time,
    half-open, so every arrival is counted in exactly one window. Poisson arrivals in
    disjoint windows are independent, and a trial's last kept time is all the dead-time
    filter carries from one window to the next (_window_drops), so the counts are
    distributed as whole trials' counts; a dropped event is counted in a spare bin past the
    matrix. A chunk's trials asked for a window all come in one slice, so the chunk makes
    the draws it would make on its own, whichever chunks share the slice.
    """
    gap = _dead_gap_ns(_dead_ns(scenario))
    firsts = np.cumsum([0] + [n for _, _, n in chunks])  # each chunk's first trial, then the total
    # each chunk's total rate, for the slice budgets (over a span of 0 s: each draw is bounded on its own)
    rates = np.array([sum(_rates(scenario, ion_present, 0.0)) for ion_present, _, _ in chunks])
    last_ns = np.full(firsts[-1], -gap, dtype=np.int64)  # nothing kept yet

    def slice_counts(rows: np.ndarray, draws, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        n_bins, lo = end - start, start * width
        t, per_row = _ordered_arrivals(scenario, draws, lo, end * width)
        if np.count_nonzero(per_row) < rows.size:  # a silent row keeps its last kept time and takes no cell
            loud = np.flatnonzero(per_row)
            rows, per_row = rows[loud], per_row[loud]
        else:
            loud = np.arange(rows.size)
        cells = rows.size * n_bins
        flat = np.minimum(((t - lo) / width).astype(np.int64), n_bins - 1)  # rounding may reach `end`
        flat += np.repeat(np.arange(0, cells, n_bins), per_row)  # row * n_bins + bin
        carry = last_ns[rows]
        flat[_window_drops(np.round(t / NS).astype(np.int64), per_row, carry, gap)] = cells
        last_ns[rows] = carry
        return loud, np.bincount(flat, minlength=cells + 1)[:cells].reshape(rows.size, n_bins)

    def counts(live: np.ndarray, start: int, end: int):
        n_bins = end - start
        places = np.searchsorted(live, firsts)  # where each chunk's trials begin in live, then its end
        per_chunk = np.diff(places)
        touched = np.flatnonzero(per_chunk)
        expected = (per_chunk * rates * (n_bins * width))[touched]
        slices, events, cells = [], 0.0, 0  # each slice's chunks, as (chunk, trials)
        for c, n, e in zip(touched.tolist(), per_chunk[touched].tolist(), expected.tolist()):
            if not slices or events + e > _SLICE_EVENTS or cells + n * n_bins > _SLICE_CELLS:
                slices.append([])
                events, cells = 0.0, 0
            slices[-1].append((c, n))
            events += e
            cells += n * n_bins
        for part in slices:
            rows = live[places[part[0][0]] : places[part[-1][0] + 1]]
            # the counts go to the caller alone, so it can drop them once used
            yield rows, *slice_counts(rows, [(*chunks[c][:2], n) for c, n in part], start, end)

    return counts


def _window_drops(times_ns: np.ndarray, per_row: np.ndarray, last_ns: np.ndarray, gap: int) -> np.ndarray:
    """The ascending places of the events the filter drops from one window's per_row[r] events of
    each row r, laid row after row and each row's ascending, continuing from last_ns[r], row r's
    last kept time, which is updated in place. The events inside a row's carried dead time are
    a prefix of it, searched for only in the rows that start with one, and the next is kept, as
    in one pass over the row's windows joined. The filter then walks only the events less than
    the gap after their predecessor in their row (_dead_time_drops).
    """
    if not times_ns.size:
        return times_ns
    ends = np.cumsum(per_row)
    heads = ends - per_row  # each row's first place; for a row with none, the next row's
    close = np.zeros(times_ns.size + 1, dtype=bool)  # close[i]: event i is close; one spare past the end
    np.less(np.diff(times_ns), gap, out=close[1:-1])
    close[heads] = False
    prefix = ends[:0]
    if last_ns.max() + gap > times_ns.min():  # else no event is inside its row's carried dead time
        hit = np.flatnonzero(np.take(times_ns, heads, mode="clip") - last_ns < gap)  # a row with none has no place
        n = per_row[hit]
        places = np.arange(n.sum()) + np.repeat(heads[hit] - (np.cumsum(n) - n), n)  # the hit rows' events
        prefix = places[times_ns[places] < np.repeat(last_ns[hit] + gap, n)]
        close[prefix] = close[prefix + 1] = False
    dropped = _dead_time_drops(times_ns, np.flatnonzero(close), gap)
    dropped = np.union1d(prefix, dropped) if prefix.size else dropped
    last = ends - 1
    if dropped.size:
        below = np.searchsorted(dropped, last, side="right")  # the drops at or before each row's last event
        # a place less its rank in `dropped` is constant along, and only along, a run of consecutive drops
        last -= below - np.searchsorted(dropped - np.arange(dropped.size), last - below + 1)
    np.copyto(last_ns, times_ns[last], where=last >= heads)
    return dropped


class GateError(ValueError):
    """A gate that cannot partition the stream's duration into windows."""


def gate_and_count(scenario: Scenario, ion_present: bool, gate: float) -> np.ndarray:
    """Counts in consecutive windows of length gate partitioning [0, trial_duration) of the
    scenario's stream under ion_present: the arrival times simulate_stream draws, with no label
    drawn, less those the same dead-time walk drops, so they count its timestamps to the bit.

    gate is in seconds, finite and > 0; any other value is a GateError (a ValueError) that
    names it. More than _MAX_GATES windows are a GateError too. The event bound, then the
    gate, are checked before anything is drawn.
    """
    total = sum(_rates(scenario, ion_present, scenario.trial_duration))
    n_gates = _gate_count(scenario.trial_duration, gate)
    _, t_ns = _arrival_times(scenario, ion_present, total)
    return _bin_counts(t_ns, gate, n_gates) - _bin_counts(t_ns[_dropped(t_ns, _dead_ns(scenario))], gate, n_gates)


def _gate_count(duration: float, gate: float) -> int:
    """The number of whole windows of length gate in duration, or a GateError naming the gate."""
    if not 0 < gate < math.inf:
        raise GateError(f"gate must be > 0 and finite, got {gate}")
    gates = np.floor(duration / gate + 1e-9)
    if not gates <= _MAX_GATES:  # written so that inf fails it
        raise GateError(f"{gates:.3g} gates of {gate:g} s, more than the limit of {_MAX_GATES}")
    if gates < 1:
        raise GateError("gate is longer than the stream duration")
    return int(gates)


def _bin_counts(timestamps_ns: np.ndarray, width: float, n: int) -> np.ndarray:
    """Events in each of n consecutive windows of `width` seconds starting at 0, from
    ascending timestamps_ns.

    The windows are half-open except the last, which also takes its closing
    edge (as np.histogram does). The timestamps are in order already, so the
    n + 1 edges are searched in them, not each event in the edges: a window's
    count is the number of events before its closing edge less those before
    its opening one, and the last closing edge counts the events on it too.
    """
    edges_ns = np.round(np.arange(n + 1) * width / NS).astype(np.int64)
    below = np.searchsorted(timestamps_ns, edges_ns, side="left")
    below[-1] = np.searchsorted(timestamps_ns, edges_ns[-1], side="right")
    return np.diff(below)


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
        # each test is written so that NaN fails it
        for name in ("schmitt_high", "schmitt_low"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.schmitt_high > self.schmitt_low > 0:
            raise ValueError("require schmitt_high > schmitt_low > 0")
        if not 0 < self.pulse_time_constant < math.inf:
            raise ValueError(f"pulse_time_constant must be finite and > 0, got {self.pulse_time_constant}")
        if not 0 < self.lowpass_cutoff < math.inf:
            raise ValueError(f"lowpass_cutoff must be finite and > 0, got {self.lowpass_cutoff}")
        if not math.isfinite(self.rf_frequency):
            raise ValueError(f"rf_frequency must be finite, got {self.rf_frequency}")
        lo, hi = self.pulse_amplitude_range
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"pulse_amplitude_range must be finite, ordered and nonnegative, got {(lo, hi)}")
        if not 0 <= self.rf_pickup_amplitude < math.inf:
            raise ValueError(f"rf_pickup_amplitude must be finite and >= 0, got {self.rf_pickup_amplitude}")


# Samples per block of the first-order scan, and the least a**block it allows, so that
# the a**-j it multiplies by stays far below overflow.
_SCAN_BLOCK = 1024
_SCAN_FLOOR = 1e-150
# The most samples one front-end render may hold: 1 GB at the 16 bytes a sample of its time
# axis and waveform, where the render peaks; a second at 50 MS/s is 50M samples.
_MAX_SAMPLES = 1 << 26


def _first_order(y: np.ndarray, a: float, b: float) -> None:
    """y[n] = a * y[n - 1] + b * x[n] from y[-1] = 0, for 0 <= a <= 1, as a blocked scan in
    place: y holds x on entry and the output on return. Its size must be a whole number of
    _SCAN_BLOCKs. The scan is causal, so a caller pads its samples with any finite values
    and reads the first ones back as if unpadded.

    Within a block that starts after state c, y at its j-th sample is
    a**j * (a * c + cumsum(b * x * a**-i)[j]). Each block's last y from a zero
    state is its row sum times a**(block - 1), so a loop over the blocks gives
    every c before the one cumsum. The block is the largest power of two up to
    _SCAN_BLOCK with a**block >= _SCAN_FLOOR: 1024 for both filters at 50 MS/s,
    512 at the low-pass's 10x sample-rate floor (a = e**(-2 pi / 10)), and 1 at
    a = 0.
    """
    block = _SCAN_BLOCK
    while block > 1 and a**block < _SCAN_FLOOR:
        block //= 2
    j = np.arange(block)
    y = y.reshape(-1, block)
    y *= b * a**-j
    ends = (y.sum(axis=1) * a ** (block - 1)).tolist()
    across = a**block
    entering = list(accumulate(ends, lambda c, end: end + across * c, initial=0.0))[:-1]
    y[:, 0] += a * np.array(entering)
    np.cumsum(y, axis=1, out=y)
    y *= a**j


def _schmitt_crossings(wave: np.ndarray, high: float, low: float) -> np.ndarray:
    """Indices of rising crossings of `high`, re-armed only after dropping below `low`.

    Samples at or above `high` are labelled +1 and samples below `low` -1; a
    crossing is the start of a run of +1 whose previous run of nonzero labels
    is -1, or the first such run.
    """
    label = (wave >= high).astype(np.int8) - (wave < low)
    starts = np.flatnonzero(np.diff(label, prepend=np.int8(0)))  # every run's start but a first run of 0
    starts = starts[label[starts] != 0]
    return starts[np.diff(label[starts], prepend=-1) == 2]


def simulate_frontend(events: EventStream, params: FrontEndParams, sample_rate: float, rng=None):
    """Render the analog waveform for an event stream and redigitize it.

    Each event adds a single-exponential pulse with a uniformly drawn amplitude;
    the sum plus an rf sinusoid passes a first-order low-pass before the
    Schmitt trigger. Returns (time axis, waveform, digital EventStream).

    The render works in one float buffer of whole _SCAN_BLOCKs, which both
    scans overwrite in place; the waveform returned is a view of its first
    samples. It peaks at the time axis and waveform, 16 bytes a sample, and
    a render of more than _MAX_SAMPLES samples is refused before anything
    is drawn or allocated.
    """
    if not 10 * params.lowpass_cutoff <= sample_rate < math.inf:  # written so that NaN fails it
        raise ValueError(f"sample_rate must be finite and at least 10x the low-pass cutoff, got {sample_rate}")
    dt = 1.0 / sample_rate
    span = events.duration + 5 * params.pulse_time_constant
    samples = np.ceil(span / dt)
    if not samples <= _MAX_SAMPLES:  # written so that NaN fails it
        raise ValueError(
            f"{samples:.0f} samples to render ({sample_rate:g} samples/s over {span:g} s), "
            f"more than the limit of {_MAX_SAMPLES}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    n = int(samples)

    # each pulse is an impulse at its first sample, scaled by the decay since its
    # arrival, and the pulse decay is the one-pole filter over the impulse train
    lo, hi = params.pulse_amplitude_range
    amps = rng.uniform(lo, hi, size=len(events))
    tau = params.pulse_time_constant
    t0 = events.times_s
    i0 = np.ceil(t0 / dt).astype(np.int64)
    on = i0 < n
    weights = amps[on] * np.exp(-(i0[on] * dt - t0[on]) / tau)  # i0 * dt is the time axis at i0, to the bit
    # bincount gives int64 zeros for no events at all, and float64 for any
    wave = np.bincount(i0[on], weights, minlength=-(-n // _SCAN_BLOCK) * _SCAN_BLOCK).astype(float, copy=False)
    _first_order(wave, np.exp(-dt / tau), 1.0)

    if params.rf_pickup_amplitude > 0:
        pickup = _time_axis(n, dt)
        pickup *= 2 * np.pi * params.rf_frequency
        np.sin(pickup, out=pickup)
        pickup *= params.rf_pickup_amplitude
        wave[:n] += pickup
        del pickup  # so that it is not held beside the time axis allocated below

    # exact first-order low-pass discretization
    a = np.exp(-dt * 2 * np.pi * params.lowpass_cutoff)
    _first_order(wave, a, 1 - a)
    filtered = wave[:n]

    idx = _schmitt_crossings(filtered, params.schmitt_high, params.schmitt_low)
    ts_ns = np.round(idx * dt / NS).astype(np.int64)
    keep = np.concatenate(([True], np.diff(ts_ns) > 0)) if ts_ns.size else np.empty(0, dtype=bool)
    ts_ns = ts_ns[keep]
    digital = EventStream(ts_ns, np.zeros(ts_ns.size, dtype=np.int8), span)
    return _time_axis(n, dt), filtered, digital


def _time_axis(n: int, dt: float) -> np.ndarray:
    """np.arange(n) * dt to the bit, with no int64 arange beside it."""
    t = np.arange(n, dtype=float)
    t *= dt
    return t
