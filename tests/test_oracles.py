"""Property tests: each array-at-a-time stage against the per-element loop it replaced.

The loops below are the reference implementations: the per-event arrival
draw; the per-event dead-time filter, also for the window-by-window filter
with its carried last kept time; the sweep's window count with a row index
per event and a filter pass over every event, which the count that walks
only the close events replaced, and the one pass over an int64 (row, time)
key that the per-event pass replaced; np.histogram and the per-event edge search
for the binning; searchsorted on the sorted counts for the threshold rule's
empirical CDFs; the running max of |log odds| for the first crossings; the
threshold curve with every window's CDF rows run to the largest cutoff;
the per-event direct sum of exponential pulses, and scipy.signal's lfilter
for the first-order scan of both front-end filters; the per-edge Schmitt
trigger; scipy.special's pdtr and pdtrc for the Poisson law; the per-angle
2x2 transfer-matrix product, and the characteristic matrix in complex
arithmetic throughout (reference_optics), whose R the package's must equal to the bit; the
per-offset collection sum, with the reflection loss and without it; the
per-line table reader; and the per-row event CSV writer.

The sequential detector's one stopping rule in the package is the early-exit
pass `_stopping_bins` inside `fidelity_curve`. Its oracles live here: the
bin-by-bin scan `loop_detect`, run on one row and on every trial and target
of a sweep (`loop_fidelity_points`, which redraws the sweep's windows trial
by trial); the dense whole-row cumsum `dense_stopping_bins`; and, at zero
dead time, the exact solution `exact_sequential`, which the Monte Carlo is
checked against.
"""

import math
import re
import unittest.mock
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal
from scipy.special import pdtr, pdtrc

from spadsim import detection, simulator, tables
from spadsim.detection import (
    _CHUNK_TRIALS,
    _FIRST_WINDOW,
    PROJECTED_MAX_TIME,
    PROJECTION_TARGET_SWEEP,
    _bin_log_likelihood_ratios,
    _first_crossings,
    _poisson_cdf,
    _stopping_bins,
    _threshold_optima,
    fidelity_curve,
    projected_budget,
    projected_scenario_fidelity,
    threshold_fidelity,
)
from spadsim.model import BUDGET_SOURCES, SOURCE_LABELS, RateBudget, Scenario, table_budget
from spadsim import optics
from spadsim.optics import (
    ActiveAreaMap,
    DetectorGeometry,
    OpticalStack,
    ShadowingWarning,
    _reflectance_rows,
    efficiency_vs_offset,
    quarter_disc_map,
    stack_reflectance,
)
from spadsim.simulator import (
    _EVENT_HEADER,
    _SCAN_BLOCK,
    _SCAN_FLOOR,
    NS,
    EventStream,
    FrontEndParams,
    _bin_counts,
    _event_row,
    _first_order,
    _gate_count,
    _ordered_arrivals,
    _schmitt_crossings,
    _window_counter,
    _window_drops,
    apply_dead_time,
    gate_and_count,
    simulate_frontend,
    simulate_stream,
)

from reference_optics import aperture_filling_map, reference_amplitude_coeffs


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def log_factorials(kmax):
    """ln k! for k = 0..kmax."""
    return np.fromiter(map(math.lgamma, range(1, kmax + 2)), float, kmax + 1)


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


@st.composite
def window_cases(draw):
    """A dead time, window edges in ns, and per window the events of a few rows: (row, time)
    pairs in (row, time) order, each time inside its window's closed span.

    Windows run from one bin up, and the dead time from zero to several windows.
    A drawn time can round onto its window's closing edge, so the closed span
    lets a row's event share a time with the next window's first one.
    """
    bin_ns = draw(st.integers(1, 50))
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))  # in bins
    edges = bin_ns * np.cumsum([0, *widths])
    dead_ns = draw(st.one_of(st.sampled_from([0, 1, bin_ns, int(edges[-1])]), st.integers(0, 3 * int(edges[-1]))))
    n_rows = draw(st.integers(1, 4))
    windows = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        event = st.tuples(st.integers(0, n_rows - 1), st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)))
        windows.append(sorted(draw(st.lists(event, max_size=12))))
    return dead_ns, n_rows, windows


def window_rows(events, n_rows):
    """A window's (row, time) pairs, in (row, time) order, as the window filters take them:
    each event's row, the times, and each row's number of them."""
    rows = np.array([r for r, _ in events], dtype=np.int64)
    times = np.array([t for _, t in events], dtype=np.int64)
    return rows, times, np.bincount(rows, minlength=n_rows)


@settings(deadline=None, max_examples=300)
@given(case=window_cases())
# a dead time longer than the window it starts in, reaching into the next two
@example(case=(25, 2, [[(0, 10), (1, 3)], [(0, 20), (0, 35), (1, 19)], [(0, 40), (1, 30)]]))
# a time on a closing edge, then the same time opening the next window
@example(case=(0, 1, [[(0, 0), (0, 10)], [(0, 10), (0, 11)]]))
def test_windowed_dead_time_matches_joined_stream(case):
    """_window_drops window after window, each window's events row after row and each row's
    last kept time carried, keeps what apply_dead_time keeps on each row's windows joined
    into one stream."""
    dead_ns, n_rows, windows = case
    last_ns = np.full(n_rows, -max(dead_ns, 1), dtype=np.int64)
    kept = [[] for _ in range(n_rows)]
    joined = [[] for _ in range(n_rows)]  # per row: (time, id), windows in order
    ids = 0
    for events in windows:
        rows, times, per_row = window_rows(events, n_rows)
        dropped = _window_drops(times, per_row, last_ns, max(dead_ns, 1))
        assert np.all(np.diff(dropped) > 0)
        keep = np.ones(times.size, dtype=bool)
        keep[dropped] = False
        for r, t, k in zip(rows.tolist(), times.tolist(), keep.tolist()):
            joined[r].append((t, ids))
            if k:
                kept[r].append((t, ids))
            ids += 1
    for r in range(n_rows):
        t = np.array([e[0] for e in joined[r]], dtype=np.int64)
        want_t, want_l = apply_dead_time(t, np.array([e[1] for e in joined[r]], dtype=np.int64), dead_ns)
        assert kept[r] == list(zip(want_t.tolist(), want_l.tolist()))
        assert last_ns[r] == (want_t[-1] if want_t.size else -max(dead_ns, 1))


def reference_dead_time_keep(times_ns, close, gap):
    """Which events the nonparalyzable filter keeps, where close[i - 1] says event i is in the
    same run as event i - 1 and less than gap after it: each close event is dropped after a
    kept one, and the chained close events are walked in order."""
    keep = np.ones(times_ns.size, dtype=bool)
    keep[1:] = ~close
    chained = np.flatnonzero(close[1:] & close[:-1]) + 2
    walked = -1
    for i, t, before in zip(chained.tolist(), times_ns[chained].tolist(), times_ns[chained - 2].tolist()):
        if i - 1 != walked:  # event i - 1 starts the chain: dropped after the kept event i - 2
            last = before
        if t - last >= gap:
            keep[i] = True
            last = t
        walked = i
    return keep


def reference_carry_dead_time(times_ns, labels, rows, last_ns, dead_ns):
    """The window filter with a row index per event: apply_dead_time on each row's events in
    one window, continuing from last_ns[r], row r's last kept time before the window; last_ns
    is updated in place. The events come, and the kept labels and rows go, in (row, time)
    order. Events within the gap of their row's last kept time are dropped first, and the
    rest are close when less than the gap after their predecessor in the same row."""
    gap = max(int(dead_ns), 1)
    fresh = times_ns - last_ns[rows] >= gap
    if not fresh.all():
        times_ns, labels, rows = times_ns[fresh], labels[fresh], rows[fresh]
    if not times_ns.size:
        return labels, rows
    same_row = rows[1:] == rows[:-1]
    keep = reference_dead_time_keep(times_ns, (np.diff(times_ns) < gap) & same_row, gap)
    times_ns, labels, rows = times_ns[keep], labels[keep], rows[keep]
    row_ends = np.flatnonzero(np.append(rows[1:] != rows[:-1], True))
    last_ns[rows[row_ends]] = times_ns[row_ends]
    return labels, rows


def keyed_carry_dead_time(times_ns, labels, rows, last_ns, dead_ns):
    """reference_carry_dead_time as one apply_dead_time pass over an int64 (row, time) key: each
    row's times offset by the window's least, the rows laid end to end more than a gap
    apart, and the rows and last kept times taken back out of the kept keys."""
    gap = max(int(dead_ns), 1)
    fresh = times_ns - last_ns[rows] >= gap
    times_ns, labels, rows = times_ns[fresh], labels[fresh], rows[fresh]
    if not times_ns.size:
        return labels, rows
    lo = times_ns.min()
    span = times_ns.max() - lo + gap + 1
    key, labels = apply_dead_time(rows * span + (times_ns - lo), labels, dead_ns)
    rows = key // span
    row_ends = np.flatnonzero(np.append(rows[1:] != rows[:-1], True))
    last_ns[rows[row_ends]] = key[row_ends] - rows[row_ends] * span + lo
    return labels, rows


@settings(deadline=None, max_examples=300, derandomize=True)
@given(case=window_cases())
@example(case=(25, 2, [[(0, 10), (1, 3)], [(0, 20), (0, 35), (1, 19)], [(0, 40), (1, 30)]]))
# a chain across a window edge: row 0's kept 8 drops 11 and 15 in the next window, keeps 19,
# drops 22 and 27 (chained, 8 after 19) and keeps 30; row 1 has no event in the second window
@example(case=(10, 2, [[(0, 0), (0, 5), (0, 8), (1, 4)], [(0, 11), (0, 15), (0, 19), (0, 22), (0, 27), (0, 30)]]))
# every event fresh, and none: the second window lies wholly inside the dead time
@example(case=(5, 3, [[(0, 0), (1, 10), (2, 20)], [(0, 2), (1, 12), (2, 22)], []]))
def test_carry_dead_time_matches_keyed_reference(case):
    """The per-event window filter keeps the same labels and rows, and leaves the same last
    kept times, as the int64-key pass, window after window; _window_drops drops every other
    event and leaves the same last kept times."""
    dead_ns, n_rows, windows = case
    last_ns = np.full(n_rows, -max(dead_ns, 1), dtype=np.int64)
    want_last, drops_last = last_ns.copy(), last_ns.copy()
    ids = 0
    for events in windows:
        rows, times, per_row = window_rows(events, n_rows)
        labels = np.arange(ids, ids + len(events))
        ids += len(events)
        got = reference_carry_dead_time(times, labels, rows, last_ns, dead_ns)
        want = keyed_carry_dead_time(times, labels, rows, want_last, dead_ns)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.array_equal(last_ns, want_last)
        dropped = _window_drops(times, per_row, drops_last, max(dead_ns, 1))
        assert np.array_equal(np.delete(labels, dropped), got[0])
        assert np.array_equal(drops_last, last_ns)


def reference_ordered_arrivals(scenario, draws, start, end):
    """_ordered_arrivals with a row index per event: the float times row after row, and each
    one's row, each row's k sorted spacing sums gathered at their places in the buffer."""
    span = end - start
    per_draw = [
        rng.poisson(sum(simulator._rates(scenario, ion_present, span, n)) * span, size=n)
        for ion_present, rng, n in draws
    ]
    per_row = np.concatenate(per_draw)
    sums = np.empty(per_row.sum() + per_row.size)
    at = 0
    for (_, rng, n), counts in zip(draws, per_draw):
        size = int(counts.sum()) + n
        np.cumsum(rng.standard_exponential(size), out=sums[at : at + size])
        at += size
    rows = np.repeat(np.arange(per_row.size), per_row)
    ends = np.cumsum(per_row + 1) - 1
    base = np.append(0.0, sums[ends[:-1]])
    base[np.cumsum([0] + [n for _, _, n in draws[:-1]])] = 0.0
    fractions = (sums[np.arange(rows.size) + rows] - base[rows]) / (sums[ends] - base)[rows]
    return start + (end - start) * fractions, rows


def reference_window_counter(scenario, chunks, width, carries, drawn=None):
    """_window_counter with a row index per event and the per-event window filter
    (reference_carry_dead_time), as the dense len(rows) x bins matrix. Each call appends its
    rows' last kept times to carries, and to drawn, if given, their arrivals before dead time."""
    dead_ns = round(scenario.dead_time / NS)
    firsts = np.cumsum([0] + [n for _, _, n in chunks])
    last_ns = np.full(firsts[-1], -max(dead_ns, 1), dtype=np.int64)

    def counts(rows, start, end):
        n_bins, lo = end - start, start * width
        per_chunk = np.diff(np.searchsorted(rows, firsts))
        touched = np.flatnonzero(per_chunk).tolist()
        draws = [(*chunks[c][:2], n) for c, n in zip(touched, per_chunk[touched].tolist())]
        t, row = reference_ordered_arrivals(scenario, draws, lo, end * width)
        if drawn is not None:
            drawn.append(np.bincount(row, minlength=rows.size))
        bins = np.minimum(((t - lo) / width).astype(np.int64), n_bins - 1)
        carry = last_ns[rows]
        bins, row = reference_carry_dead_time(np.round(t / NS).astype(np.int64), bins, row, carry, dead_ns)
        last_ns[rows] = carry
        carries.append(carry.copy())
        return np.bincount(row * n_bins + bins, minlength=rows.size * n_bins).reshape(rows.size, n_bins)

    return counts


def dense_counter(counter):
    """A _window_counter counts(live, start, end), which yields (rows, loud, counts) slice by
    slice, each holding only its loud rows, as one that returns the len(live) x (end - start)
    matrix they stand for: the slices' rows in turn, silent rows zero."""

    def counts(live, start, end):
        dense = np.zeros((len(live), end - start), dtype=np.intp)
        at = 0
        for rows, loud, matrix in counter(live, start, end):
            dense[at + loud] = matrix
            at += rows.size
        return dense

    return counts


def carried_last_ns(counter):
    """The last kept time of every trial that a _window_counter counts(...) carries between
    calls: the array that its per-slice draw updates in place."""
    draw = counter.__closure__[counter.__code__.co_freevars.index("slice_counts")].cell_contents
    return draw.__closure__[draw.__code__.co_freevars.index("last_ns")].cell_contents


@st.composite
def sweep_cases(draw):
    """Rates, a dead time and a bin width for _window_counter, its chunks of trials, and the
    windows its trials are asked for: (events per trial per bin, the ion's share of them,
    dead time in bins, bin width, [(ion_present, trials)], seed, [(bins, [rows of each
    call])]).

    Bins run from 1 ns, where drawn times tie on the ns grid, up; the rates give from no
    event to a few per trial and bin; the dead time runs from none to several bins, so rows
    lie wholly inside their carried dead time and chains of close events cross window
    edges. Each window asks for some of the trials of the one before, in one call or split
    into several, as the sweep's slices do.
    """
    per_bin = draw(st.one_of(st.just(0.0), finite(0.0, 4.0)))
    share = draw(finite(0.0, 1.0))
    dead_bins = draw(st.one_of(st.sampled_from([0.0, 1.0]), finite(0.0, 6.0)))
    width = draw(st.one_of(st.sampled_from([1e-9, 3e-9]), finite(1e-9, 1e-4)))
    chunks = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 6)), min_size=1, max_size=4))
    live = list(range(sum(n for _, n in chunks)))
    schedule = []
    for _ in range(draw(st.integers(1, 6))):
        live = sorted(draw(st.lists(st.sampled_from(live), min_size=1, unique=True)))
        cuts = sorted(draw(st.sets(st.integers(1, len(live) - 1), max_size=2))) if len(live) > 1 else []
        schedule.append((draw(st.integers(1, 8)), [live[a:b] for a, b in zip([0, *cuts], [*cuts, len(live)])]))
    return per_bin, share, dead_bins, width, chunks, draw(st.integers(0, 2**32)), schedule


@settings(deadline=None, max_examples=200, derandomize=True)
@given(case=sweep_cases())
# no events at all, in every window
@example(case=(0.0, 0.5, 1.0, 1e-6, [(True, 3)], 1, [(2, [[0, 1, 2]]), (4, [[0, 2]])]))
# a dead time of six bins and windows of one: whole rows lie inside their carried dead time
@example(case=(3.0, 0.5, 6.0, 1e-6, [(True, 4), (False, 3)], 2, [(1, [list(range(7))])] * 2 + [(1, [[1, 5]])] * 4))
# a dead time of 1.5 bins over busy windows: chains of close events cross the window edges
@example(case=(4.0, 0.7, 1.5, 1e-6, [(True, 5), (False, 5)], 3, [(1, [list(range(5)), list(range(5, 10))])] * 5))
# 1 ns bins: drawn times tie on the grid at zero dead time, and an edge's time opens the next window
@example(case=(2.0, 0.5, 0.0, 1e-9, [(True, 6)], 4, [(3, [list(range(6))]), (2, [[0, 3, 4]]), (8, [[3]])]))
def test_window_counter_matches_per_event_reference(case):
    """_window_counter gives the counts, and leaves the last kept times, of the counter with
    a row index per event and the per-event window filter, call after call, to the bit."""
    per_bin, share, dead_bins, width, chunks, seed, schedule = case
    budget = RateBudget(fluorescence=share * per_bin / width, dark_counts=(1 - share) * per_bin / width)
    scenario = Scenario(budget=budget, rng_seed=seed, dead_time=dead_bins * width)

    def generators():
        return [(ion, np.random.default_rng([seed, c]), n) for c, (ion, n) in enumerate(chunks)]

    want_carries, got_carries = [], []
    want = reference_window_counter(scenario, generators(), width, want_carries)
    counter = _window_counter(scenario, generators(), width)
    got, last_ns = dense_counter(counter), carried_last_ns(counter)
    start = 0
    for bins, calls in schedule:
        for rows in calls:
            rows = np.array(rows)
            assert np.array_equal(got(rows, start, start + bins), want(rows, start, start + bins))
            got_carries.append(last_ns[rows].copy())  # silent rows too, which the filter never sees
            assert np.array_equal(got_carries[-1], want_carries[-1])
        start += bins
    assert len(got_carries) == len(want_carries) == sum(len(calls) for _, calls in schedule)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(case=sweep_cases())
# no events at all: every call is silent throughout
@example(case=(0.0, 0.5, 1.0, 1e-6, [(True, 3)], 1, [(2, [[0, 1, 2]]), (4, [[0, 2]])]))
# a sparse draw over windows of one bin: most trials are silent in most calls
@example(case=(0.05, 0.5, 0.0, 1e-6, [(True, 6), (False, 6)], 5, [(1, [list(range(12))])] * 4 + [(2, [[0, 4, 7, 11]])]))
# a dead time of six bins: trials whose only arrivals fall inside it are loud with a zero row
@example(case=(3.0, 0.5, 6.0, 1e-6, [(True, 4), (False, 3)], 2, [(1, [list(range(7))])] * 2 + [(1, [[1, 5]])] * 4))
def test_window_counter_counts_only_rows_that_drew(case):
    """Each call's loud rows are the ascending places of the trials that drew an arrival in the
    window, their matrix holds one row each, and scattered back into a dense matrix (silent rows
    zero) it is the per-event reference counter's, to the bit."""
    per_bin, share, dead_bins, width, chunks, seed, schedule = case
    budget = RateBudget(fluorescence=share * per_bin / width, dark_counts=(1 - share) * per_bin / width)
    scenario = Scenario(budget=budget, rng_seed=seed, dead_time=dead_bins * width)

    def generators():
        return [(ion, np.random.default_rng([seed, c]), n) for c, (ion, n) in enumerate(chunks)]

    drawn = []
    want = reference_window_counter(scenario, generators(), width, [], drawn)
    got = _window_counter(scenario, generators(), width)
    start = 0
    for bins, calls in schedule:
        for rows in calls:
            rows = np.array(rows)
            [(_, loud, counts)] = got(rows, start, start + bins)  # a few trials: one slice
            dense = want(rows, start, start + bins)
            assert np.array_equal(loud, np.flatnonzero(drawn[-1]))
            assert counts.shape == (loud.size, bins)
            assert np.array_equal(counts, dense[loud])
            assert not np.delete(dense, loud, axis=0).any()
        start += bins


def test_window_counter_keeps_trials_drawn_into_the_dead_time_loud():
    """A trial whose arrivals in a window all fall inside its carried dead time drew, so it is
    loud, with a zero row; a trial that drew nothing is silent. Six-bin dead time, one-bin windows."""
    budget = RateBudget(fluorescence=1.5e6, dark_counts=1.5e6)
    scenario = Scenario(budget=budget, rng_seed=2, dead_time=6e-6)
    counter = _window_counter(scenario, [(True, np.random.default_rng(2), 64)], 1e-6)
    rows = np.arange(64)
    zero_loud = silent = 0
    for start in range(8):
        [(_, loud, counts)] = counter(rows, start, start + 1)  # one chunk: one slice
        zero_loud += np.count_nonzero(counts.sum(axis=1) == 0)
        silent += rows.size - loud.size
    assert zero_loud and silent


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    chunks=st.lists(st.tuples(st.booleans(), st.integers(1, 30)), min_size=1, max_size=8),
    per_bin=st.one_of(st.just(0.0), finite(0.0, 1.0)),  # events per trial and bin with the ion
    share=finite(0.0, 1.0),  # the ion's share of them
    width=st.sampled_from([1e-9, 1e-6, 1e-4]),
    budgets=st.tuples(finite(0.5, 300.0), st.integers(1, 1500)),  # _SLICE_EVENTS, _SLICE_CELLS
    seed=st.integers(0, 2**32),
    # each window's bins, and the share of the last window's trials it asks for, picked by a seed
    windows=st.lists(st.tuples(st.integers(1, 12), finite(0.0, 1.0), st.integers(0, 2**32)), min_size=1, max_size=5),
)
# the package's budgets: a chunk of 256 trials in a window of 256 bins fills a slice's cells
@example(chunks=[(True, 256), (False, 256), (True, 3)], per_bin=0.01, share=0.5, width=1e-6,
         budgets=(simulator._SLICE_EVENTS, simulator._SLICE_CELLS), seed=1, windows=[(256, 1.0, 0), (64, 0.5, 1)])
def test_window_counter_slices_partition_live(chunks, per_bin, share, width, budgets, seed, windows):
    """The slices the counter yields for a window hold `live` in order, each a run of whole
    chunks; a slice of more than one chunk is within both budgets, and each next chunk starts
    a slice only if it would take its slice past one. The counts are those of the same
    counter taking each window in one slice, to the bit."""
    budget = RateBudget(fluorescence=share * per_bin / width, dark_counts=(1 - share) * per_bin / width)
    scenario = Scenario(budget=budget, rng_seed=seed, dead_time=width)
    rates = [sum(simulator._rates(scenario, ion, 0.0)) for ion, _ in chunks]
    chunk_of = np.repeat(np.arange(len(chunks)), [n for _, n in chunks])

    def counter():
        return _window_counter(scenario, [(ion, np.random.default_rng([seed, c]), n)
                                          for c, (ion, n) in enumerate(chunks)], width)

    sliced, unsliced = counter(), counter()
    whole = dense_counter(unsliced)
    events_budget, cells_budget = budgets
    live, start = np.arange(chunk_of.size), 0
    for bins, share_asked, pick in windows:
        asked = np.random.default_rng(pick).random(live.size) < share_asked
        asked[0] = True
        live = live[asked]
        with unittest.mock.patch.multiple(simulator, _SLICE_EVENTS=events_budget, _SLICE_CELLS=cells_budget):
            slices = list(sliced(live, start, start + bins))
        with unittest.mock.patch.multiple(simulator, _SLICE_EVENTS=math.inf, _SLICE_CELLS=1 << 62):
            want = whole(live, start, start + bins)
        assert np.array_equal(np.concatenate([rows for rows, _, _ in slices]), live)
        owners = [chunk_of[rows] for rows, _, _ in slices]
        assert all(a[-1] < b[0] for a, b in zip(owners, owners[1:]))  # no chunk in two slices
        sizes = [np.unique(owner, return_counts=True) for owner in owners]
        loads = [
            (sum((n * rates[c] * (bins * width) for c, n in zip(*size)), 0.0), sum(size[1]) * bins)
            for size in sizes
        ]
        for (chunks_in, _), (events, cells) in zip(sizes, loads):
            if chunks_in.size > 1:
                assert events <= events_budget and cells <= cells_budget
        for (events, cells), (next_chunks, next_trials) in zip(loads, sizes[1:]):
            added = next_trials[0] * rates[next_chunks[0]] * (bins * width)
            assert events + added > events_budget or cells + next_trials[0] * bins > cells_budget
        dense = np.zeros_like(want)
        at = 0
        for rows, loud, counts in slices:
            assert counts.shape == (loud.size, bins)
            dense[at + loud] = counts
            at += rows.size
        assert np.array_equal(dense, want)
        assert np.array_equal(carried_last_ns(sliced), carried_last_ns(unsliced))
        start += bins


def test_ordered_arrivals_match_per_event_reference():
    """_ordered_arrivals gives the times of the row-indexed draw to the bit, and each row's
    number of them, across draws of both hypotheses; in 1 ns every row has none."""
    scenario = Scenario(budget=table_budget(), rng_seed=3, dead_time=0.0)
    for lo, hi, sizes in [(0.0, 1e-4, [5, 40]), (3e-3, 6.4e-3, [64, 7, 64]), (0.0, 1e-9, [9])]:
        def draws():
            return [(k % 2 == 0, np.random.default_rng(k), n) for k, n in enumerate(sizes)]

        t, per_row = _ordered_arrivals(scenario, draws(), lo, hi)
        want_t, rows = reference_ordered_arrivals(scenario, draws(), lo, hi)
        assert np.array_equal(t, want_t)
        assert np.array_equal(per_row, np.bincount(rows, minlength=sum(sizes)))


# --- arrivals --------------------------------------------------------------------


def loop_arrivals(scenario, ion_present, rng):
    """One trial's arrivals event by event, sorted ns times and labels: a count at the total
    rate, then count + 1 exponential spacings summed one at a time, whose partial sums over
    the last are the times as fractions of the trial, then per event one uniform, whose label
    is the number of the four interior cumulative rate shares at or below it."""
    rates = [getattr(scenario.budget, name) for name in BUDGET_SOURCES]
    if not ion_present:
        rates[0] = 0.0  # fluorescence
    duration, total = scenario.trial_duration, sum(rates)
    n = int(rng.poisson(total * duration))
    sums, s = [], 0.0
    for _ in range(n + 1):
        s += rng.standard_exponential()
        sums.append(s)
    scale = duration / NS / sums[-1]
    times = [round(x * scale) for x in sums[:-1]]
    shares, c = [], 0.0
    for rate in rates[:-1]:
        c += rate
        shares.append(c / total)
    labels = []
    for _ in range(n):
        u = rng.random()
        labels.append(sum(u >= share for share in shares))
    return np.array(times, dtype=np.int64), np.array(labels, dtype=np.int8)


@pytest.mark.parametrize("seed", [0, 1, 77, 4242, 2**40 + 3])
@pytest.mark.parametrize("ion_present", [True, False])
@pytest.mark.parametrize("budget", [
    table_budget(),
    RateBudget(dark_counts=300.0),
    replace(table_budget(), doppler_scatter=0.0, rf_pickup=0.0),
], ids=["reference", "dark", "gaps"])
def test_simulate_stream_matches_per_trial_draw(seed, ion_present, budget):
    for dead_time in (0.0, 1e-6):
        scenario = Scenario(budget=budget, trial_duration=0.5, rng_seed=seed, dead_time=dead_time)
        stream = simulate_stream(scenario, ion_present)
        t_ns, labels = loop_arrivals(scenario, ion_present, np.random.default_rng([seed, int(ion_present)]))
        want_t, want_l = loop_dead_time(t_ns, labels, round(dead_time / NS))
        assert stream.timestamps_ns.tolist() == want_t.tolist()
        assert stream.labels.tolist() == want_l.tolist()


class RecordingRng:
    """A generator that logs each call with what it drew: ("poisson", mean, size, counts) or
    ("standard_exponential", size, spacings)."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def poisson(self, lam, size):
        out = self.rng.poisson(lam, size)
        self.calls.append(("poisson", lam, size, out.copy()))
        return out

    def standard_exponential(self, size):
        out = self.rng.standard_exponential(size)
        self.calls.append(("standard_exponential", size, out.copy()))
        return out


def row_fractions(spacings, per_row):
    """Each row's sorted uniforms from its k + 1 spacings of the window's draw, row by row:
    the partial sums of all the spacings less those before the row, over the row's total."""
    sums = np.cumsum(spacings)
    out, first = [], 0
    for k in per_row.tolist():
        part = sums[first : first + k + 1] - (sums[first - 1] if first else 0.0)
        out.append(part[:-1] / part[-1])
        first += k + 1
    assert first == sums.size
    return out


@pytest.mark.parametrize("seed", [0, 1, 4242])
@pytest.mark.parametrize("ion_present", [True, False])
@pytest.mark.parametrize("budget", [table_budget(), RateBudget(dark_counts=300.0)], ids=["reference", "dark"])
def test_chunk_draw_matches_per_source_calls(seed, ion_present, budget):
    """A chunk draws window by window. The sources superpose, so each window makes one
    Poisson call for the live rows' counts at the sum of the per-source rates over its span,
    then one call for count + rows exponential spacings. Row j takes the next k_j + 1
    spacings, and at zero dead time its counts are the bins its partial sums fall in, as
    times in the window."""
    rate = sum(getattr(budget, name) for name in BUDGET_SOURCES if ion_present or name != "fluorescence")
    scenario = Scenario(budget=budget, rng_seed=seed, dead_time=0.0)
    width, n = 1e-4, 9
    windows = [(np.arange(n), 0, 3), (np.array([0, 2, 5, 8]), 3, 7), (np.array([5]), 7, 8)]
    rng = RecordingRng(seed)
    counter = dense_counter(_window_counter(scenario, [(ion_present, rng, n)], width))
    got = [counter(rows, start, end) for rows, start, end in windows]
    calls = iter(rng.calls)
    for (rows, start, end), counts in zip(windows, got):
        lo, hi = start * width, end * width
        kind, mean, size, per_row = next(calls)
        assert (kind, mean, size) == ("poisson", rate * (hi - lo), rows.size)
        kind, size, spacings = next(calls)
        assert (kind, size) == ("standard_exponential", per_row.sum() + rows.size)
        want = []
        for fractions in row_fractions(spacings, per_row):
            t = lo + (hi - lo) * fractions
            drawn_bin = np.minimum(((t - lo) / width).astype(np.int64), end - start - 1)
            want.append(np.bincount(drawn_bin, minlength=end - start))
        assert counts.tolist() == np.array(want).tolist()
    assert next(calls, None) is None


# --- binning ---------------------------------------------------------------------


def gate_stream(stream, gate):
    """Counts of an event stream's timestamps in consecutive windows of length gate partitioning
    [0, duration): the package's binning and gate checks composed on a stream, the reference
    gate_and_count(scenario, ion_present, gate) must equal on simulate_stream's stream."""
    return _bin_counts(stream.timestamps_ns, gate, _gate_count(stream.duration, gate))


def per_event_bin_counts(timestamps_ns, width, n):
    """Events in each of n windows of `width` seconds from 0: each event searched in the
    edges, the closing edge counted in the last window, anything else outside dropped."""
    edges_ns = np.round(np.arange(n + 1) * width / NS).astype(np.int64)
    idx = np.searchsorted(edges_ns, timestamps_ns, side="right") - 1
    idx[timestamps_ns == edges_ns[-1]] = n - 1
    return np.bincount(idx[(idx >= 0) & (idx < n)], minlength=n)


@st.composite
def binning_cases(draw):
    """Window width and count, and ascending events (some on an edge, some outside)."""
    width = draw(st.one_of(finite(0.3e-9, 5e-9), finite(5e-9, 1e-4)))  # below 1 ns, edges repeat
    n = draw(st.integers(1, 40))
    edges = np.round(np.arange(n + 1) * width / NS).astype(np.int64)
    on_edge = st.sampled_from(edges.tolist())
    anywhere = st.integers(int(edges[0]) - 3, int(edges[-1]) + 3)
    ts = draw(st.lists(st.one_of(on_edge, anywhere), max_size=60))
    return width, n, np.sort(np.asarray(ts, dtype=np.int64))


@settings(deadline=None, max_examples=300)
@given(case=binning_cases())
# on the first edge, an inner edge and the closing edge
@example(case=(1e-6, 3, np.array([-1, 0, 999, 1000, 3000, 3000, 3001])))
def test_bin_counts_match_histogram(case):
    width, n, ts = case
    edges = np.round(np.arange(n + 1) * width / NS).astype(np.int64)
    np.testing.assert_array_equal(_bin_counts(ts, width, n), np.histogram(ts, bins=edges)[0])


@st.composite
def stream_gate_cases(draw):
    """A gate, a duration of a whole number of gates and up to one more, and an event
    stream: strictly increasing times, many on a gate edge or on the last closing one,
    some past the duration."""
    gate = draw(st.one_of(finite(0.3e-9, 5e-9), finite(5e-9, 1e-4)))
    n = draw(st.integers(1, 40))
    duration = (n + draw(st.sampled_from([0.0, 0.5, 0.999]))) * gate
    edges = np.round(np.arange(n + 2) * gate / NS).astype(np.int64)
    on_edge = st.sampled_from(edges.tolist())
    closing = st.just(int(edges[n]))
    anywhere = st.integers(0, int(edges[-1]) + 3)
    ts = draw(st.sets(st.one_of(on_edge, closing, anywhere), max_size=60))
    return gate, duration, np.array(sorted(ts), dtype=np.int64)


@settings(deadline=None, max_examples=300)
@given(case=stream_gate_cases())
# on the first edge, an inner edge, the closing edge and past it
@example(case=(1e-6, 3e-6, np.array([0, 999, 1000, 2999, 3000, 3001, 4000])))
@example(case=(1e-6, 3.5e-6, np.array([1000, 3000, 3400, 4000])))
def test_gate_and_count_matches_per_event_search(case):
    """Gating an event stream counts what each event's own edge search does:
    the closing edge in the last gate, nothing past it."""
    gate, duration, ts = case
    got = gate_stream(EventStream(ts, np.zeros(ts.size, dtype=np.int8), duration), gate)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, per_event_bin_counts(ts, gate, got.size))


@st.composite
def gated_draw_cases(draw):
    """A scenario, a hypothesis and a gate: budgets with zero-rate sources or none drawn at
    all, dead times from 0 to past a gate, and gates that divide the duration, that leave
    part of it, and that are refused."""
    rates = draw(st.lists(st.one_of(st.just(0.0), finite(1.0, 2e5)), min_size=len(BUDGET_SOURCES),
                          max_size=len(BUDGET_SOURCES)))
    duration = draw(finite(1e-4, 0.05))
    gate = draw(st.one_of(
        finite(duration / 200, duration),
        st.sampled_from([duration, duration / 7, 1.5 * duration, 0.0, -duration, math.nan, math.inf, duration * 1e-9]),
    ))
    dead_time = draw(st.one_of(st.just(0.0), finite(1e-9, 1e-5), finite(duration / 100, 2 * duration)))
    budget = RateBudget(**dict(zip(BUDGET_SOURCES, rates)))
    scenario = Scenario(budget=budget, trial_duration=duration, dead_time=dead_time, rng_seed=draw(st.integers(0, 2**32)))
    return scenario, draw(st.booleans()), gate


def gate_outcome(count):
    """count()'s counts with their dtype, or its error's type and text."""
    try:
        counts = count()
    except ValueError as exc:
        return type(exc), str(exc)
    return counts.dtype, counts.tolist()


@settings(deadline=None, max_examples=200, derandomize=True)
@given(case=gated_draw_cases())
@example(case=(Scenario(budget=RateBudget(), trial_duration=0.01), True, 1e-3))  # no rate: no event
# an event count past the limit and a bad gate: the event bound is named, before any draw
@example(case=(Scenario(budget=table_budget(), trial_duration=1e9), True, math.nan))
def test_gated_counts_match_gated_stream(case):
    """The label-free gate counts, bit for bit, what gating the labelled stream does,
    and refuses what it refuses with the same error."""
    scenario, ion_present, gate = case
    want = gate_outcome(lambda: gate_stream(simulate_stream(scenario, ion_present), gate))
    assert gate_outcome(lambda: gate_and_count(scenario, ion_present, gate)) == want


# --- threshold rule --------------------------------------------------------------


def sorted_threshold_fidelity(ion, empty):
    """(threshold, fidelity, histograms): the empirical CDFs by searchsorted on the sorted counts,
    and each count's tally by list.count."""
    ks = np.arange(max(max(ion), max(empty)) + 1)
    miss = np.searchsorted(np.sort(ion), ks, side="right") / len(ion)
    fa = 1.0 - np.searchsorted(np.sort(empty), ks, side="right") / len(empty)
    fid = 1.0 - 0.5 * (miss + fa)
    best = int(np.argmax(fid))
    return best, float(fid[best]), [ion.count(k) for k in ks], [empty.count(k) for k in ks]


# small counts tie often; large ones reach the counts of the presets' longest windows
counts_lists = st.lists(st.one_of(st.integers(0, 12), st.integers(0, 5000)), min_size=1, max_size=300)


@settings(deadline=None, max_examples=200)
@given(ion=counts_lists, empty=counts_lists)
@example(ion=[0], empty=[0])
@example(ion=[3, 3, 3], empty=[3])
def test_threshold_fidelity_matches_sorted_counts(ion, empty):
    got = threshold_fidelity(ion, empty)
    want = sorted_threshold_fidelity(ion, empty)
    assert (got.threshold, got.fidelity, got.histogram_ion.tolist(), got.histogram_empty.tolist()) == want


# --- sequential detector ---------------------------------------------------------


def loop_log_odds(counts, ion_rate, empty_rate, sub_bin):
    """The log odds after each bin: the running sum of the per-bin Poisson log likelihood ratios."""
    counts = np.asarray(counts)
    if empty_rate > 0:
        per_bin = counts * math.log(ion_rate / empty_rate) - (ion_rate - empty_rate) * sub_bin
    else:
        per_bin = np.where(counts > 0, np.inf, -ion_rate * sub_bin)
    return np.cumsum(per_bin)


def loop_detect(counts, ion_rate, empty_rate, target, sub_bin):
    """(MAP says ion, stopping bin) by scanning every bin for the first |log odds| >= threshold;
    a row that never gets there stops at its last bin."""
    llr = loop_log_odds(counts, ion_rate, empty_rate, sub_bin)
    hit = np.abs(llr) >= math.log(target / (1.0 - target))
    stop = int(hit.argmax()) if hit.any() else llr.size - 1
    return bool(llr[stop] > 0), stop


def loud_counts(counts, loud_anyway=None):
    """counts(live, start, end) over a prebuilt rows x bins matrix, in _window_counter's form:
    it yields the whole window as one slice (live, loud, counts), where loud holds the places
    in `live` of the rows with a count in the window, and of those flagged in loud_anyway (a
    bool per row of the matrix), which the counter also gives with a zero row when a trial's
    arrivals all fall in its carried dead time."""

    def window(live, start, end):
        part = counts[live, start:end]
        loud = part.any(axis=1)
        if loud_anyway is not None:
            loud |= loud_anyway[live]
        loud = np.flatnonzero(loud)
        yield live, loud, part[loud]

    return window


def stopping_bins_of(counts, ion_rate, empty_rate, sub_bin, thresholds, loud_anyway=None):
    """_stopping_bins on a prebuilt rows x bins matrix of counts, each window in one slice,
    its rows with no count in a window given as silent (loud_counts)."""
    return _stopping_bins(loud_counts(counts, loud_anyway), *counts.shape, ion_rate, empty_rate, sub_bin, thresholds)


def loop_fidelity_points(scenario, targets, trials, sub_bin, max_time):
    """The adaptive points of fidelity_curve, trial by trial.

    Each chunk draws in windows of _FIRST_WINDOW bins, then twice as many,
    and so on: the Poisson counts of the chunk's trials still undecided at
    some target, at the total rate over the window's span, then count + trials
    exponential spacings, k + 1 for a trial of k arrivals, whose partial sums
    give its times in the window (row_fractions). Each such trial's arrivals
    so far are sorted window by window, dead-time filtered as one stream and
    counted in the bin they were drawn in; it stays undecided while some
    target's |log odds| has not reached its threshold. loop_detect then runs
    per trial and target.
    """
    ion_rate, empty_rate = scenario.budget.ion_total(), scenario.budget.background_total()
    n_bins = max(int(np.floor(max_time / sub_bin + 1e-9)), 1)
    dead_ns = round(scenario.dead_time / NS)
    binned = {}
    for hyp, ion_present in ((1, True), (0, False)):
        rate = sum(getattr(scenario.budget, name) for name in BUDGET_SOURCES if ion_present or name != "fluorescence")
        binned[hyp] = []
        for chunk, first in enumerate(range(0, trials, _CHUNK_TRIALS)):
            n = min(_CHUNK_TRIALS, trials - first)
            rng = np.random.default_rng([scenario.rng_seed, hyp, chunk])
            stamps = [np.empty(0, dtype=np.int64) for _ in range(n)]  # each trial's drawn ns times
            bins = [np.empty(0, dtype=np.int64) for _ in range(n)]  # and the bin each was drawn in
            counts = np.zeros((n, n_bins), dtype=np.int64)
            live, start, width = list(range(n)), 0, _FIRST_WINDOW
            while live:
                end = min(start + width, n_bins)
                lo, hi = start * sub_bin, end * sub_bin
                per_trial = rng.poisson(rate * (hi - lo), size=len(live))
                spacings = rng.standard_exponential(per_trial.sum() + len(live))
                for row, fractions in zip(live, row_fractions(spacings, per_trial)):
                    t = lo + (hi - lo) * fractions
                    order = np.argsort(np.round(t / NS).astype(np.int64), kind="stable")
                    t = t[order]
                    stamps[row] = np.concatenate([stamps[row], np.round(t / NS).astype(np.int64)])
                    drawn_bin = np.minimum(((t - lo) / sub_bin).astype(np.int64), end - start - 1) + start
                    bins[row] = np.concatenate([bins[row], drawn_bin])
                    _, kept = loop_dead_time(stamps[row], bins[row], dead_ns)
                    counts[row] = np.bincount(kept, minlength=n_bins)
                live = [
                    row for row in live
                    if end < n_bins and not all(
                        np.any(np.abs(loop_log_odds(counts[row, :end], ion_rate, empty_rate, sub_bin))
                               >= math.log(target / (1.0 - target)))
                        for target in targets
                    )
                ]
                start, width = end, 2 * width
            binned[hyp].extend(counts)
    points = []
    for target in targets:
        correct = {}
        bins_used = 0
        for hyp in (1, 0):
            ok = 0
            for counts in binned[hyp]:
                says_ion, stop = loop_detect(counts, ion_rate, empty_rate, target, sub_bin)
                ok += says_ion == bool(hyp)
                bins_used += stop + 1
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
# a weak signal leaves most trials undecided past the first window's edge, and a dead
# time of ten bins reaches across it
@example(fluorescence=200.0, background=6900.0, dead_time=1e-3, targets=[0.9, 0.999999999],
         trials=10, max_time=20e-3, n_bins=200, seed=8)
# the reference budget: trials decide in every window, so each later window draws for fewer
@example(fluorescence=4800.0, background=6900.0, dead_time=1e-6, targets=[0.9, 0.99],
         trials=40, max_time=20e-3, n_bins=200, seed=9)
# two full chunks and a partial one
@example(fluorescence=3e4, background=2e4, dead_time=1e-3, targets=[0.9, 0.999],
         trials=2 * _CHUNK_TRIALS + 7, max_time=20e-3, n_bins=50, seed=5)
@example(fluorescence=2e3, background=0.0, dead_time=1e-6, targets=[0.99],
         trials=2 * _CHUNK_TRIALS + 7, max_time=20e-3, n_bins=200, seed=6)
# empty_rate = 0 at zero dead time: the empty hypothesis draws no events at all
@example(fluorescence=5e3, background=0.0, dead_time=0.0, targets=[0.9, 0.999999999],
         trials=_CHUNK_TRIALS + 1, max_time=5e-3, n_bins=50, seed=7)
# twelve chunks in one stopping pass, several to a slice: at the projection's budget, bins
# and horizon the trials x bins budget splits the first window's slices, and at the
# reference budget with 1 us dead time the expected-events budget does
@example(fluorescence=projected_budget().fluorescence, background=projected_budget().dark_counts, dead_time=0.0,
         targets=[0.99, 0.9987], trials=5 * _CHUNK_TRIALS + 3, max_time=PROJECTED_MAX_TIME, n_bins=1000, seed=11)
@example(fluorescence=4800.0, background=6900.0, dead_time=1e-6, targets=[0.9, 0.99],
         trials=5 * _CHUNK_TRIALS + 3, max_time=20e-3, n_bins=200, seed=12)
def test_fidelity_curve_matches_per_trial_detector(
    fluorescence, background, dead_time, targets, trials, max_time, n_bins, seed
):
    budget = RateBudget(fluorescence=fluorescence, dark_counts=background)
    scenario = Scenario(budget=budget, rng_seed=seed, dead_time=dead_time)
    sub_bin = max_time / n_bins
    curve = fidelity_curve(scenario, targets, trials, sub_bin=sub_bin, max_time=max_time)
    want = loop_fidelity_points(scenario, targets, trials, sub_bin, max_time)
    assert repr(curve.bayes) == repr(want)


def running_max_first_crossings(llr, thresholds):
    """Each row's first bin where |llr| reaches each threshold, or the number of bins: the
    running max of |llr| never falls, so that bin is the count of bins where it is still
    below the threshold, taken over a rows x thresholds x bins broadcast."""
    peak = np.maximum.accumulate(np.abs(llr), axis=-1)
    return np.count_nonzero(peak[..., None, :] < np.asarray(thresholds)[:, None], axis=-1)


def dense_stopping_bins(counts, ion_rate, empty_rate, sub_bin, thresholds):
    """The whole-row pass: log odds after every bin, then each threshold's first crossing."""
    llr = np.cumsum(_bin_log_likelihood_ratios(counts, ion_rate, empty_rate, sub_bin), axis=1)
    stop = np.minimum(running_max_first_crossings(llr, thresholds), counts.shape[1] - 1)
    return stop, np.take_along_axis(llr, stop, axis=1) > 0


# log odds as the sweep makes them (finite, or +inf once a count meets an empty rate of 0),
# with whole rows of 0 and of +inf, and thresholds from below every |llr| to above all of them
log_odds_entries = st.one_of(finite(-30.0, 30.0), st.sampled_from([0.0, np.inf, 2.0, -2.0]))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    llr=arrays(float, st.tuples(st.integers(0, 12), st.integers(1, 40)), elements=log_odds_entries),
    zero_rows=st.integers(0, 3),
    thresholds=st.lists(st.one_of(finite(1e-3, 40.0), st.sampled_from([2.0, 1e300])), min_size=1, max_size=6),
)
@example(llr=np.array([[0.0], [2.0], [np.inf], [-2.0]]), zero_rows=1, thresholds=[2.0, 1e300])  # one bin
@example(llr=np.cumsum(np.where(np.eye(5, 8) > 0, np.inf, -0.1), axis=1), zero_rows=0, thresholds=[2.2, 9.2])
def test_first_crossings_match_running_max(llr, zero_rows, thresholds):
    llr = np.concatenate((llr, np.zeros((zero_rows, llr.shape[1]))))
    got = _first_crossings(llr, thresholds)
    want = running_max_first_crossings(llr, thresholds)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(deadline=None, max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 70), st.integers(1, 300)),
    mu_ion=finite(0.01, 5.0),
    empty_fraction=st.one_of(st.just(0.0), finite(0.05, 0.95)),
    drawn_from=finite(0.0, 1.0),  # the count mean, from the empty (0) to the ion (1) hypothesis's
    targets=targets_st,
    first_window=st.sampled_from([1, 2, 3, 32]),
    seed=st.integers(0, 2**32),
)
# empty_rate = 0: a count gives infinite log odds, and no count only a slow drift
@example(shape=(64, 300), mu_ion=0.02, empty_fraction=0.0, drawn_from=0.5, targets=[0.9, 0.999999999],
         first_window=32, seed=1)
def test_early_exit_matches_dense_pass(shape, mu_ion, empty_fraction, drawn_from, targets, first_window, seed):
    sub_bin = 1e-4
    ion_rate, empty_rate = mu_ion / sub_bin, mu_ion * empty_fraction / sub_bin
    mean = mu_ion * (empty_fraction + drawn_from * (1.0 - empty_fraction))
    counts = np.random.default_rng(seed).poisson(mean, shape)
    thresholds = [math.log(t / (1.0 - t)) for t in targets]
    with unittest.mock.patch.object(detection, "_FIRST_WINDOW", first_window):
        stop, says_ion = stopping_bins_of(counts, ion_rate, empty_rate, sub_bin, thresholds)
    want_stop, want_ion = dense_stopping_bins(counts, ion_rate, empty_rate, sub_bin, thresholds)
    assert stop.tolist() == want_stop.tolist()
    assert says_ion.tolist() == want_ion.tolist()


@settings(deadline=None, max_examples=200)
@given(
    counts=arrays(np.int64, st.integers(1, 80), elements=st.integers(0, 6)),
    rates=st.tuples(finite(1.0, 1e5), st.one_of(st.just(0.0), finite(1e-3, 1.0))),
    target=st.one_of(finite(0.5001, 0.99999), st.just(0.999999999)),
    sub_bin=finite(1e-6, 1e-2),
)
def test_one_row_stopping_bins_matches_bin_scan(counts, rates, target, sub_bin):
    ion_rate, empty_fraction = rates
    empty_rate = ion_rate * empty_fraction
    if not ion_rate > empty_rate:
        return
    threshold = math.log(target / (1.0 - target))
    [[stop]], [[says_ion]] = stopping_bins_of(counts[None], ion_rate, empty_rate, sub_bin, [threshold])
    want_ion, want_stop = loop_detect(counts, ion_rate, empty_rate, target, sub_bin)
    assert stop == want_stop
    assert says_ion == want_ion


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 70), st.integers(1, 300)),
    mu_ion=finite(0.01, 5.0),
    empty_fraction=st.one_of(st.just(0.0), finite(0.002, 0.95)),
    drawn_from=finite(0.0, 1.0),  # the count mean, from the empty (0) to the ion (1) hypothesis's
    zero_share=finite(0.0, 1.0),  # the rows with no count at all
    loud_share=st.one_of(st.just(0.0), finite(0.0, 1.0)),  # the rows loud even with no count
    targets=targets_st,
    first_window=st.sampled_from([1, 2, 3, 32]),
    seed=st.integers(0, 2**32),
)
# the projection's empty trap: a count in some 0.4% of 32-bin windows, most rows silent throughout
@example(shape=(64, 1000), mu_ion=0.1, empty_fraction=100.0 / 50140.0, drawn_from=0.0, zero_share=0.3,
         loud_share=0.0, targets=[0.99, 0.9987], first_window=32, seed=1)
# empty_rate = 0: a count gives infinite log odds, and silent rows share one slow drift
@example(shape=(64, 300), mu_ion=0.02, empty_fraction=0.0, drawn_from=0.5, zero_share=0.5,
         loud_share=0.2, targets=[0.9, 0.999999999], first_window=32, seed=2)
# one-bin windows: silent rows that counted before carry log odds that differ, and those that
# never counted share theirs; rows left at the last window's end stop there
@example(shape=(40, 37), mu_ion=0.3, empty_fraction=0.5, drawn_from=0.5, zero_share=0.5,
         loud_share=0.1, targets=[0.999999999], first_window=1, seed=3)
def test_stopping_bins_on_loud_rows_matches_dense_pass(
    shape, mu_ion, empty_fraction, drawn_from, zero_share, loud_share, targets, first_window, seed
):
    """_stopping_bins fed only the rows with a count in each window (and some zero rows besides,
    as the counter gives a trial drawn wholly into its dead time) equals the dense whole-row
    pass: silent rows sharing one zero-count row per carried log odds change no bit."""
    sub_bin = 1e-4
    ion_rate, empty_rate = mu_ion / sub_bin, mu_ion * empty_fraction / sub_bin
    mean = mu_ion * (empty_fraction + drawn_from * (1.0 - empty_fraction))
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean, shape)
    counts[rng.random(shape[0]) < zero_share] = 0
    loud_anyway = rng.random(shape[0]) < loud_share
    thresholds = [math.log(t / (1.0 - t)) for t in targets]
    with unittest.mock.patch.object(detection, "_FIRST_WINDOW", first_window):
        stop, says_ion = stopping_bins_of(counts, ion_rate, empty_rate, sub_bin, thresholds, loud_anyway)
    want_stop, want_ion = dense_stopping_bins(counts, ion_rate, empty_rate, sub_bin, thresholds)
    assert stop.tolist() == want_stop.tolist()
    assert says_ion.tolist() == want_ion.tolist()


# --- exact sequential test --------------------------------------------------------


def exact_sequential(ion_rate, empty_rate, target, sub_bin, max_time):
    """The adaptive detector's exact outcome at zero dead time, per hypothesis (ion, then empty):
    (probability of the right MAP choice, mean stopping bin + 1, its variance).

    With no dead time the bin counts are independent Poisson draws, so after n
    bins the log odds depend only on the cumulative count k: k ln(r1/r0)
    - n (r1 - r0) sub_bin. A forward pass over the bins convolves the still
    undecided probability over k with one bin's Poisson pmf, then absorbs it
    wherever |log odds| reaches the threshold. What is left after the last bin
    stops there and takes its MAP choice, as in fidelity_curve.
    """
    from scipy.stats import poisson

    n_bins = max(int(np.floor(max_time / sub_bin + 1e-9)), 1)
    threshold = math.log(target / (1.0 - target))
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
            llr = count_weight - n * (ion_rate - empty_rate) * sub_bin
            stops = np.abs(llr) >= threshold if n < n_bins else np.ones(ks.size, dtype=bool)
            mass = undecided[stops].sum()
            right += undecided[stops & says_right(llr)].sum()
            moment1 += n * mass
            moment2 += n * n * mass
            undecided[stops] = 0.0
        out.append((right, moment1, max(moment2 - moment1**2, 0.0)))  # rounding can leave it just below 0
    return out


@settings(deadline=None, max_examples=300)
@given(mus=st.lists(finite(0.0, 1000.0), min_size=1, max_size=4))
@example(mus=[0.0])
@example(mus=[1000.0])
@example(mus=[0.0, 585.0, 1e-300])
def test_poisson_law_matches_pdtr(mus):
    # means from 0 to 1000 hold every threshold window of both presets (the largest, about 585);
    # the rows share one table up to the largest mean's kmax, and every k up to it is checked
    kmax = max(int(mu + 10.0 * math.sqrt(mu) + 10) for mu in mus)
    ks = np.arange(kmax + 1)
    cdf = _poisson_cdf(mus, log_factorials(kmax))
    for mu, row in zip(mus, cdf):
        np.testing.assert_allclose(row, pdtr(ks, mu), rtol=0, atol=1e-12)
        np.testing.assert_allclose(1.0 - row, pdtrc(ks, mu), rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(mus=st.lists(finite(0.0, 2000.0), min_size=1, max_size=4), extra=st.integers(1, 3000))
@example(mus=[0.0], extra=1)
@example(mus=[1e-300, 1.0, 584.9], extra=1)
@example(mus=[2000.0], extra=3000)
def test_poisson_cdf_bits_do_not_depend_on_width(mus, extra):
    """Run past the least width that holds each mean's 10 standard deviations, a CDF row
    keeps every bit up to that width: the terms added beyond it change no sum."""
    kmax = max(int(mu + 10.0 * math.sqrt(mu) + 10) for mu in mus)
    log_factorial = log_factorials(kmax + extra)
    narrow = _poisson_cdf(mus, log_factorial[: kmax + 1])
    wide = _poisson_cdf(mus, log_factorial)
    assert np.array_equal(narrow, wide[:, : kmax + 1])


def full_matrix_threshold_optima(ion_rate, empty_rate, windows):
    """_threshold_optima with every window's CDF rows run to the largest kmax of all, from
    one table of ln k!, and each row's candidates past its own kmax masked out."""
    windows = np.asarray(windows, dtype=float)
    mu1 = ion_rate * windows
    mu0 = empty_rate * windows
    kmax = (mu1 + 10.0 * np.sqrt(mu1) + 10).astype(np.int64)
    width = int(kmax.max(initial=0)) + 1
    ks = np.arange(width)
    log_factorial = log_factorials(width - 1)
    mu = np.concatenate((mu1, mu0))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_mu = np.where(ks > 0, ks * np.log(mu), 0.0)
    cdf = np.cumsum(np.exp(k_log_mu - mu - log_factorial), axis=1)
    cdf = cdf / cdf[:, -1:]
    miss, fa = cdf[: windows.size], 1.0 - cdf[windows.size :]
    fid = 1.0 - 0.5 * (miss + fa)
    fid[ks > kmax[:, None]] = -np.inf
    best = np.argmax(fid, axis=1)
    return best, fid[np.arange(windows.size), best]


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    ion_rate=st.one_of(st.just(0.0), finite(1.0, 2e5)),
    empty_share=st.one_of(st.sampled_from([0.0, 1.0]), finite(0.0, 1.0)),
    windows=st.one_of(
        st.lists(finite(1e-7, 0.1), min_size=1, max_size=30),
        st.tuples(finite(1e-7, 1e-3), finite(1.0, 1e3), st.integers(1, 40)).map(lambda g: np.geomspace(g[0], g[0] * g[1], g[2])),
    ),
)
@example(ion_rate=11700.0, empty_share=6900.0 / 11700.0, windows=np.geomspace(100e-6, 50e-3, 25))  # the reference curve
@example(ion_rate=50140.0, empty_share=100.0 / 50140.0, windows=np.geomspace(2e-6, 2e-3, 25))  # the projection's
@example(ion_rate=5e3, empty_share=1.0, windows=[1e-3, 1e-5, 0.1])  # equal rates, windows out of order
@example(ion_rate=5e3, empty_share=0.0, windows=[1e-3, 0.02])  # empty_rate = 0
def test_threshold_optima_bits_match_full_matrix(ion_rate, empty_share, windows):
    # means up to 2e4, 20 times the largest of either preset
    empty_rate = ion_rate * empty_share
    got = _threshold_optima(ion_rate, empty_rate, windows)
    want = full_matrix_threshold_optima(ion_rate, empty_rate, windows)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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
    curve = fidelity_curve(scenario, targets, trials, sub_bin=sub_bin, max_time=max_time)
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


# the pulse filter at 50 MS/s (a = 0.96), the low-pass at its 10x sample-rate floor, and the pulse
# filter of a time constant so short that a underflows to 0
@pytest.mark.parametrize("a, b", [
    (math.exp(-20e-9 / 0.5e-6), 1.0),
    (math.exp(-2 * math.pi / 10), 1 - math.exp(-2 * math.pi / 10)),
    (0.0, 1.0),
], ids=["pulse-50MSps", "lowpass-floor", "zero"])
@pytest.mark.parametrize("n", [0, 1, 2, *(m + d for m in (_SCAN_BLOCK // 2, _SCAN_BLOCK) for d in (-1, 0, 1)),
                               3 * _SCAN_BLOCK + 5])
@pytest.mark.parametrize("rf", [False, True], ids=["impulses", "impulses+rf"])
def test_first_order_scan_matches_lfilter(a, b, n, rf):
    # the pulse filter takes blocks of _SCAN_BLOCK samples, the low-pass at its floor half as
    # many (its a**_SCAN_BLOCK is below _SCAN_FLOOR), and a = 0 blocks of 1, so the lengths hold
    # a block less one, a block and a block and one of each
    assert (a**_SCAN_BLOCK >= _SCAN_FLOOR) == (a > 0.9) and a ** (_SCAN_BLOCK // 2) >= _SCAN_FLOOR or a == 0
    rng = np.random.default_rng(n)
    x = np.where(rng.random(n) < 0.05, rng.uniform(0.1, 0.5, n), 0.0)  # sparse pulse impulses
    if rf:
        x = x + 0.2 * np.sin(2 * np.pi * 17.7e6 * np.arange(n) / 50e6)
    want = signal.lfilter([b], [1.0, -a], x)
    # the scan runs in place on whole _SCAN_BLOCKs: x is padded, and the first n samples compared.
    # The scan is causal, so the padding may hold anything finite; the front end leaves the pulse
    # tails there when it runs the low-pass
    y = rng.uniform(-1.0, 1.0, -(-n // _SCAN_BLOCK) * _SCAN_BLOCK)
    y[:n] = x
    _first_order(y, a, b)
    # 1e-13 relative to the largest output: with rf the output crosses zero
    np.testing.assert_allclose(y[:n], want, rtol=1e-13, atol=1e-13 * np.abs(want).max(initial=0.0))


# values below the low level, in the band between the levels, and at or above the high level
_SCHMITT_LEVELS = {-1: [-0.1, 0.0, 0.03, 0.0399], 0: [0.04, 0.06, 0.0799], 1: [0.08, 0.09, 0.2]}


@st.composite
def schmitt_runs(draw):
    """A wave of runs of -1, 0 and +1 labels (below low, in band, at or above high), each
    run 1 to 6 samples of values from its range."""
    runs = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 6)), max_size=20))
    return np.array([draw(st.sampled_from(_SCHMITT_LEVELS[k])) for k, length in runs for _ in range(length)])


@settings(deadline=None, max_examples=300)
@given(
    wave=st.one_of(
        arrays(
            float,
            st.integers(0, 120),
            elements=st.one_of(finite(-0.1, 0.2), st.sampled_from([0.03, 0.04, 0.06, 0.08, 0.09])),
        ),
        schmitt_runs(),
    ),
)
# a wave that starts in the band; one that starts above high and ends on a +1 run; +1 runs split only by the band
@example(wave=np.array([0.06, 0.06, 0.09, 0.02, 0.05, 0.08, 0.08]))
@example(wave=np.array([0.1, 0.1, 0.05, 0.09, 0.03, 0.2]))
@example(wave=np.array([0.0, 0.09, 0.06, 0.09, 0.06, 0.09]))
def test_schmitt_crossings_match_edge_walk(wave):
    got = _schmitt_crossings(wave, 0.08, 0.04)
    want = loop_schmitt_crossings(wave, 0.08, 0.04)
    assert got.tolist() == want.tolist()


# --- thin-film reflectance -------------------------------------------------------


def matrix_product_reflectance(stack, angle, pol):
    """|r|^2 at one angle from the product of 2x2 layer matrices."""
    n0 = complex(stack.ambient_index)
    kpar = n0 * math.sin(angle)

    def admittance(n):
        q = np.sqrt(n * n - kpar * kpar + 0j)
        return q if pol == "s" else n * n / q

    # the 2x2 products written out in textbook order: a complex matmul goes to BLAS, whose
    # fused multiply-adds round differently in the last bits
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for d, n in stack.layers:
        q = np.sqrt(n * n - kpar * kpar + 0j)
        delta = 2.0 * np.pi * d / stack.wavelength * q
        e = admittance(n)
        l11, l12, l21, l22 = np.cos(delta), 1j * np.sin(delta) / e, 1j * e * np.sin(delta), np.cos(delta)
        m11, m12, m21, m22 = (
            m11 * l11 + m12 * l21,
            m11 * l12 + m12 * l22,
            m21 * l11 + m22 * l21,
            m21 * l12 + m22 * l22,
        )
    e0 = admittance(n0)
    es = admittance(complex(stack.substrate_index))
    b, c = m11 + m12 * es, m21 + m22 * es
    r = (e0 * b - c) / (e0 * b + c)
    return abs(r) ** 2


# Lossless layers, as in the device's coating, over an absorbing substrate. An
# absorbing layer is modelled as gain (see the FOUND note on the index sign
# convention in CHANGES.md); near its resonances R grows without bound and no
# two evaluation orders agree to 1e-15.
indices = st.builds(complex, finite(1.2, 3.0))


lossless_stacks = dict(
    layers=st.lists(st.tuples(finite(1e-9, 200e-9), indices), max_size=3),
    substrate=st.builds(complex, finite(1.2, 7.0), finite(0.0, 2.0)),
    angles=arrays(float, st.integers(1, 30), elements=finite(0.0, 1.5707)),
    pol=st.sampled_from(["s", "p", "unpolarized"]),
)


@settings(deadline=None, max_examples=100)
@given(**lossless_stacks)
def test_array_reflectance_matches_per_angle_matrix_product(layers, substrate, angles, pol):
    stack = OpticalStack(layers=tuple(layers), substrate_index=substrate)
    pols = ("s", "p") if pol == "unpolarized" else (pol,)
    want_r = [np.mean([matrix_product_reflectance(stack, a, p) for p in pols]) for a in angles]
    got_r = polarized_reflectance(stack, angles, pol)
    assert got_r.shape == angles.shape
    np.testing.assert_allclose(got_r, want_r, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got_r, [polarized_reflectance(stack, a, pol) for a in angles], rtol=0, atol=1e-15)


def polarized_reflectance(stack, angles, pol):
    """The package's R for pol: stack_reflectance for "unpolarized", else that row of _reflectance_rows."""
    if pol == "unpolarized":
        return stack_reflectance(stack, angles)
    return _reflectance_rows(stack, angles)[("s", "p").index(pol)]


def assert_matches_reference_bits(stack, angles, pol):
    """R of the package equals the reference's to the bit."""
    want = abs(reference_amplitude_coeffs(stack, angles)[0]) ** 2
    want = 0.5 * (want[0] + want[1]) if pol == "unpolarized" else want[("s", "p").index(pol)]
    np.testing.assert_array_equal(polarized_reflectance(stack, angles, pol), want, strict=True)


# every phase these stacks give is real
@settings(deadline=None, max_examples=100)
@given(**lossless_stacks)
def test_reflectance_bits_match_reference_matrix(layers, substrate, angles, pol):
    assert_matches_reference_bits(OpticalStack(layers=tuple(layers), substrate_index=substrate), angles, pol)


# stacks whose phases are complex, and the bare substrate, at a scalar angle and at an array
# of them: an absorbing layer; a layer of index 1.2 under an ambient of 1.5, whose phase turns
# imaginary past the critical angle asin(1.2 / 1.5) = 53.1 deg; absorbing layers under an
# ambient of 1.33, as water (an absorbing ambient is refused by OpticalStack)
@pytest.mark.parametrize("stack", [
    OpticalStack(layers=((143.7e-9, 2.0 + 0.25j),), substrate_index=2.0 + 0j),
    OpticalStack(ambient_index=1.5 + 0j, layers=((100e-9, 1.2 + 0j),), substrate_index=3.0 + 0j),
    OpticalStack(ambient_index=1.5 + 0j, layers=((100e-9, 1.2 + 0j), (29e-9, 2.1 + 0j)), substrate_index=3.0 + 0j),
    OpticalStack(ambient_index=1.33 + 0j, layers=((80e-9, 2.0 + 0.3j), (40e-9, 1.5 + 0.1j))),
    OpticalStack(layers=()),
], ids=["absorbing", "past-critical", "past-critical-over-lossless", "absorbing-under-water", "bare"])
@pytest.mark.parametrize("angles", [np.linspace(0.0, 1.5707, 181), 1.2], ids=["array", "scalar"])
@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_complex_phase_bits_match_reference_matrix(stack, angles, pol):
    assert_matches_reference_bits(stack, angles, pol)


# a lossless ambient of index 1 to 2 over lossless layers of index 1.2 to 3.0: a layer of lower
# index than the ambient passes its critical angle inside many an array, where the whole
# array takes the complex product; every other array takes the real one
@settings(deadline=None, max_examples=200, derandomize=True)
@given(ambient=finite(1.0, 2.0), **lossless_stacks)
def test_ambient_reflectance_bits_match_reference_matrix(ambient, layers, substrate, angles, pol):
    stack = OpticalStack(ambient_index=ambient, layers=tuple(layers), substrate_index=substrate)
    assert_matches_reference_bits(stack, angles, pol)


# the coating's product runs in real arithmetic, on more angles than several of the sweep's runs
@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_real_product_bits_match_reference_matrix_on_long_array(pol):
    stack = optics.arc_stack()
    angles = np.linspace(0.0, 1.5707, 5 * optics._REFLECTANCE_ANGLES + 7)
    kpar = np.sin(angles)
    assert optics._lossless_product(stack, [complex(n) for _, n in stack.layers], kpar * kpar) is not None
    assert_matches_reference_bits(stack, angles, pol)


# a lossless layer of index 1.2 under an ambient of 1.5 passes its critical angle (53.1 deg)
# inside the array: the whole array takes the complex product
@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_layer_past_critical_inside_array_takes_complex_product(pol):
    stack = OpticalStack(ambient_index=1.5 + 0j, layers=((29e-9, 2.1 + 0j), (100e-9, 1.2 + 0j)),
                         substrate_index=3.0 + 0.5j)
    angles = np.linspace(0.0, 1.5707, 3001)
    kpar = 1.5 * np.sin(angles)
    assert optics._lossless_product(stack, [complex(n) for _, n in stack.layers], kpar * kpar) is None
    assert_matches_reference_bits(stack, angles, pol)


# --- collection efficiency ---------------------------------------------------------


def loop_collection_efficiency(geometry, offset, include_arc=True):
    """(efficiency, shadowed) at one lateral offset: the per-offset cell sum and
    aperture-wall test that efficiency_vs_offset evaluates for many offsets at once."""
    amap = geometry.active_area
    cx, cy = amap.centroid()
    ion_x = cx + offset
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
        outside = np.hypot(sx, sy) > optics.APERTURE_DIAMETER / 2
        shadowed = bool(np.any(outside & (amap.weights > 0)))
    return float(frac.sum()), shadowed


AREA_MAPS = {"quarter disc": quarter_disc_map(), "aperture filling": aperture_filling_map()}


@st.composite
def area_maps(draw):
    """One of the two fixed maps, one of them with holes, or a small random grid.

    The fixed maps have zero weights only outside their weighted region. Holes and
    random grids put zeros between weighted cells, where the sweep skips R but must
    still sum in the whole grid's order.
    """
    kind = draw(st.sampled_from(["fixed", "holes", "grid"]))
    if kind == "grid":
        weights = draw(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                              elements=st.one_of(st.just(0.0), finite(0.0, 1.0))))
        assume(weights.sum() > 0)
        origin = (draw(finite(-30e-6, 30e-6)), draw(finite(-30e-6, 30e-6)))
        return ActiveAreaMap(cell_size=draw(finite(0.2e-6, 5e-6)), origin=origin, weights=weights)
    base = AREA_MAPS[draw(st.sampled_from(sorted(AREA_MAPS)))]
    if kind == "fixed":
        return base
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.where(rng.random(base.weights.shape) < draw(st.sampled_from([0.01, 0.3, 0.9])), 0.0, base.weights)
    assume(weights.sum() > 0)
    return replace(base, weights=weights)


@st.composite
def offset_sweeps(draw):
    """Offsets in any order, with repeats, negative ones and ones past the wall."""
    anywhere = st.one_of(finite(-200e-6, 200e-6), st.sampled_from([0.0, 75e-6, 80e-6]))
    pool = draw(st.lists(anywhere, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


@settings(deadline=None, max_examples=100)
@given(
    offsets=offset_sweeps(),
    area=area_maps(),
    pattern=st.sampled_from(["isotropic", "dipole_perpendicular"]),
    sweep_cells=st.sampled_from([1, 20_000, 1 << 20, optics._SWEEP_CELLS]),
)
@example(offsets=[80e-6, 0.0, -160e-6, 75e-6, 80e-6, 70e-6], area=AREA_MAPS["quarter disc"],
         pattern="isotropic", sweep_cells=optics._SWEEP_CELLS)
def test_efficiency_sweep_matches_per_offset_loop(offsets, area, pattern, sweep_cells):
    geometry = DetectorGeometry(active_area=area, emission_pattern=pattern)
    want = [loop_collection_efficiency(geometry, off, include_arc=True) for off in offsets]
    want_no_reflection = [loop_collection_efficiency(geometry, off, include_arc=False)[0] for off in offsets]
    # blocks of one offset, of several with a partial last one, and of every offset at once
    with unittest.mock.patch.object(optics, "_SWEEP_CELLS", sweep_cells):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            got, got_no_reflection = efficiency_vs_offset(geometry, offsets)
    assert np.array_equal(got, [ce for ce, _ in want])
    assert np.array_equal(got_no_reflection, want_no_reflection)
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
    """The line reader's event rows as (timestamp, label code) pairs."""
    return list(tables.read_rows(text, "event CSV", _EVENT_HEADER, _event_row))


def int64(field):
    value = int(field)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in int64")
    return value


def loop_event_rows(text):
    return list(loop_read_rows(text, "event CSV", _EVENT_HEADER, lambda f: (int64(f[0]), SOURCE_LABELS.index(f[1]))))


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
# an unknown label, an empty field and a timestamp past int64.
EVENT_LINES = ["12,dark", "  7,fluorescence ", "+3,rf", "1_000,doppler", "0,dark",
               "5,dark,1", "9", "x1,dark", "1.5,dark", "4,bogus", "4, dark", ",dark", "8,",
               "99999999999999999999,dark"]
GRID_LINES = ["1,2,3", "0.5, 1e3 ,-2", " 4,5,6 ", "7,8", "1,2,3,4", "1,x,3", "1,,3", "inf,0,1"]
SKIPPED = ["", "   ", "# manifest: 0123456789abcdef", "# cell_size_um=1, origin_um=0,0", " # note, with, commas"]


@st.composite
def tables_text(draw, body_lines, header):
    """A table text with '#' and blank lines anywhere and LF or CRLF line ends, and a block size
    for the byte parser from 1 character to past its end, often exactly where a line ends."""
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


EVENT_BODY = "timestamp_ns,label\n1,dark\n2,rf\n"


@settings(deadline=None, max_examples=400)
@given(case=tables_text(EVENT_LINES, _EVENT_HEADER))
@example(case=("# manifest: 0123456789abcdef\n" + EVENT_BODY, len(EVENT_BODY)))
@example(case=(EVENT_BODY + "3,dark\n", len(EVENT_BODY)))
@example(case=(EVENT_BODY + "\n\n# a\n\n4,bogus\n", 5))  # a bad row past blank and '#' lines
# one field short and one over: the two rows' field counts balance out
@example(case=("timestamp_ns,label\n9\n5,dark,1\n", 1))
def test_event_block_reader_matches_per_line_loop(case):
    text, _ = case
    assert outcome(read_event_rows, text) == outcome(loop_event_rows, text)


def loop_event_stream(text):
    """The per-line loop's rows as an EventStream, as EventStream.from_csv builds one."""
    rows = loop_event_rows(text)
    return EventStream([t for t, _ in rows], [code for _, code in rows], 1.0)


def stream_outcome(read, text):
    """The stream read, or where the ValueError says the table went wrong, or else its message."""
    try:
        stream = read(text)
    except ValueError as exc:
        where = re.search(r"line \d+:|needs the column header", str(exc))
        return where.group() if where else str(exc)
    return stream.timestamps_ns.tolist(), stream.labels.tolist()


@settings(deadline=None, max_examples=400)
@given(case=tables_text(EVENT_LINES, _EVENT_HEADER))
@example(case=(EVENT_BODY + "12,dark\n", 9))  # canonical rows, read as bytes
@example(case=("# manifest: 0123456789abcdef\n" + EVENT_BODY + ",dark\n", 9))  # a row with no digits
@example(case=(EVENT_BODY + "99999999999999999999,dark\n", 64))
def test_event_csv_from_csv_matches_per_line_loop(case):
    text, block = case
    with unittest.mock.patch.object(simulator, "_READ_CHARS", block):
        got = stream_outcome(lambda t: EventStream.from_csv(t, 1.0), text)
    assert got == stream_outcome(loop_event_stream, text)


# --- event CSV codec -------------------------------------------------------------


def loop_to_csv(stream):
    """The per-row writer: one f-string per event."""
    return _EVENT_HEADER + "\n" + "".join(
        f"{t},{SOURCE_LABELS[code]}\n" for t, code in zip(stream.timestamps_ns.tolist(), stream.labels.tolist())
    )


@st.composite
def event_streams(draw, max_size=40, top=2**63 - 1):
    """A stream of ascending timestamps up to `top` and any labels, possibly empty. The
    timestamps take every digit count, often at the ends of its range."""
    stamps = st.one_of(
        st.integers(0, top),
        st.integers(0, 18).map(lambda k: 10**k).filter(lambda t: t <= top),
        st.integers(1, 18).map(lambda k: 10**k - 1).filter(lambda t: t <= top),
        st.integers(0, 10**6),
    )
    stamps = sorted(draw(st.lists(stamps, unique=True, max_size=max_size)))
    labels = draw(st.lists(st.integers(0, len(SOURCE_LABELS) - 1), min_size=len(stamps), max_size=len(stamps)))
    return EventStream(np.array(stamps, dtype=np.int64), np.array(labels, dtype=np.int8), 1.0)


def edge_stream(top):
    """Both ends of every digit count's range up to `top`, with every label in turn."""
    stamps = sorted(t for t in {0, 2**63 - 1, *(10**k for k in range(19)), *(10**k - 1 for k in range(1, 19))} if t <= top)
    return EventStream(np.array(stamps), np.arange(len(stamps)) % len(SOURCE_LABELS), 1.0)


@settings(deadline=None, max_examples=300)
@given(stream=event_streams(), write_rows=st.integers(1, 3))
@example(stream=edge_stream(2**63 - 1), write_rows=3)
@example(stream=edge_stream(2**63 - 1), write_rows=1 << 14)  # one block
@example(stream=EventStream(np.zeros(0, np.int64), np.zeros(0, np.int8), 1.0), write_rows=1)
def test_to_csv_matches_per_row_writer(stream, write_rows):
    with unittest.mock.patch.object(simulator, "_WRITE_ROWS", write_rows):
        assert stream.to_csv() == loop_to_csv(stream)


# bytes that change a canonical row's meaning, its form or its line count
EDIT_BYTES = list("0159,#+-_ .xa\n\r\t\x00\x0b\x1c") + ["\u00e9", "\u2028"]


@settings(deadline=None, max_examples=600)
@given(stream=event_streams(max_size=12), manifest=st.booleans(), edit=st.sampled_from(["change", "insert", "delete"]),
       byte=st.sampled_from(EDIT_BYTES), data=st.data())
def test_edited_event_csv_matches_per_line_loop(stream, manifest, edit, byte, data):
    """to_csv text with one byte changed, inserted or deleted: whatever reader takes it, the
    outcome is the per-line loop's."""
    text = ("# manifest: 0123456789abcdef\n" if manifest else "") + stream.to_csv()
    at = data.draw(st.integers(0, len(text) - (edit != "insert")))
    text = text[:at] + (byte if edit != "delete" else "") + text[at + (edit != "insert") :]
    block = data.draw(st.one_of(st.integers(1, len(text) + 2), st.just(simulator._READ_CHARS)))
    with unittest.mock.patch.object(simulator, "_READ_CHARS", block):
        got = stream_outcome(lambda t: EventStream.from_csv(t, 1.0), text)
    assert got == stream_outcome(loop_event_stream, text)


@settings(deadline=None, max_examples=200)
@given(stream=event_streams(top=10**18 - 1), manifest=st.booleans(),
       block=st.one_of(st.integers(1, 64), st.just(simulator._READ_CHARS)))
@example(stream=edge_stream(10**18 - 1), manifest=True, block=1)
def test_written_event_csv_is_read_as_bytes(stream, manifest, block):
    """to_csv text, with or without the manifest line, never reaches the line reader while
    its timestamps have at most 18 digits."""
    text = ("# manifest: 0123456789abcdef\n" if manifest else "") + stream.to_csv()
    line_reader = unittest.mock.Mock(side_effect=AssertionError("tables.read_rows was called"))
    with unittest.mock.patch.object(tables, "read_rows", line_reader), \
            unittest.mock.patch.object(simulator, "_READ_CHARS", block):
        back = EventStream.from_csv(text, 1.0)
    np.testing.assert_array_equal(back.timestamps_ns, stream.timestamps_ns)
    np.testing.assert_array_equal(back.labels, stream.labels)


# a row made malformed: a digit, the label, the field count, or a label ending in a label's last letter
BAD_ROWS = {"digit": lambda t: f"{t}"[:-2] + "x" + f"{t}"[-1:] + ",dark", "label": lambda t: f"{t},bogus",
            "field": lambda t: f"{t},dark,", "last": lambda t: f"{t},xark"}


def width_step_text(k, bad=None):
    """Event CSV text of up to 20 stamps below 10**k and 80 from it on, spaced to vary every digit
    but the first, one row each, and the block size that puts the step to k + 1 digits inside
    the first block, beside blocks of one width. bad, if given, names the BAD_ROWS form that
    the 70th row takes, in a block of one width."""
    step = max(10**k // 7 // 80, 1)  # the stamps from 10**k stay below 2 * 10**k
    stamps = [*range(max(10**k - 20, 0), 10**k), *range(10**k, 10**k + 80 * step, step)]
    rows = [f"{t},{SOURCE_LABELS[t % len(SOURCE_LABELS)]}\n" for t in stamps]
    if bad is not None:
        rows[69] = BAD_ROWS[bad](stamps[69]) + "\n"
    return _EVENT_HEADER + "\n" + "".join(rows), len("".join(rows[:30]))


@pytest.mark.parametrize("k", [1, 8, 16])
@pytest.mark.parametrize("bad", [None, *BAD_ROWS])
def test_width_step_beside_uniform_blocks_matches_line_reader(k, bad):
    """A block whose stamps step up a digit beside blocks of one width, whose digit masks are
    numbers: the byte parser reads what the line reader does, and a malformed row in a block
    of one width still falls back to the line reader, which names its line."""
    text, block = width_step_text(k, bad)
    parsed = unittest.mock.Mock(wraps=simulator._parse_rows)
    with unittest.mock.patch.object(simulator, "_READ_CHARS", block), \
            unittest.mock.patch.object(simulator, "_parse_rows", parsed):
        got = stream_outcome(lambda t: EventStream.from_csv(t, 1.0), text)
    want = outcome(read_event_rows, text)
    assert got == (want if bad else ([t for t, _ in want], [code for _, code in want]))
    widths = [{len(row.split(b",")[0]) for row in raw.splitlines()} for (raw,), _ in parsed.call_args_list]
    assert len(widths[0]) == 2 and len(widths) >= 3 and all(len(w) == 1 for w in widths[1:3])


@settings(deadline=None, max_examples=200)
@given(case=tables_text(GRID_LINES, None))
@example(case=("1,2\n\r\n3,4\n5\n", 4))  # CRLF blank line, then a short row
def test_grid_block_reader_matches_per_line_loop(case):
    text, _ = case
    assert outcome(read_grid_rows, text) == outcome(loop_grid_rows, text)
