"""Property tests: each array-at-a-time stage against the per-element loop it replaced.

The loops below are the reference implementations: the per-event dead-time
filter; np.histogram per stream for the block binning; the per-trial,
per-target detector sweep; the per-event direct sum of exponential pulses;
the per-edge Schmitt trigger; the per-angle 2x2 transfer-matrix product; and
the per-line table reader.
"""

import math
import re
import unittest.mock
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal

from spadsim import tables
from spadsim.detection import _BLOCK_CELLS, BayesianConfig, _trial_rng, detect_from_counts, fidelity_curve
from spadsim.model import SOURCE_LABELS, RateBudget, Scenario
from spadsim.optics import OpticalStack, stack_reflectance, stack_transmittance
from spadsim.simulator import (
    _EVENT_HEADER,
    NS,
    DeadTimeModel,
    EventStream,
    FrontEndParams,
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


def loop_fidelity_points(scenario, targets, trials, sub_bin, max_time, dead):
    """The adaptive points of fidelity_curve: bin every trial, then run detect_from_counts per trial and target."""
    ion_rate, empty_rate = scenario.budget.ion_total(), scenario.budget.background_total()
    trial_scenario = replace(scenario, trial_duration=max_time)
    n_bins = max(int(np.floor(max_time / sub_bin + 1e-9)), 1)
    binned = {}
    for hyp, ion_present in ((1, True), (0, False)):
        rows = np.empty((trials, n_bins), dtype=np.int64)
        for i in range(trials):
            stream = simulate_stream(trial_scenario, ion_present, dead, rng=_trial_rng(scenario.rng_seed, hyp, i))
            rows[i] = _bin_counts(stream.timestamps_ns, sub_bin, n_bins)
        binned[hyp] = rows
    points = []
    for target in targets:
        config = BayesianConfig(target_posterior=target, sub_bin=sub_bin, max_time=max_time)
        correct = {}
        times = []
        for hyp in (1, 0):
            want = "ion" if hyp else "no_ion"
            ok = 0
            for counts in binned[hyp]:
                out = detect_from_counts(counts, ion_rate, empty_rate, config)
                ok += out.map_decision == want
                times.append(out.stopping_time)
            correct[hyp] = ok / trials
        points.append((target, 0.5 * (correct[1] + correct[0]), float(np.mean(times))))
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
    trials=st.integers(1, 12),
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
# enough bins for two trials per block: seven trials make three full blocks and a partial one;
# a 1 ms dead time would reach from most trials into the next if they were packed too closely
@example(fluorescence=3e4, background=2e4, dead_time=1e-3, targets=[0.9, 0.999],
         trials=7, max_time=20e-3, n_bins=_BLOCK_CELLS // 3 + 1, seed=5)
@example(fluorescence=2e3, background=0.0, dead_time=1e-6, targets=[0.99],
         trials=7, max_time=20e-3, n_bins=_BLOCK_CELLS // 3 + 1, seed=6)
def test_fidelity_curve_matches_per_trial_detector(
    fluorescence, background, dead_time, targets, trials, max_time, n_bins, seed
):
    budget = RateBudget(fluorescence=fluorescence, dark_counts=background)
    scenario = Scenario(budget=budget, rng_seed=seed)
    sub_bin = max_time / n_bins
    dead = DeadTimeModel(dead_time)
    curve = fidelity_curve(scenario, targets, trials, sub_bin=sub_bin, max_time=max_time, dead=dead,
                           threshold_windows=[sub_bin])
    want = loop_fidelity_points(scenario, targets, trials, sub_bin, max_time, dead)
    assert repr(curve.bayes) == repr(want)


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
