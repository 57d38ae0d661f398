"""Property tests: config text and every CSV table round-trip through their writers and readers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spadsim.config import scenario_from_text, scenario_to_text
from spadsim.estimation import SpotScan, ToggleMeasurement
from spadsim.model import BUDGET_SOURCES, SOURCE_LABELS, RateBudget, Scenario
from spadsim.optics import ActiveAreaMap
from spadsim.simulator import EventStream
from spadsim.synthetic import (
    qe_dataset_from_csv,
    qe_dataset_to_csv,
    toggle_measurements_from_csv,
    toggle_measurements_to_csv,
)

MANIFEST = "# manifest: 0123456789abcdef\n"


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def zero_or(lo, hi):
    """0 or a value in [lo, hi]: config values print with 12 digits, which subnormals lack."""
    return st.one_of(st.just(0.0), finite(lo, hi))


def grids(dtype, elements):
    return arrays(dtype, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=elements)


def with_manifest(text, manifest):
    return MANIFEST + text if manifest else text


@settings(deadline=None)
@given(
    rates=st.lists(zero_or(1e-3, 1e9), min_size=len(BUDGET_SOURCES), max_size=len(BUDGET_SOURCES)),
    seed=st.integers(0, 2**64),
    duration=finite(1e-9, 1e6),
    dead_time=zero_or(1e-12, 1e-2),
)
def test_config_text_round_trip(rates, seed, duration, dead_time):
    scenario = Scenario(
        budget=RateBudget(**dict(zip(BUDGET_SOURCES, rates))), trial_duration=duration, rng_seed=seed,
        dead_time=dead_time,
    )
    text = scenario_to_text(scenario)
    assert scenario_to_text(scenario_from_text(text)) == text


@settings(deadline=None)
@given(
    gaps=st.lists(st.integers(1, 10**12), max_size=50),
    labels=st.lists(st.integers(0, len(SOURCE_LABELS) - 1), min_size=50, max_size=50),
    manifest=st.booleans(),
)
# longer than one block of the CSV writer
@example(gaps=[1, 10**9] * 9000, labels=[i % len(SOURCE_LABELS) for i in range(18000)], manifest=True)
def test_event_csv_round_trip(gaps, labels, manifest):
    stream = EventStream(np.cumsum(gaps, dtype=np.int64), labels[: len(gaps)], 1.0)
    back = EventStream.from_csv(with_manifest(stream.to_csv(), manifest), stream.duration)
    np.testing.assert_array_equal(back.timestamps_ns, stream.timestamps_ns)
    np.testing.assert_array_equal(back.labels, stream.labels)


@settings(deadline=None)
@given(
    weights=grids(float, finite(0.0, 1.0)),
    cell_um=finite(1e-3, 1e3),
    origin_um=st.tuples(finite(-1e3, 1e3), finite(-1e3, 1e3)),
    manifest=st.booleans(),
)
def test_active_area_csv_round_trip(weights, cell_um, origin_um, manifest):
    amap = ActiveAreaMap(cell_size=cell_um * 1e-6, origin=tuple(o * 1e-6 for o in origin_um), weights=weights)
    back = ActiveAreaMap.from_csv(with_manifest(amap.to_csv(), manifest))
    assert back.cell_size == pytest.approx(amap.cell_size, rel=1e-5)
    assert back.origin == pytest.approx(amap.origin, rel=1e-5, abs=1e-17)
    np.testing.assert_allclose(back.weights, amap.weights, rtol=1e-5, atol=1e-6)


@settings(deadline=None)
@given(
    counts=grids(np.int64, st.integers(0, 10**5)),
    step_nm=finite(1.0, 1e4),
    dwell_ms=finite(1e-3, 1e4),
    dark_kcps=finite(0.0, 1e3),
    manifest=st.booleans(),
)
def test_spot_scan_csv_round_trip(counts, step_nm, dwell_ms, dark_kcps, manifest):
    scan = SpotScan(step=step_nm * 1e-9, counts=counts, dark_rate=dark_kcps * 1e3, dwell=dwell_ms * 1e-3)
    back = SpotScan.from_csv(with_manifest(scan.to_csv(), manifest))
    assert back.step == pytest.approx(scan.step, rel=1e-5)
    assert back.dwell == pytest.approx(scan.dwell, rel=1e-5)
    assert back.dark_rate == pytest.approx(scan.dark_rate, rel=1e-5)
    np.testing.assert_array_equal(back.counts, scan.counts)


@settings(deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.tuples(*[st.booleans()] * len(BUDGET_SOURCES)), finite(0.0, 1e7), finite(1e-3, 1e4)
        ),
        max_size=8,
    ),
    manifest=st.booleans(),
)
def test_toggle_csv_round_trip(rows, manifest):
    meas = [ToggleMeasurement(active_sources=f, measured_rate=r, dwell=d) for f, r, d in rows]
    back = toggle_measurements_from_csv(with_manifest(toggle_measurements_to_csv(meas), manifest))
    assert [m.active_sources for m in back] == [m.active_sources for m in meas]
    assert [m.measured_rate for m in back] == pytest.approx([m.measured_rate for m in meas], rel=1e-8)
    assert [m.dwell for m in back] == pytest.approx([m.dwell for m in meas], rel=1e-8)


@settings(deadline=None)
@given(
    rows=st.lists(st.tuples(finite(-1e3, 1e3), finite(0.0, 1e7)), max_size=20),
    manifest=st.booleans(),
)
def test_qe_dataset_csv_round_trip(rows, manifest):
    offsets = np.array([r[0] * 1e-6 for r in rows])
    rates = np.array([r[1] for r in rows])
    back_offsets, back_rates = qe_dataset_from_csv(with_manifest(qe_dataset_to_csv(offsets, rates), manifest))
    np.testing.assert_allclose(back_offsets, offsets, rtol=1e-8, atol=1e-20)
    np.testing.assert_allclose(back_rates, rates, rtol=1e-8, atol=1e-9)
