"""Property tests: config text parses to the values written in it, a config key at any
value loads or is refused by name, and every CSV table round-trips through its writer
and reader.

The inputs spadsim reads and never writes take the tests' own writers (reference_tables).
"""

import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spadsim.cli import EXIT_INPUT_ERROR, EXIT_OK, main
from spadsim.config import KNOWN_KEYS, ConfigError, scenario_from_text
from spadsim.estimation import SpotScan, ToggleMeasurement
from spadsim.model import BUDGET_SOURCES, SOURCE_LABELS, RateBudget, Scenario
from spadsim.optics import ActiveAreaMap
from spadsim.simulator import EventStream
from spadsim.synthetic import qe_dataset_from_csv, toggle_measurements_from_csv

from reference_tables import qe_dataset_csv, scenario_config, spot_scan_csv, toggle_csv

MANIFEST = "# manifest: 0123456789abcdef\n"


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def zero_or(lo, hi):
    """0 or a value in [lo, hi], away from the subnormals that scaling by a unit rounds."""
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
def test_config_text_parses_to_its_values(rates, seed, duration, dead_time):
    # each value comes back within rounding of its scaling from the key's unit to SI and back
    scenario = Scenario(
        budget=RateBudget(**dict(zip(BUDGET_SOURCES, rates))), trial_duration=duration, rng_seed=seed,
        dead_time=dead_time,
    )
    parsed = scenario_from_text(scenario_config(scenario))
    assert [getattr(parsed.budget, name) for name in BUDGET_SOURCES] == pytest.approx(rates, rel=1e-15)
    assert (parsed.rng_seed, parsed.trial_duration) == (seed, duration)
    assert parsed.dead_time == pytest.approx(dead_time, rel=1e-15)


# every config key, one a config, at the edges of its range, past them, and not a number
FUZZ_KEYS = sorted(KNOWN_KEYS)
FUZZ_VALUES = ["0", "-1", "-0", "1e-300", "5e-324", "1e-9", "1e6", "1e15", "1e300", "nan", "inf", "foo"]
# each property draws from a grid small enough that hypothesis tries every point of it
fuzz_grid = settings(derandomize=True, deadline=None, max_examples=1000)


def fuzz_config(key, value):
    """The config line setting key to value; stack.layers takes it as the index of a 29 nm layer."""
    return f"{key} = 29 {value}\n" if key == "stack.layers" else f"{key} = {value}\n"


@fuzz_grid
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
def test_config_key_loads_or_is_named(key, value):
    # a directory that does not exist: the area CSV key's values name no file
    base_dir = Path(__file__).parent / "no such directory"
    try:
        assert isinstance(scenario_from_text(fuzz_config(key, value), base_dir), Scenario)
    except ConfigError as exc:
        assert f"'{key}'" in str(exc)


@fuzz_grid
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES),
       subcommand=st.sampled_from(["arc", "collection"]))
def test_config_key_exits_0_or_2_naming_it(key, value, subcommand):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.cfg"
        config.write_text(fuzz_config(key, value))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as in a spadsim process, a warning does not end the run
            code = main([subcommand, "--config", str(config), "--output-dir", tmp])
        if code != EXIT_OK:
            assert (code, os.listdir(tmp)) == (EXIT_INPUT_ERROR, ["fuzz.cfg"]), err.getvalue()
            assert f"'{key}'" in err.getvalue()


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
    back = SpotScan.from_csv(with_manifest(spot_scan_csv(scan), manifest))
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
    back = toggle_measurements_from_csv(with_manifest(toggle_csv(meas), manifest))
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
    back_offsets, back_rates = qe_dataset_from_csv(with_manifest(qe_dataset_csv(offsets, rates), manifest))
    np.testing.assert_allclose(back_offsets, offsets, rtol=1e-8, atol=1e-20)
    np.testing.assert_allclose(back_rates, rates, rtol=1e-8, atol=1e-9)
