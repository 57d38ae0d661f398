"""Synthetic datasets mirroring the device characterization measurements.

Used by the CLI demo presets and the test suite: a spot-test raster of the
quartered detector, a source-toggle background table, and a fluorescence-vs-
offset dataset for the quantum-efficiency fit.
"""

from __future__ import annotations

import numpy as np

from .estimation import SpotScan, ToggleMeasurement
from .model import BUDGET_SOURCES, SOURCE_LABELS, RateBudget, Scenario
from .optics import GUARD_WIDTH, QUARTER_DISC_RADIUS, _cell_centers, quarter_disc_response
from .tables import read_grid, read_rows

_TOGGLE_HEADER = ",".join(SOURCE_LABELS) + ",rate_kcps,dwell_s"
_QE_HEADER = "offset_um,rate_kcps"
# seconds of counting behind each rate of the QE dataset
QE_INTEGRATION_TIME = 50.0


def make_spot_scan(step: float = 0.8e-6, dwell: float = 0.5, seed: int = 0) -> SpotScan:
    """Poisson-noised raster scan of the quarter-disc response over a 14 um square:
    50 kcps at full response, over 1.2 kcps of dark counts."""
    rng = np.random.default_rng(seed)
    n = int(np.ceil(14e-6 / step))
    xx, yy = _cell_centers((n, n), step)
    w = quarter_disc_response(xx, yy, QUARTER_DISC_RADIUS, GUARD_WIDTH)
    dark_rate = 1.2e3
    counts = rng.poisson((50e3 * w + dark_rate) * dwell)
    return SpotScan(step=step, counts=counts, dark_rate=dark_rate, dwell=dwell)


CUMULATIVE_TOGGLE_DESIGN = (
    (False, False, False, True, False),  # dark only
    (False, False, False, True, True),  # + trap rf
    (False, False, True, True, True),  # + detection-laser scatter
    (False, True, True, True, True),  # + repump scatter
    (True, True, True, True, True),  # + ion
)


def make_toggle_measurements(
    budget: RateBudget,
    design=CUMULATIVE_TOGGLE_DESIGN,
    dwell: float = 50.0,
    noisy: bool = False,
    seed: int = 0,
) -> list[ToggleMeasurement]:
    """Toggle table for the given budget; exact rates unless noisy."""
    rng = np.random.default_rng(seed)
    rates = np.array([getattr(budget, name) for name in BUDGET_SOURCES])
    out = []
    for flags in design:
        rate = float(rates[np.array(flags)].sum())
        if noisy and rate > 0:
            rate = rng.poisson(rate * dwell) / dwell
        out.append(ToggleMeasurement(active_sources=tuple(flags), measured_rate=rate, dwell=dwell))
    return out


def toggle_measurements_from_csv(text: str) -> list[ToggleMeasurement]:
    def parse_row(fields):
        *flags, rate_kcps, dwell = fields
        return ToggleMeasurement(
            active_sources=tuple(map(_source_flag, flags)),
            measured_rate=float(rate_kcps) * 1e3,
            dwell=float(dwell),
        )

    return list(read_rows(text, "toggle CSV", _TOGGLE_HEADER, parse_row))


def _source_flag(field: str) -> bool:
    """A toggle table's on/off field: 0 or 1 and nothing else."""
    flag = int(field)
    if flag not in (0, 1):
        raise ValueError(f"source flag {field.strip()!r} is not 0 or 1")
    return flag == 1


def make_qe_dataset(scenario: Scenario, expected) -> np.ndarray:
    """Background-subtracted measured fluorescence rates with Poisson noise at the
    paper's quantum efficiency of 0.24, drawn from the scenario's seed, where the
    incident rates are expected (from estimation.expected_incident_rates at the
    dataset's offsets).

    Counts accumulate over QE_INTEGRATION_TIME with the background rate known and
    subtracted, as in a paired ion/no-ion measurement.
    """
    rng = np.random.default_rng(scenario.rng_seed)
    signal = 0.24 * np.asarray(expected, dtype=float)
    background = scenario.budget.background_total()
    total = rng.poisson((signal + background) * QE_INTEGRATION_TIME) / QE_INTEGRATION_TIME
    return np.maximum(total - background, 0.0)


def qe_dataset_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    offsets_um, rates_kcps = read_grid(text, "QE dataset CSV", _QE_HEADER).reshape(-1, 2).T
    return offsets_um * 1e-6, rates_kcps * 1e3
