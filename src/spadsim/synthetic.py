"""Synthetic datasets mirroring the device characterization measurements.

Used by the CLI demo presets and the test suite: a spot-test raster of the
quartered detector, a source-toggle background table, and a fluorescence-vs-
offset dataset for the quantum-efficiency fit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .estimation import SpotScan, ToggleMeasurement
from .model import BUDGET_SOURCES, SOURCE_LABELS, RateBudget, Scenario, scattering_rate
from .optics import _cell_centers, efficiency_vs_offset, quarter_disc_response
from .tables import read_rows

_TOGGLE_HEADER = ",".join(SOURCE_LABELS) + ",rate_kcps,dwell_s"
_QE_HEADER = "offset_um,rate_kcps"


def make_spot_scan(
    step: float = 0.8e-6,
    extent: float = 14e-6,
    peak_rate: float = 50e3,
    dark_rate: float = 1.2e3,
    dwell: float = 0.5,
    outer_radius: float = 11.0e-6,
    guard_width: float = 2.0e-6,
    seed: int = 0,
) -> SpotScan:
    """Poisson-noised raster scan of the quarter-disc response."""
    rng = np.random.default_rng(seed)
    n = int(np.ceil(extent / step))
    xx, yy = _cell_centers((n, n), step)
    w = quarter_disc_response(xx, yy, outer_radius, guard_width)
    mean_counts = (peak_rate * w + dark_rate) * dwell
    counts = rng.poisson(mean_counts)
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


def toggle_measurements_to_csv(measurements) -> str:
    lines = [_TOGGLE_HEADER]
    for m in measurements:
        flags = ",".join("1" if f else "0" for f in m.active_sources)
        lines.append(f"{flags},{m.measured_rate / 1e3:.9g},{m.dwell:.9g}")
    return "\n".join(lines) + "\n"


def toggle_measurements_from_csv(text: str) -> list[ToggleMeasurement]:
    def block(columns):
        return [
            ToggleMeasurement(
                active_sources=tuple(map(_source_flag, flags)),
                measured_rate=float(rate_kcps) * 1e3,
                dwell=float(dwell),
            )
            for *flags, rate_kcps, dwell in zip(*columns)
        ]

    return list(itertools.chain.from_iterable(read_rows(text, "toggle CSV", _TOGGLE_HEADER, block)))


def _source_flag(field: str) -> bool:
    """A toggle table's on/off field: 0 or 1 and nothing else."""
    flag = int(field)
    if flag not in (0, 1):
        raise ValueError(f"source flag {field.strip()!r} is not 0 or 1")
    return flag == 1


def make_qe_dataset(
    scenario: Scenario,
    offsets,
    quantum_efficiency: float = 0.24,
    integration_time: float = 50.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, background-subtracted measured fluorescence rates) with Poisson noise.

    Counts accumulate over integration_time with the background rate known and
    subtracted, as in a paired ion/no-ion measurement.
    """
    rng = np.random.default_rng(seed)
    offsets = np.asarray(list(offsets), dtype=float)
    emit = scattering_rate(scenario.emitter)
    signal = quantum_efficiency * emit * efficiency_vs_offset(scenario.geometry, offsets)
    background = scenario.budget.background_total()
    total = rng.poisson((signal + background) * integration_time) / integration_time
    return offsets, np.maximum(total - background, 0.0)


def qe_dataset_to_csv(offsets, rates) -> str:
    lines = [_QE_HEADER]
    for off, r in zip(offsets, rates):
        lines.append(f"{off * 1e6:.9g},{r / 1e3:.9g}")
    return "\n".join(lines) + "\n"


def qe_dataset_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    def block(columns):
        offsets_um, rates_kcps = (np.array(list(map(float, c))) for c in columns)
        return offsets_um * 1e-6, rates_kcps * 1e3

    blocks = list(read_rows(text, "QE dataset CSV", _QE_HEADER, block))
    offsets, rates = (np.concatenate(c) for c in zip(*blocks)) if blocks else (np.empty(0), np.empty(0))
    return offsets, rates
