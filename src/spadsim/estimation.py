"""Estimation procedures: spot-test effective area, count-budget decomposition
and the single-parameter quantum-efficiency fit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BUDGET_SOURCES, RateBudget, Scenario, scattering_rate
from .optics import ActiveAreaMap, efficiency_vs_offset
from .tables import read_grid, read_metadata


@dataclass(frozen=True)
class SpotScan:
    """Raster scan of a focused beam over the detector: raw counts per grid point."""

    step: float
    counts: np.ndarray
    dark_rate: float
    dwell: float

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "counts", c)
        if not (0 < self.step < math.inf and 0 < self.dwell < math.inf):
            raise ValueError(f"step and dwell must be finite and > 0, got step={self.step}, dwell={self.dwell}")
        if not math.isfinite(self.dark_rate):
            raise ValueError(f"dark_rate must be finite, got {self.dark_rate}")
        if np.any(c < 0):
            raise ValueError("counts must be >= 0")
        if c.ndim != 2:
            raise ValueError("counts must be a 2-D grid")
        bad = np.argwhere(~np.isfinite(c))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"counts must be finite, got {c[row, col]} in grid row {row + 1}, column {col + 1}")

    @classmethod
    def from_csv(cls, text: str) -> "SpotScan":
        counts = read_grid(text, "spot-scan CSV")
        meta = read_metadata(text)
        try:
            step = float(meta["step_nm"]) * 1e-9
            dwell = float(meta["dwell_ms"]) * 1e-3
            dark = float(meta["dark_kcps"]) * 1e3
        except (KeyError, ValueError) as exc:
            raise ValueError("spot-scan CSV needs a '# step_nm=..., dwell_ms=..., dark_kcps=...' line") from exc
        return cls(step=step, counts=counts, dark_rate=dark, dwell=dwell)


def effective_area(scan: SpotScan) -> tuple[float, ActiveAreaMap]:
    """Response-weighted area of the scanned detector.

    Per-cell rate is dark-subtracted (clamped at zero) and normalized to the
    maximum; the area is step^2 times the summed weights.
    """
    rates = np.clip(scan.counts / scan.dwell - scan.dark_rate, 0.0, None)
    peak = rates.max()
    if peak <= 0:
        raise ValueError("no scan cell rises above the dark level")
    weights = rates / peak
    amap = ActiveAreaMap(cell_size=scan.step, origin=(0.0, 0.0), weights=weights)
    return amap.effective_area(), amap


@dataclass(frozen=True)
class ToggleMeasurement:
    """One background measurement with a subset of sources enabled."""

    active_sources: tuple[bool, bool, bool, bool, bool]
    measured_rate: float
    dwell: float = 1.0

    def __post_init__(self):
        if not 0 <= self.measured_rate < math.inf:
            raise ValueError(f"measured_rate must be finite and >= 0, got {self.measured_rate}")
        if len(self.active_sources) != len(BUDGET_SOURCES):
            raise ValueError(f"active_sources must have {len(BUDGET_SOURCES)} flags")
        if not 0 < self.dwell < math.inf:
            raise ValueError(f"dwell must be finite and > 0, got {self.dwell}")


def decompose_budget(measurements) -> tuple[RateBudget, dict[str, float]]:
    """Least-squares split of toggle measurements into per-source rates.

    Returns the recovered budget and per-source 1-sigma uncertainties from
    Poisson counting error propagated through the solve.
    """
    measurements = list(measurements)
    if not measurements:
        raise ValueError("need at least one toggle measurement")
    design = np.array([m.active_sources for m in measurements], dtype=float)
    rank = np.linalg.matrix_rank(design)
    if rank < len(BUDGET_SOURCES):
        null = _unresolvable_sources(design)
        raise ValueError(
            "toggle design is rank-deficient; cannot separate sources: " + ", ".join(null)
        )
    y = np.array([m.measured_rate for m in measurements])
    rates, *_ = np.linalg.lstsq(design, y, rcond=None)
    rates = np.clip(rates, 0.0, None)

    # var of a rate estimated from counts over dwell is rate/dwell
    var_y = np.array([m.measured_rate / m.dwell for m in measurements])
    pinv = np.linalg.pinv(design)
    cov = pinv @ np.diag(var_y) @ pinv.T
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    budget = RateBudget(**dict(zip(BUDGET_SOURCES, rates)))
    return budget, dict(zip(BUDGET_SOURCES, sigma))


def _unresolvable_sources(design: np.ndarray) -> list[str]:
    """Sources entangled in the null space of a rank-deficient toggle design."""
    _, s, vt = np.linalg.svd(design)
    ncols = design.shape[1]
    nullity = ncols - int((s > 1e-9).sum())
    if nullity == 0:
        return []
    mask = np.any(np.abs(vt[ncols - nullity :]) > 1e-9, axis=0)
    return [name for name, bad in zip(BUDGET_SOURCES, mask) if bad]


def expected_incident_rates(scenario: Scenario, offsets) -> np.ndarray:
    """Photon rate incident on the active area (after coating loss) at each lateral
    offset: the scenario's emission rate times its collection efficiency there. The QE
    fit's one forward model, for make_qe_dataset and fit_quantum_efficiency."""
    return scattering_rate(scenario.emitter) * efficiency_vs_offset(scenario.geometry, offsets)[0]


def fit_quantum_efficiency(expected, measured) -> tuple[float, float]:
    """Single-parameter least-squares scale between the expected incident rates at
    some offsets and the background-subtracted fluorescence rates measured there.

    Returns (qe, standard error from residual variance).
    """
    expected = np.asarray(expected, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if measured.size == 0 or expected.shape != measured.shape:
        raise ValueError("expected and measured rates must be equal-length and non-empty")
    bad = ~(np.isfinite(expected) & np.isfinite(measured))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"expected and measured rates must be finite, got {expected[i]:g} and {measured[i]:g} /s"
            f" at point {i + 1}"
        )
    if np.any(measured < 0):
        raise ValueError("measured rates must be >= 0")
    if np.all(expected <= 0):
        raise ValueError("expected incident rates are all zero; geometry collects nothing")
    denom = float(np.dot(expected, expected))
    qe = float(np.dot(measured, expected)) / denom
    resid = measured - qe * expected
    dof = max(measured.size - 1, 1)
    std_error = float(np.sqrt(np.dot(resid, resid) / dof / denom))
    return qe, std_error
