"""Estimation procedures: spot-test effective area, count-budget decomposition,
saturation-curve fit and the single-parameter quantum-efficiency fit."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import BUDGET_SOURCES, EmitterParams, RateBudget, scattering_rate
from .optics import ActiveAreaMap, DetectorGeometry, efficiency_vs_offset
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
        if self.step <= 0 or self.dwell <= 0:
            raise ValueError("step and dwell must be > 0")
        if np.any(c < 0):
            raise ValueError("counts must be >= 0")
        if c.ndim != 2:
            raise ValueError("counts must be a 2-D grid")

    def to_csv(self) -> str:
        lines = [
            f"# step_nm={self.step * 1e9:.6g}, dwell_ms={self.dwell * 1e3:.6g}, "
            f"dark_kcps={self.dark_rate / 1e3:.6g}"
        ]
        for row in self.counts:
            lines.append(",".join(f"{v:.6g}" for v in row))
        return "\n".join(lines) + "\n"

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
        if self.measured_rate < 0:
            raise ValueError("measured_rate must be >= 0")
        if len(self.active_sources) != len(BUDGET_SOURCES):
            raise ValueError(f"active_sources must have {len(BUDGET_SOURCES)} flags")
        if self.dwell <= 0:
            raise ValueError("dwell must be > 0")


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


def fit_saturation(powers, rates) -> tuple[float, float, np.ndarray]:
    """Fit rate = max_rate * (P/Psat) / (1 + P/Psat).

    Returns (saturation_power, max_rate, fraction-of-saturation per input power).
    """
    from scipy.optimize import curve_fit

    p = np.asarray(powers, dtype=float)
    r = np.asarray(rates, dtype=float)
    if np.unique(p).size < 3:
        raise ValueError("need at least 3 distinct powers")
    if np.ptp(r) <= 0:
        raise ValueError("saturation fit cannot converge on flat data")

    def model(pp, psat, rmax):
        return rmax * (pp / psat) / (1.0 + pp / psat)

    p0 = (np.median(p), 2.0 * r.max())
    try:
        popt, _ = curve_fit(model, p, r, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise ValueError("saturation fit did not converge") from exc
    psat, rmax = float(popt[0]), float(popt[1])
    if psat <= 0 or rmax <= 0:
        raise ValueError("saturation fit converged to a non-physical optimum")
    fractions = (p / psat) / (1.0 + p / psat)
    return psat, rmax, fractions


@dataclass(frozen=True)
class QEFitInput:
    """Background-subtracted fluorescence rates at a set of ion lateral offsets."""

    positions: np.ndarray
    measured_fluorescence: np.ndarray
    geometry: DetectorGeometry
    emitter: EmitterParams = field(default_factory=EmitterParams)

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        m = np.asarray(self.measured_fluorescence, dtype=float)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "measured_fluorescence", m)
        if p.size == 0 or p.shape != m.shape:
            raise ValueError("positions and measured rates must be equal-length and non-empty")
        if np.any(m < 0):
            raise ValueError("measured rates must be >= 0")


def expected_incident_rates(input: QEFitInput) -> np.ndarray:
    """Photon rate incident on the active area (after coating loss) at each offset."""
    return scattering_rate(input.emitter) * efficiency_vs_offset(input.geometry, input.positions)


def fit_quantum_efficiency(input: QEFitInput) -> tuple[float, float]:
    """Single-parameter least-squares scale between expected incident and measured rates.

    Returns (qe, standard error from residual variance).
    """
    expected = expected_incident_rates(input)
    if np.all(expected <= 0):
        raise ValueError("expected incident rates are all zero; geometry collects nothing")
    measured = input.measured_fluorescence
    denom = float(np.dot(expected, expected))
    qe = float(np.dot(measured, expected)) / denom
    resid = measured - qe * expected
    dof = max(measured.size - 1, 1)
    std_error = float(np.sqrt(np.dot(resid, resid) / dof / denom))
    return qe, std_error
