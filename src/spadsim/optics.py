"""Thin-film reflectance (transfer matrix) and geometric collection efficiency."""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .tables import read_grid, read_metadata

WAVELENGTH_UV = 370e-9
INDEX_SIO2 = 1.47 + 0.0j
INDEX_SIN = 2.10 + 0.0j
INDEX_SI = 6.9 + 1.4j
APERTURE_DIAMETER = 38e-6
# offsets x cells evaluated at once: the transfer matrix's complex temporaries stay well
# under a megabyte together, so peak memory does not grow with the number of offsets
_SWEEP_CELLS = 1 << 11


class ShadowingWarning(UserWarning):
    """Raised when a line of sight from a cell to the ion clips the aperture wall."""


@dataclass(frozen=True)
class OpticalStack:
    """Thin-film stack over an absorbing substrate, layers ordered top (ambient side) first."""

    ambient_index: complex = 1.0 + 0.0j
    layers: tuple[tuple[float, complex], ...] = ()
    substrate_index: complex = INDEX_SI
    wavelength: float = WAVELENGTH_UV

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be > 0")
        for d, n in self.layers:
            if d <= 0:
                raise ValueError("layer thickness must be > 0")
            if n.imag < 0:
                raise ValueError("imaginary index parts must be >= 0")
        if self.substrate_index.imag < 0 or complex(self.ambient_index).imag < 0:
            raise ValueError("imaginary index parts must be >= 0")


def arc_stack() -> OpticalStack:
    """The device's anti-reflective coating: SiN over thin SiO2 passivation on Si."""
    return OpticalStack(layers=((29e-9, INDEX_SIN), (10e-9, INDEX_SIO2)))


def bare_silicon_stack() -> OpticalStack:
    return OpticalStack(layers=())


def _amplitude_coeffs(stack: OpticalStack, angle_of_incidence):
    """Transfer-matrix r and transmittance factor elementwise over angles, with s then p
    on a new leading axis.

    A scalar angle goes through the same array arithmetic as an array of them, so
    its results equal the array's element to the bit.
    """
    angle = np.asarray(angle_of_incidence, dtype=float)
    if not np.all((angle >= 0.0) & (angle < math.pi / 2)):
        raise ValueError("angle of incidence must lie in [0, pi/2)")
    n0 = complex(stack.ambient_index)
    kpar = n0 * np.sin(angle.reshape(-1))  # conserved transverse index

    def admittances(n):
        """The normal index q, and the s and p admittances (q and n^2/q) on a leading axis."""
        q = np.sqrt(n * n - kpar * kpar + 0j)
        return q, np.stack((q, n * n / q))

    # characteristic matrix [[m11, m12], [m21, m22]], each entry elementwise over polarizations and angles
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for d, n in stack.layers:
        q, e = admittances(n)
        delta = 2.0 * np.pi * d / stack.wavelength * q
        cos, sin = np.cos(delta), np.sin(delta)
        i_sin_e, i_e_sin = 1j * sin / e, 1j * e * sin
        m11, m12, m21, m22 = (
            m11 * cos + m12 * i_e_sin,
            m11 * i_sin_e + m12 * cos,
            m21 * cos + m22 * i_e_sin,
            m21 * i_sin_e + m22 * cos,
        )
    _, e0 = admittances(n0)
    _, es = admittances(complex(stack.substrate_index))
    b, c = m11 + m12 * es, m21 + m22 * es
    r = (e0 * b - c) / (e0 * b + c)
    t_power = 4.0 * e0.real * es.real / abs(e0 * b + c) ** 2
    shape = (2, *angle.shape)
    return r.reshape(shape), t_power.reshape(shape)


def _polarized(values, polarization: str):
    """The s or p row of values (s then p on the leading axis), or their mean for "unpolarized"."""
    if polarization == "unpolarized":
        return 0.5 * (values[0] + values[1])
    if polarization not in ("s", "p"):
        raise ValueError(f"unknown polarization {polarization!r}")
    return values[("s", "p").index(polarization)]


def stack_reflectance(stack: OpticalStack, angle_of_incidence, polarization: str = "unpolarized"):
    """Power reflectance |r|^2 of the stack at the given incidence angle, a scalar or an array.

    polarization is "s", "p" or "unpolarized" (mean of s and p). With no
    layers this reduces to the Fresnel reflection of the bare substrate.
    """
    r, _ = _amplitude_coeffs(stack, angle_of_incidence)
    return _polarized(abs(r) ** 2, polarization)


def stack_transmittance(stack: OpticalStack, angle_of_incidence, polarization: str = "unpolarized"):
    """Power transmittance into the substrate (R + T = 1 for lossless stacks), scalar or array angles."""
    _, t = _amplitude_coeffs(stack, angle_of_incidence)
    return _polarized(t, polarization)


def _cell_centers(shape, cell_size: float, origin=(0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the centres of a grid of square cells whose corner is at origin, ij-indexed."""
    x = origin[0] + (np.arange(shape[0]) + 0.5) * cell_size
    y = origin[1] + (np.arange(shape[1]) + 0.5) * cell_size
    return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class ActiveAreaMap:
    """Gridded position-dependent response of the detector, weights in [0, 1]."""

    cell_size: float
    origin: tuple[float, float]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        if w.ndim != 2:
            raise ValueError("weights must be a 2-D grid")
        if np.any(w < 0) or np.any(w > 1 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")

    def effective_area(self) -> float:
        """Response-weighted area, cell_size^2 * sum(weights)."""
        return self.cell_size**2 * float(self.weights.sum())

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return _cell_centers(self.weights.shape, self.cell_size, self.origin)

    def centroid(self) -> tuple[float, float]:
        """Response-weighted centroid, the reference point for lateral offsets."""
        total = self.weights.sum()
        if total <= 0:
            raise ValueError("active area map has zero total response")
        xx, yy = self.cell_centers()
        return (
            float((self.weights * xx).sum() / total),
            float((self.weights * yy).sum() / total),
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(
            f"# cell_size_um={self.cell_size * 1e6:.6g}, "
            f"origin_um={self.origin[0] * 1e6:.6g},{self.origin[1] * 1e6:.6g}\n"
        )
        for row in self.weights:
            buf.write(",".join(f"{v:.6g}" for v in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ActiveAreaMap":
        weights = read_grid(text, "active-area CSV")
        meta = read_metadata(text)
        try:
            cell = float(meta["cell_size_um"]) * 1e-6
            ox, oy = (float(v) * 1e-6 for v in meta["origin_um"].split(","))
        except (KeyError, ValueError) as exc:
            raise ValueError("active-area CSV needs a '# cell_size_um=..., origin_um=x,y' line") from exc
        return cls(cell_size=cell, origin=(ox, oy), weights=weights)

    @classmethod
    def load_csv(cls, path) -> "ActiveAreaMap":
        with open(path) as f:
            return cls.from_csv(f.read())


def quarter_disc_response(x, y, outer_radius=11.0e-6, guard_width=2.0e-6):
    """Analytic response of the quarter-disc detector with guard-ring taper."""
    rr = np.hypot(x, y)
    w = (
        np.clip((outer_radius - rr) / guard_width, 0.0, 1.0)
        * np.clip(x / guard_width, 0.0, 1.0)
        * np.clip(y / guard_width, 0.0, 1.0)
    )
    return np.where(rr > outer_radius, 0.0, w)


def quarter_disc_map(
    outer_radius: float = 11.0e-6,
    guard_width: float = 2.0e-6,
    cell_size: float = 0.4e-6,
) -> ActiveAreaMap:
    """Quartered-detector response model: a quarter disc whose efficiency tapers
    to zero across the guard-ring width at every edge.

    The defaults reproduce the reference device's ~60 um^2 effective area.
    """
    if outer_radius <= 0 or guard_width <= 0 or cell_size <= 0:
        raise ValueError("quarter-disc parameters must be > 0")
    n = int(math.ceil(outer_radius / cell_size)) + 1
    xx, yy = _cell_centers((n, n), cell_size)
    w = quarter_disc_response(xx, yy, outer_radius, guard_width)
    return ActiveAreaMap(cell_size=cell_size, origin=(0.0, 0.0), weights=w)


def aperture_filling_map(
    diameter: float = APERTURE_DIAMETER, cell_size: float = 0.4e-6
) -> ActiveAreaMap:
    """Hypothetical detector whose full-response area fills the optical aperture."""
    r = diameter / 2
    n = int(math.ceil(diameter / cell_size)) + 1
    xx, yy = _cell_centers((n, n), cell_size, (-r, -r))
    w = (np.hypot(xx, yy) <= r).astype(float)
    return ActiveAreaMap(cell_size=cell_size, origin=(-r, -r), weights=w)


@dataclass(frozen=True)
class DetectorGeometry:
    """Ion position relative to the recessed detector plane.

    The ion sits ion_height_above_surface above the trap surface; the detector
    plane is detector_recess_below_surface below it. ion_lateral_offset is
    measured along the trap axis (+x) from the response-weighted centroid of
    the active area.
    """

    ion_lateral_offset: float = 80e-6
    ion_height_above_surface: float = 50e-6
    detector_recess_below_surface: float = 7e-6
    active_area: ActiveAreaMap = field(default_factory=quarter_disc_map)
    stack: OpticalStack = field(default_factory=arc_stack)
    emission_pattern: str = "isotropic"
    aperture_diameter: float = APERTURE_DIAMETER

    def __post_init__(self):
        if self.vertical_distance <= 0:
            raise ValueError("ion-to-detector vertical distance must be > 0")
        if self.emission_pattern not in ("isotropic", "dipole_perpendicular"):
            raise ValueError(f"unknown emission pattern {self.emission_pattern!r}")

    @property
    def vertical_distance(self) -> float:
        return self.ion_height_above_surface + self.detector_recess_below_surface

    def with_offset(self, offset: float) -> "DetectorGeometry":
        return replace(self, ion_lateral_offset=offset)


def collection_efficiency(geometry: DetectorGeometry, include_arc: bool = True) -> float:
    """Fraction of emitted photons collected by the weighted active area at the
    geometry's own lateral offset: the one-offset case of efficiency_vs_offset."""
    return float(efficiency_vs_offset(geometry, [geometry.ion_lateral_offset], include_arc)[0])


def efficiency_vs_offset(geometry: DetectorGeometry, offsets, include_arc: bool = True) -> np.ndarray:
    """Collection efficiency at each lateral offset, in input order.

    Sums weight * cos(theta) / (4 pi r^2) * cell_area * (1 - R(theta)) over
    cells; the dipole_perpendicular pattern multiplies in (3/2) sin^2(theta).
    All offsets are evaluated as one offsets x cells array, a block of offsets
    at a time. One ShadowingWarning names every offset at which a weighted
    cell's line of sight to the ion leaves the aperture through its wall,
    whose occlusion is not modeled.
    """
    offsets = np.asarray(list(offsets), dtype=float)
    if offsets.size == 0:
        raise ValueError("offsets must be non-empty")
    amap = geometry.active_area
    if amap.effective_area() <= 0:
        raise ValueError("active area map has zero effective area")
    cx, cy = amap.centroid()
    d = geometry.vertical_distance
    xx, yy = amap.cell_centers()
    dy = yy - cy
    t_surface = geometry.detector_recess_below_surface / d  # ray parameter at the trap surface
    block = max(1, _SWEEP_CELLS // amap.weights.size)
    efficiency = np.empty(offsets.size)
    shadowed = np.zeros(offsets.size, dtype=bool)
    for start in range(0, offsets.size, block):
        ion_x = cx + offsets[start : start + block, None, None]
        dx = xx - ion_x
        r2 = dx * dx + dy * dy + d * d
        cos_t = d / np.sqrt(r2)
        theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
        frac = amap.weights * cos_t / (4.0 * np.pi * r2) * amap.cell_size**2
        if geometry.emission_pattern == "dipole_perpendicular":
            frac = frac * 1.5 * np.sin(theta) ** 2
        if include_arc:
            frac = frac * (1.0 - stack_reflectance(geometry.stack, theta))
        efficiency[start : start + block] = frac.reshape(len(frac), -1).sum(axis=1)
        if t_surface > 0:
            outside = np.hypot(xx - dx * t_surface, yy - dy * t_surface) > geometry.aperture_diameter / 2
            shadowed[start : start + block] = (outside & (amap.weights > 0)).any(axis=(1, 2))
    if shadowed.any():
        named = ", ".join(f"{off * 1e6:.6g}" for off in offsets[shadowed])
        warnings.warn(
            f"line of sight from part of the active area to the ion clips the aperture "
            f"wall at offsets {named} um; wall occlusion is not modeled",
            ShadowingWarning,
            stacklevel=2,
        )
    return efficiency
