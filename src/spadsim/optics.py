"""Thin-film reflectance (transfer matrix) and geometric collection efficiency."""

from __future__ import annotations

import functools
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tables import read_grid, read_metadata

WAVELENGTH_UV = 370e-9
INDEX_SIO2 = 1.47 + 0.0j
INDEX_SIN = 2.10 + 0.0j
INDEX_SI = 6.9 + 1.4j
# the trap's optical aperture over the detector; lines of sight through its wall are shadowed
APERTURE_DIAMETER = 38e-6
# the quartered detector's outer radius, and the guard ring's width over which its response tapers
QUARTER_DISC_RADIUS = 11.0e-6
GUARD_WIDTH = 2.0e-6
# offsets x cells whose geometry is evaluated at once (256 KiB in each float64 temporary; all 17
# offsets of the default 841-cell map), and the most weighted angles handed to stack_reflectance
# at once, whose transfer matrix is fastest on arrays that stay in cache. The default 17-offset
# sweep (9979 weighted angles), every block size run in turn 3000 times in one process (2-vCPU
# Xeon, numpy 2.4), took 4.14 ms at these sizes, against 4.84 ms with 2^10 angles, 4.98 ms with
# 2^12, 4.44 ms with 2^13 cells, and 5.30 ms with the former 2^11 cells and every angle of a block
# in one call. Peak memory does not grow with the number of offsets.
_SWEEP_CELLS = 1 << 15
_REFLECTANCE_ANGLES = 1 << 11
# The most cells a side of quarter_disc_map's grid may have: 2^18 cells, 2 MiB in each float64
# grid. The default `collection` sweep on such a map peaked at 155 MB and took 2.3 s (2-vCPU
# Xeon, numpy 2.4); the default map is 29 cells a side.
_MAX_MAP_SIDE = 1 << 9


class GrazingAngleError(ValueError):
    """Raised for an angle of incidence at which the ambient's normal index rounds to 0."""


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
        _positive("wavelength", self.wavelength)
        for i, (d, n) in enumerate(self.layers, start=1):
            _positive(f"layer {i} thickness", d)
            _index(f"layer {i} index", n)
        _index("substrate_index", self.substrate_index)
        _index("ambient_index", self.ambient_index)


def _positive(name: str, value: float):
    """ValueError naming name and value unless value is finite and > 0 (NaN fails the test)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be > 0 and finite, got {value}")


def _index(name: str, n):
    """ValueError naming name and n unless n is finite with real part > 0 and imaginary
    part >= 0 (NaN fails the test)."""
    n = complex(n)
    if not (math.isfinite(n.real) and 0 <= n.imag < math.inf):
        raise ValueError(f"{name} must be finite with imaginary part >= 0, got {n}")
    if not n.real > 0:
        raise ValueError(f"{name} must have real part > 0, got {n}")


def arc_stack() -> OpticalStack:
    """The device's anti-reflective coating: SiN over thin SiO2 passivation on Si."""
    return OpticalStack(layers=((29e-9, INDEX_SIN), (10e-9, INDEX_SIO2)))


def _reflectance_rows(stack: OpticalStack, angle_of_incidence) -> np.ndarray:
    """Power reflectance |r|^2 of the stack over angles, s then p on a new leading axis:
    r = (e0 B - C) / (e0 B + C) for the ambient's admittance e0 and [B, C] = M [1, es],
    M the product of the layer matrices top first and es the substrate's admittance
    (Macleod, Thin-Film Optical Filters, ch. 2).

    When the ambient index and every layer index are real and every layer is below
    its critical angle at every angle of the call (n^2 > kpar^2), each layer's phase
    and admittances are real and M is [[A, iB], [iC, D]] with A, B, C and D real:
    that product runs in real arithmetic, and the matrix turns complex only where
    the substrate enters. The result equals the complex product's to the bit: each
    complex product it replaces has a factor with a zero imaginary part, or is a
    product of two pure imaginaries, which numpy rounds as the real product; numpy's
    complex division is x * (1/y), and so are the divisions here; and the square
    root of x + 0j is that of x for x > 0. Any other stack (an absorbing layer, a
    layer past its critical angle, a complex ambient) takes the complex product,
    in which a layer whose phase is real at every angle still takes cos and sin in
    real arithmetic. A real ambient's admittances are real in either product.

    An angle whose sine rounds so near 1 that the ambient's normal index is 0 is a
    GrazingAngleError, as r is 0/0 there. A scalar angle goes through the same array
    arithmetic as an array of them, so its results equal the array's element to the bit.
    """
    angle = np.asarray(angle_of_incidence, dtype=float)
    if not np.all((angle >= 0.0) & (angle < math.pi / 2)):
        raise ValueError("angle of incidence must lie in [0, pi/2)")
    n0 = complex(stack.ambient_index)
    real_ambient = n0.imag == 0
    kpar = (n0.real if real_ambient else n0) * np.sin(angle.reshape(-1))  # conserved transverse index
    kpar2 = kpar * kpar
    q0_squared = (n0.real * n0.real if real_ambient else n0 * n0) - kpar2
    if not q0_squared.all():
        raise GrazingAngleError(
            f"angle of incidence {angle.reshape(-1)[np.argmin(q0_squared != 0)]:.17g} rad grazes the surface: "
            "the ambient's normal index is 0"
        )

    def admittances(n):
        """The normal index q, and the s and p admittances (q and n^2/q) on a leading axis."""
        e = np.empty((2, kpar2.size), dtype=complex)
        q = np.sqrt(n * n - kpar2 + 0j, out=e[0])
        np.divide(n * n, q, out=e[1])
        return q, e

    e0 = _real_admittances(n0.real * n0.real, q0_squared) if real_ambient else admittances(n0)[1]
    _, es = admittances(complex(stack.substrate_index))
    indices = [complex(n) for _, n in stack.layers]
    m = _lossless_product(stack, indices, kpar2) if real_ambient else None
    if m is not None:
        a, b, c, d = m
        e0b, c = e0 * (a + b * 1j * es), c * 1j + d * es
    else:
        # the running product [[m11, m12], [m21, m22]], each entry elementwise over
        # polarizations and angles; the first layer's matrix starts it
        for (d, _), n in zip(stack.layers, indices):
            q, e = admittances(n)
            delta = 2.0 * np.pi * d / stack.wavelength * (q if q.imag.any() else q.real)
            cos, sin = np.cos(delta), np.sin(delta)
            i_sin_e, i_e_sin = 1j * sin / e, 1j * e * sin
            if m is None:
                m = cos, i_sin_e, i_e_sin, cos
                continue
            m11, m12, m21, m22 = m
            m = (
                m11 * cos + m12 * i_e_sin,
                m11 * i_sin_e + m12 * cos,
                m21 * cos + m22 * i_e_sin,
                m21 * i_sin_e + m22 * cos,
            )
        if m is None:  # no layers: M is the identity
            e0b, c = e0, es
        else:
            m11, m12, m21, m22 = m
            e0b, c = e0 * (m11 + m12 * es), m21 + m22 * es
    r = e0b - c
    r /= e0b + c
    return (abs(r) ** 2).reshape(2, *angle.shape)


def _real_admittances(n_squared: float, q_squared: np.ndarray) -> np.ndarray:
    """The s and p admittances q and n^2/q on a leading axis, for q^2 = n^2 - kpar^2 > 0:
    the real parts of the complex ones, to the bit."""
    e = np.empty((2, q_squared.size))
    q = np.sqrt(q_squared, out=e[0])
    np.multiply(n_squared, 1.0 / q, out=e[1])
    return e


def _lossless_product(stack: OpticalStack, indices, kpar2):
    """A, B, C and D of the layers' product [[A, iB], [iC, D]] in real arithmetic, for
    real kpar2; None unless there are layers, each with a real index and below its
    critical angle at every angle."""
    if not indices or any(n.imag for n in indices):
        return None
    q_squared = [n.real * n.real - kpar2 for n in indices]
    if not all((x > 0).all() for x in q_squared):
        return None
    m = None
    for (thickness, n), x in zip(stack.layers, q_squared):
        e = _real_admittances(n.real * n.real, x)
        delta = 2.0 * np.pi * thickness / stack.wavelength * e[0]
        cos, sin = np.cos(delta), np.sin(delta)
        sin_e, e_sin = sin * (1.0 / e), e * sin
        if m is None:
            m = cos, sin_e, e_sin, cos
            continue
        a, b, c, d = m
        m = a * cos - b * e_sin, a * sin_e + b * cos, c * cos + d * e_sin, d * cos - c * sin_e
    return m


def stack_reflectance(stack: OpticalStack, angle_of_incidence):
    """Unpolarized power reflectance of the stack at the given incidence angle, a scalar or
    an array: the mean of the s and p rows of _reflectance_rows. With no layers this
    reduces to the Fresnel reflection of the bare substrate.
    """
    rows = _reflectance_rows(stack, angle_of_incidence)
    return 0.5 * (rows[0] + rows[1])


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
        if not (0 < self.cell_size < math.inf and all(map(math.isfinite, self.origin))):
            raise ValueError(f"cell_size must be finite and > 0 and origin finite, got {self.cell_size}, {self.origin}")
        if w.ndim != 2:
            raise ValueError("weights must be a 2-D grid")
        reach = max(abs(o) + self.cell_size * n for o, n in zip(self.origin, w.shape))  # its farthest edge
        if not reach < MAX_HEIGHT:
            raise ValueError(f"the grid must lie within {MAX_HEIGHT:g} m of (0, 0), got cells reaching {reach:g} m")
        bad = np.argwhere(~((w >= 0) & (w <= 1 + 1e-12)))  # NaN fails both comparisons
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"weights must lie in [0, 1], got {w[row, col]} in grid row {row + 1}, column {col + 1}")

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
        return tuple(float((self.weights * c).sum() / total) for c in self.cell_centers())

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


def quarter_disc_response(x, y, outer_radius, guard_width):
    """Analytic response of the quarter-disc detector with guard-ring taper."""
    rr = np.hypot(x, y)
    w = (
        np.clip((outer_radius - rr) / guard_width, 0.0, 1.0)
        * np.clip(x / guard_width, 0.0, 1.0)
        * np.clip(y / guard_width, 0.0, 1.0)
    )
    return np.where(rr > outer_radius, 0.0, w)


def quarter_disc_map(
    outer_radius: float = QUARTER_DISC_RADIUS,
    guard_width: float = GUARD_WIDTH,
    cell_size: float = 0.4e-6,
) -> ActiveAreaMap:
    """Quartered-detector response model: a quarter disc whose efficiency tapers
    to zero across the guard-ring width at every edge.

    The defaults reproduce the reference device's ~60 um^2 effective area. A
    grid of more than _MAX_MAP_SIDE cells a side is a ValueError, raised before
    any cell is made.
    """
    _positive("outer_radius", outer_radius)
    _positive("guard_width", guard_width)
    _positive("cell_size", cell_size)
    n = np.ceil(outer_radius / cell_size) + 1  # cells a side
    if not n <= _MAX_MAP_SIDE:  # written so that inf fails it
        raise ValueError(
            f"outer_radius {outer_radius:g} m in cells of {cell_size:g} m makes a grid of {n:.6g} cells "
            f"a side, more than the limit of {_MAX_MAP_SIDE}"
        )
    xx, yy = _cell_centers((int(n), int(n)), cell_size)
    w = quarter_disc_response(xx, yy, outer_radius, guard_width)
    return ActiveAreaMap(cell_size=cell_size, origin=(0.0, 0.0), weights=w)


@functools.cache
def _reference_area() -> ActiveAreaMap:
    """quarter_disc_map(), made once per process for every default geometry: its weights are read-only."""
    area = quarter_disc_map()
    area.weights.flags.writeable = False
    return area


# The largest height of the ion above the trap surface, or depth of the detector below it, in
# metres: no trap is that large, and below it the collection sum's squared distances stay finite.
MAX_HEIGHT = 1.0


@dataclass(frozen=True)
class DetectorGeometry:
    """The recessed detector below the ion: where it sits, what it collects, and
    how the ion emits.

    The ion sits ion_height_above_surface above the trap surface; the detector
    plane is detector_recess_below_surface below it. Both must be below
    MAX_HEIGHT in magnitude and their sum > 0. The ion's lateral position is not
    part of the geometry: efficiency_vs_offset takes it as an offset.
    """

    ion_height_above_surface: float = 50e-6
    detector_recess_below_surface: float = 7e-6
    active_area: ActiveAreaMap = field(default_factory=_reference_area)
    stack: OpticalStack = field(default_factory=arc_stack)
    emission_pattern: str = "isotropic"

    def __post_init__(self):
        for name in ("ion_height_above_surface", "detector_recess_below_surface"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
            if not abs(getattr(self, name)) < MAX_HEIGHT:
                raise ValueError(f"{name} must be below {MAX_HEIGHT:g} m in magnitude, got {getattr(self, name)}")
        if not self.vertical_distance > 0:
            raise ValueError(f"ion-to-detector vertical distance must be > 0, got {self.vertical_distance}")
        if self.emission_pattern not in ("isotropic", "dipole_perpendicular"):
            raise ValueError(f"unknown emission pattern {self.emission_pattern!r}")

    @property
    def vertical_distance(self) -> float:
        return self.ion_height_above_surface + self.detector_recess_below_surface


def lateral_offsets(offsets) -> np.ndarray:
    """offsets as a float array, checked before any sweep array is made: a ValueError
    if there are none, or naming the first that is not finite or not below MAX_HEIGHT
    in magnitude (past it the sweep's squared distances overflow)."""
    offsets = np.asarray(list(offsets), dtype=float)
    if offsets.size == 0:
        raise ValueError("offsets must be non-empty")
    limit = f"below {MAX_HEIGHT:g} m in magnitude"
    for bad, rule in ((~np.isfinite(offsets), "finite"), (~(abs(offsets) < MAX_HEIGHT), limit)):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"offsets must be {rule}, got {offsets[i]:g} m at point {i + 1}")
    return offsets


def efficiency_vs_offset(geometry: DetectorGeometry, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Collection efficiency at each lateral offset, in input order: through the
    stack, and with no reflection loss at all (transmission 1, not bare silicon).

    An offset places the ion along +x (the trap axis) from the response-weighted
    centroid of the active area, at the geometry's vertical distance.

    Sums weight * cos(theta) / (4 pi r^2) * cell_area over cells, times
    (1 - R(theta)) for the first array; the dipole_perpendicular pattern
    multiplies in (3/2) sin^2(theta). Both arrays come from one sweep: all
    offsets are evaluated as one offsets x cells array, a block of offsets at a
    time, with R only at cells of positive weight (the rest add an exact 0), in
    runs of at most _REFLECTANCE_ANGLES angles.
    One ShadowingWarning names every offset at which a weighted cell's line of sight
    to the ion leaves the aperture through its wall, whose occlusion is not modeled.
    The offsets are checked by lateral_offsets; a line of sight so near the detector
    plane that the ambient's normal index is 0 is a GrazingAngleError.
    """
    offsets = lateral_offsets(offsets)
    amap = geometry.active_area
    cx, cy = amap.centroid()  # raises on a map with zero total response
    d = geometry.vertical_distance
    xx, yy = amap.cell_centers()
    dy = yy - cy
    weighted = amap.weights > 0
    t_surface = geometry.detector_recess_below_surface / d  # ray parameter at the trap surface
    block = max(1, _SWEEP_CELLS // amap.weights.size)
    efficiency, no_reflection = np.empty(offsets.size), np.empty(offsets.size)
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
        reflect = theta[:, weighted].reshape(-1)  # the weighted cells' angles, each overwritten by its R
        for i in range(0, reflect.size, _REFLECTANCE_ANGLES):
            part = reflect[i : i + _REFLECTANCE_ANGLES]
            part[...] = stack_reflectance(geometry.stack, part)
        transmit = np.ones_like(theta)
        transmit[:, weighted] = 1.0 - reflect.reshape(len(theta), -1)
        no_reflection[start : start + block] = frac.reshape(len(frac), -1).sum(axis=1)
        efficiency[start : start + block] = (frac * transmit).reshape(len(frac), -1).sum(axis=1)
        if t_surface > 0:
            outside = np.hypot(xx - dx * t_surface, yy - dy * t_surface) > APERTURE_DIAMETER / 2
            shadowed[start : start + block] = (outside & weighted).any(axis=(1, 2))
    if shadowed.any():
        named = ", ".join(f"{off * 1e6:.6g}" for off in offsets[shadowed])
        warnings.warn(
            f"line of sight from part of the active area to the ion clips the aperture "
            f"wall at offsets {named} um; wall occlusion is not modeled",
            ShadowingWarning,
            stacklevel=2,
        )
    return efficiency, no_reflection
