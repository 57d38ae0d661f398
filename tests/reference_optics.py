"""Optics references that several test modules share, built on the package's public types.

reference_amplitude_coeffs is the characteristic matrix in complex arithmetic
throughout: the package's s, p and unpolarized R must equal its R to the bit,
and its T pairs with the package's R in every R + T = 1 check.
aperture_filling_map is the hypothetical detector whose full-response area
fills the trap's optical aperture.
"""

import math
from dataclasses import replace

import numpy as np

from spadsim.optics import APERTURE_DIAMETER, ActiveAreaMap


def reference_amplitude_coeffs(stack, angle_of_incidence):
    """r and the transmittance factor over angles, s then p on a leading axis: the
    characteristic matrix in complex arithmetic throughout, started from the identity,
    with r and T both formed from e0 * B + C."""
    angle = np.asarray(angle_of_incidence, dtype=float)
    n0 = complex(stack.ambient_index)
    kpar = n0 * np.sin(angle.reshape(-1))

    def admittances(n):
        q = np.sqrt(n * n - kpar * kpar + 0j)
        return q, np.stack((q, n * n / q))

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


def aperture_filling_map(cell_size: float = 0.4e-6) -> ActiveAreaMap:
    """Full response on a disc of the aperture's diameter centred on the origin, 0 elsewhere."""
    r = APERTURE_DIAMETER / 2
    n = int(math.ceil(APERTURE_DIAMETER / cell_size)) + 1
    grid = ActiveAreaMap(cell_size=cell_size, origin=(-r, -r), weights=np.zeros((n, n)))
    xx, yy = grid.cell_centers()
    return replace(grid, weights=(np.hypot(xx, yy) <= r).astype(float))
