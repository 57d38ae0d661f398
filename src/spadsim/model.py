"""Physical source model: two-level scattering, per-source count budget, scenario."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .optics import DetectorGeometry

# Short name of each count source, in RateBudget field order: event-stream
# labels, toggle-table columns and budget config keys.
SOURCE_LABELS = ("fluorescence", "repump", "doppler", "dark", "rf")


@dataclass(frozen=True)
class RateBudget:
    """Per-source detector count rates in counts/s.

    fluorescence is ion signal; the other four are backgrounds that persist
    with the ion removed. Each must be finite and >= 0; any other value is a
    ValueError that names the field and the value.
    """

    fluorescence: float = 0.0
    repump_scatter: float = 0.0
    doppler_scatter: float = 0.0
    dark_counts: float = 0.0
    rf_pickup: float = 0.0

    def __post_init__(self):
        for name in BUDGET_SOURCES:
            if not 0 <= getattr(self, name) < math.inf:  # written so that NaN fails it
                raise ValueError(f"rate {name} must be >= 0 and finite, got {getattr(self, name)}")

    def ion_total(self) -> float:
        """Total count rate with the ion present (all five sources)."""
        return sum(getattr(self, name) for name in BUDGET_SOURCES)

    def background_total(self) -> float:
        """Total count rate with the ion removed (all sources but fluorescence)."""
        return self.ion_total() - self.fluorescence


BUDGET_SOURCES = tuple(f.name for f in fields(RateBudget))


# The widest linewidth gamma/2pi an emitter takes, in Hz: no atomic transition is that broad,
# and below it the emission rate keeps the QE demo's Poisson draws in numpy's range.
MAX_LINEWIDTH = 1e12


@dataclass(frozen=True)
class EmitterParams:
    """Two-level scatterer: natural linewidth and drive strength.

    gamma_over_2pi_hz is the linewidth gamma/2pi in Hz, > 0 and below
    MAX_LINEWIDTH. saturation_fraction is s/(1+s), the fraction of the fully
    saturated emission rate gamma/2. A value out of range, NaN or ±inf included,
    is a ValueError that names the field and the value.
    """

    gamma_over_2pi_hz: float = 19.6e6
    saturation_fraction: float = 0.83

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0 < self.gamma_over_2pi_hz < math.inf:
            raise ValueError(f"gamma_over_2pi_hz must be > 0 and finite, got {self.gamma_over_2pi_hz}")
        if not self.gamma_over_2pi_hz < MAX_LINEWIDTH:
            raise ValueError(f"gamma_over_2pi_hz must be below {MAX_LINEWIDTH:g} Hz, got {self.gamma_over_2pi_hz}")
        if not 0.0 <= self.saturation_fraction < 1.0 + 1e-12:
            raise ValueError(f"saturation_fraction must lie in [0, 1], got {self.saturation_fraction}")

    @property
    def gamma(self) -> float:
        """Angular linewidth gamma in rad/s."""
        return 2.0 * math.pi * self.gamma_over_2pi_hz


def scattering_rate(emitter: EmitterParams) -> float:
    """Photon emission rate of the driven two-level scatterer.

    Returns (gamma/2) * saturation_fraction, approaching the fully saturated
    rate gamma/2 as the drive saturates.
    """
    return 0.5 * emitter.gamma * emitter.saturation_fraction


def table_budget() -> RateBudget:
    """The measured count budget of the reference device, in counts/s."""
    return RateBudget(
        fluorescence=4800.0,
        repump_scatter=4000.0,
        doppler_scatter=1400.0,
        dark_counts=1200.0,
        rf_pickup=300.0,
    )


# The longest dead time and trial duration, 2^62 ns in seconds: the simulator stamps events
# in int64 nanoseconds up to the duration and adds the dead time to a stamp, so each below
# 2^62 ns (about 146 years) keeps every stamp and sum in range.
MAX_TIME = 2.0**62 * 1e-9


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of everything a simulated trial needs; by default the reference device.

    dead_time is the detector's nonparalyzable dead time in seconds: an event
    within it of the last kept event is dropped. trial_duration must be > 0 and
    dead_time >= 0, each below 2^62 ns (MAX_TIME); any other value is a
    ValueError that names the field and the value.
    """

    budget: RateBudget = field(default_factory=table_budget)
    emitter: EmitterParams = field(default_factory=EmitterParams)
    geometry: DetectorGeometry = field(default_factory=DetectorGeometry)
    trial_duration: float = 50.0
    rng_seed: int = 0
    dead_time: float = 1e-6

    def __post_init__(self):
        if not 0 < self.trial_duration < math.inf:
            raise ValueError(f"trial_duration must be > 0 and finite, got {self.trial_duration}")
        if not 0 <= self.dead_time < math.inf:
            raise ValueError(f"dead_time must be >= 0 and finite, got {self.dead_time}")
        for name in ("trial_duration", "dead_time"):
            if getattr(self, name) >= MAX_TIME:
                raise ValueError(f"{name} must be below 2^62 ns ({MAX_TIME:.6g} s), got {getattr(self, name)}")

