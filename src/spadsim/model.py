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
    with the ion removed.
    """

    fluorescence: float = 0.0
    repump_scatter: float = 0.0
    doppler_scatter: float = 0.0
    dark_counts: float = 0.0
    rf_pickup: float = 0.0

    def __post_init__(self):
        for name in BUDGET_SOURCES:
            if getattr(self, name) < 0:
                raise ValueError(f"rate {name} must be >= 0")

    def ion_total(self) -> float:
        """Total count rate with the ion present (all five sources)."""
        return sum(getattr(self, name) for name in BUDGET_SOURCES)

    def background_total(self) -> float:
        """Total count rate with the ion removed (all sources but fluorescence)."""
        return self.ion_total() - self.fluorescence

    def scaled(self, c: float) -> "RateBudget":
        return RateBudget(**{name: c * getattr(self, name) for name in BUDGET_SOURCES})


BUDGET_SOURCES = tuple(f.name for f in fields(RateBudget))


@dataclass(frozen=True)
class EmitterParams:
    """Two-level scatterer: natural linewidth and drive strength.

    gamma_over_2pi_hz is the linewidth gamma/2pi in Hz. saturation_fraction is
    s/(1+s), the fraction of the fully saturated emission rate gamma/2.
    """

    gamma_over_2pi_hz: float = 19.6e6
    saturation_fraction: float = 0.83

    def __post_init__(self):
        if self.gamma_over_2pi_hz <= 0:
            raise ValueError("linewidth must be > 0")
        if not 0.0 <= self.saturation_fraction < 1.0 + 1e-12:
            raise ValueError("saturation_fraction must lie in [0, 1]")

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


def saturation_fraction_from_power(power: float, saturation_power: float) -> float:
    """Optional helper mapping drive power to s/(1+s) with s = P/Psat."""
    if power < 0 or saturation_power <= 0:
        raise ValueError("power must be >= 0 and saturation_power > 0")
    s = power / saturation_power
    return s / (1.0 + s)


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of everything a simulated trial needs.

    dead_time is the detector's nonparalyzable dead time in seconds: an event
    within it of the last kept event is dropped.
    """

    budget: RateBudget = field(default_factory=RateBudget)
    emitter: EmitterParams = field(default_factory=EmitterParams)
    geometry: DetectorGeometry = field(default_factory=DetectorGeometry)
    trial_duration: float = 50.0
    rng_seed: int = 0
    dead_time: float = 1e-6

    def __post_init__(self):
        if self.trial_duration <= 0:
            raise ValueError("trial_duration must be > 0")
        if self.dead_time < 0:
            raise ValueError("dead_time must be >= 0")


def table_budget() -> RateBudget:
    """The measured count budget of the reference device, in counts/s."""
    return RateBudget(
        fluorescence=4800.0,
        repump_scatter=4000.0,
        doppler_scatter=1400.0,
        dark_counts=1200.0,
        rf_pickup=300.0,
    )
