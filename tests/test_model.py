import math

import numpy as np
import pytest

from spadsim.model import (
    BUDGET_SOURCES,
    EmitterParams,
    RateBudget,
    Scenario,
    scattering_rate,
    table_budget,
)


def test_scattering_rate_zero_drive():
    assert scattering_rate(EmitterParams(saturation_fraction=0.0)) == 0.0


def test_scattering_rate_fully_saturated():
    # gamma/2 = pi * 19.6e6 for gamma/2pi = 19.6 MHz
    rate = scattering_rate(EmitterParams(gamma_over_2pi_hz=19.6e6, saturation_fraction=1.0))
    assert rate == pytest.approx(math.pi * 19.6e6, rel=1e-12)
    assert rate == pytest.approx(6.1575e7, rel=1e-3)


def test_scattering_rate_at_83_percent():
    rate = scattering_rate(EmitterParams(gamma_over_2pi_hz=19.6e6, saturation_fraction=0.83))
    assert rate == pytest.approx(0.83 * math.pi * 19.6e6, rel=1e-12)
    assert rate == pytest.approx(5.11e7, rel=2e-3)


def test_scattering_rate_monotone_in_saturation():
    rates = [
        scattering_rate(EmitterParams(saturation_fraction=s))
        for s in np.linspace(0, 0.999, 30)
    ]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_scattering_rate_homogeneous_in_gamma():
    base = EmitterParams(gamma_over_2pi_hz=10e6, saturation_fraction=0.5)
    doubled = EmitterParams(gamma_over_2pi_hz=20e6, saturation_fraction=0.5)
    assert scattering_rate(doubled) == pytest.approx(2 * scattering_rate(base), rel=1e-12)


def test_budget_totals_reference_values():
    b = table_budget()
    assert b.ion_total() == pytest.approx(11700.0)
    assert b.background_total() == pytest.approx(6900.0)


def test_budget_totals_zero_and_single_source():
    assert RateBudget().ion_total() == 0.0 and RateBudget().background_total() == 0.0
    b = RateBudget(fluorescence=5000.0)
    assert b.ion_total() == 5000.0 and b.background_total() == 0.0


def test_budget_totals_linear_in_scaling():
    b = table_budget()
    b3 = RateBudget(**{name: 3.0 * getattr(b, name) for name in BUDGET_SOURCES})
    assert b3.ion_total() == pytest.approx(3 * b.ion_total())
    assert b3.background_total() == pytest.approx(3 * b.background_total())


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        RateBudget(dark_counts=-1.0)


def test_emitter_validation():
    with pytest.raises(ValueError):
        EmitterParams(gamma_over_2pi_hz=0.0)
    with pytest.raises(ValueError):
        EmitterParams(saturation_fraction=1.5)
    with pytest.raises(ValueError):
        EmitterParams(saturation_fraction=-0.1)


# a rate or emitter field that is not finite is named with its value here, not met later as an
# unnamed error inside the Poisson draw
@pytest.mark.parametrize("field", BUDGET_SOURCES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_rate_named(field, value):
    with pytest.raises(ValueError, match=rf"^rate {field} must be >= 0 and finite, got {value}$"):
        RateBudget(**{field: value})


@pytest.mark.parametrize("field", ["gamma_over_2pi_hz", "saturation_fraction"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_emitter_field_named(field, value):
    with pytest.raises(ValueError, match=rf"^{field} .*, got {value}$"):
        EmitterParams(**{field: value})


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(trial_duration=0.0)


# a field that is not finite is named with its value here, not met later inside simulate_stream
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_trial_duration_named(value):
    with pytest.raises(ValueError, match=rf"^trial_duration must be > 0 and finite, got {value}$"):
        Scenario(trial_duration=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_dead_time_named(value):
    with pytest.raises(ValueError, match=rf"^dead_time must be >= 0 and finite, got {value}$"):
        Scenario(dead_time=value)


def test_trial_duration_past_int64_nanoseconds_named():
    # the simulator stamps events in int64 nanoseconds up to the trial duration
    limit = 2.0**62 * 1e-9
    assert Scenario(trial_duration=math.nextafter(limit, 0)).trial_duration < limit
    named = r"^trial_duration must be below 2\^62 ns \(4.61169e\+09 s\), got 10000000000000.0$"
    with pytest.raises(ValueError, match=named):
        Scenario(trial_duration=1e13)


def test_linewidth_past_limit_named():
    assert EmitterParams(gamma_over_2pi_hz=math.nextafter(1e12, 0)).gamma_over_2pi_hz < 1e12
    with pytest.raises(ValueError, match=r"^gamma_over_2pi_hz must be below 1e\+12 Hz, got 1e\+306$"):
        EmitterParams(gamma_over_2pi_hz=1e306)


def test_dead_time_past_int64_nanoseconds_named():
    # the simulator adds the dead time to a timestamp in int64 nanoseconds
    limit = 2.0**62 * 1e-9
    assert Scenario(dead_time=math.nextafter(limit, 0)).dead_time < limit
    named = r"^dead_time must be below 2\^62 ns \(4.61169e\+09 s\), got 4611686018.427388$"
    with pytest.raises(ValueError, match=named):
        Scenario(dead_time=limit)
