"""Desk-scale simulation and inference for trapped-ion fluorescence readout
with a chip-integrated single-photon avalanche diode."""

from .model import (
    EmitterParams,
    RateBudget,
    Scenario,
    scattering_rate,
    table_budget,
)
from .optics import (
    ActiveAreaMap,
    DetectorGeometry,
    OpticalStack,
    arc_stack,
    efficiency_vs_offset,
    quarter_disc_map,
    stack_reflectance,
)
from .simulator import (
    EventStream,
    FrontEndParams,
    gate_and_count,
    simulate_frontend,
    simulate_stream,
)
from .detection import (
    ThresholdResult,
    analytic_threshold_fidelity,
    fidelity_curve,
    projected_scenario_fidelity,
    threshold_fidelity,
    wald_bound,
)
from .estimation import (
    SpotScan,
    ToggleMeasurement,
    decompose_budget,
    effective_area,
    fit_quantum_efficiency,
)
from .config import ConfigError, load_scenario, scenario_from_text

__version__ = "0.1.0"
