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
    bare_silicon_stack,
    collection_efficiency,
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
    BayesianConfig,
    DetectionOutcome,
    ThresholdResult,
    analytic_threshold_fidelity,
    bayesian_detect,
    fidelity_curve,
    projected_scenario_fidelity,
    threshold_fidelity,
    wald_bound,
)
from .estimation import (
    QEFitInput,
    SpotScan,
    ToggleMeasurement,
    decompose_budget,
    effective_area,
    fit_quantum_efficiency,
    fit_saturation,
)
from .config import ConfigError, load_scenario, scenario_from_text, scenario_to_text

__version__ = "0.1.0"
