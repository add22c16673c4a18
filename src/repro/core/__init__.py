"""The paper's primary contribution: the design-space tradeoff engine.

Equations 1-7, the design-point API, the Figure 10 sweeps, the fit
re-derivations, the Figure 12 wizard, and validation against commercial
drones.
"""

from repro.core.design import DesignEvaluation, DroneDesign
from repro.core.equations import (
    InfeasibleDesignError,
    WeightBreakdown,
    average_power_w,
    close_weight,
    computation_power_share,
    flight_time_delta_for_power_change_min,
    flight_time_min,
    gained_flight_time_min,
    motor_max_current_a,
    required_c_rating,
    usable_battery_energy_wh,
)
from repro.core.explorer import (
    CAPACITY_SWEEP_MAH,
    FIG10_CELL_COUNTS,
    FIG10_WHEELBASES_MM,
    FootprintPoint,
    SweepPoint,
    SweepResult,
    computation_footprint,
    sweep_all_wheelbases,
    sweep_wheelbase,
)
from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.core.tradeoffs import (
    CatalogFits,
    FitComparison,
    MotorCurrentCurve,
    catalog_fits,
    compare_battery_fits,
    compare_esc_fits,
    fit_battery_weight,
    fit_esc_weight,
    fit_frame_weight,
    motor_current_curves,
)
from repro.core.validation import (
    Figure11Row,
    ValidationPoint,
    baseline_compute_share_range,
    figure11_small_drone_study,
    validate_against_commercial,
)
from repro.core.wizard import DesignWizard, OptimizationOutcome, WizardStep

__all__ = [
    "ParallelSweepRunner",
    "SweepRunnerConfig",
    "CatalogFits",
    "catalog_fits",
    "DesignEvaluation",
    "DroneDesign",
    "InfeasibleDesignError",
    "WeightBreakdown",
    "average_power_w",
    "close_weight",
    "computation_power_share",
    "flight_time_delta_for_power_change_min",
    "flight_time_min",
    "gained_flight_time_min",
    "motor_max_current_a",
    "required_c_rating",
    "usable_battery_energy_wh",
    "CAPACITY_SWEEP_MAH",
    "FIG10_CELL_COUNTS",
    "FIG10_WHEELBASES_MM",
    "FootprintPoint",
    "SweepPoint",
    "SweepResult",
    "computation_footprint",
    "sweep_all_wheelbases",
    "sweep_wheelbase",
    "FitComparison",
    "MotorCurrentCurve",
    "compare_battery_fits",
    "compare_esc_fits",
    "fit_battery_weight",
    "fit_esc_weight",
    "fit_frame_weight",
    "motor_current_curves",
    "Figure11Row",
    "ValidationPoint",
    "baseline_compute_share_range",
    "figure11_small_drone_study",
    "validate_against_commercial",
    "DesignWizard",
    "OptimizationOutcome",
    "WizardStep",
]
