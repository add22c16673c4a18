"""Outer-loop resilience: relocalization, fallback chain, thermal degradation.

This layer sits strictly above ``slam``, ``autopilot``, ``platforms``,
``faults``, and ``control`` in the dependency DAG: it supervises those
subsystems under fault injection and quantifies what each degradation
tier costs in the paper's design-space currency.
"""

from repro.resilience.guards import MapCheckpoint
from repro.resilience.relocalization import (
    LossEpisode,
    RelocalizationLadder,
    RelocalizationReport,
    Remedy,
    SupervisedSlamPipeline,
)
from repro.resilience.study import (
    DegradationOutcome,
    TierCost,
    degradation_study,
    fallback_tier_costs,
    run_perception_scenario,
)
from repro.resilience.supervisor import (
    FallbackReport,
    NavTier,
    OffloadSupervisor,
    ONBOARD_REDUCED_KEYFRAME_INTERVAL,
    TierTransition,
    onboard_reduced_deadlines,
    simulate_fallback_chain,
)
from repro.resilience.thermal import (
    ComputeThermalProfile,
    DeadlineFrameSkipPolicy,
    ThermalDeadlineStudy,
    ThermalGovernor,
    rpi4_compute_thermal,
    thermal_deadline_study,
    tx2_compute_thermal,
)

__all__ = [
    "MapCheckpoint",
    "LossEpisode",
    "RelocalizationLadder",
    "RelocalizationReport",
    "Remedy",
    "SupervisedSlamPipeline",
    "DegradationOutcome",
    "TierCost",
    "degradation_study",
    "fallback_tier_costs",
    "run_perception_scenario",
    "FallbackReport",
    "NavTier",
    "OffloadSupervisor",
    "ONBOARD_REDUCED_KEYFRAME_INTERVAL",
    "TierTransition",
    "onboard_reduced_deadlines",
    "simulate_fallback_chain",
    "ComputeThermalProfile",
    "DeadlineFrameSkipPolicy",
    "ThermalDeadlineStudy",
    "ThermalGovernor",
    "rpi4_compute_thermal",
    "thermal_deadline_study",
    "tx2_compute_thermal",
]
