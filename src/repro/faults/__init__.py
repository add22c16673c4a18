"""Deterministic fault injection and graceful-degradation scenarios.

The reliability envelope of the paper's closed-loop stack: time-windowed
fault schedules (:mod:`repro.faults.schedule`), injectors that land each
fault in the right subsystem (:mod:`repro.faults.injectors`), the crash
envelope the ``crash.*`` safety invariants judge against
(:mod:`repro.faults.envelope`), and ten canned scenarios measuring
survival, recovery time, and mission-completion degradation
(:mod:`repro.faults.scenarios`).  The scenarios fly through the chaos
trial harness (:mod:`repro.chaos.runner`), so "crashed" means the same
thing for a scenario as for a campaign trial.
"""

from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    OFFLOAD_KINDS,
    PERCEPTION_KINDS,
)
from repro.faults.envelope import CrashEnvelope, DEFAULT_CRASH_ENVELOPE
from repro.faults.injectors import FaultInjector
from repro.faults.perception import (
    PerceptionFaultInjector,
    PerceptionScenario,
    perception_scenarios,
)
from repro.faults.scenarios import (
    Scenario,
    ScenarioResult,
    run_scenario,
    standard_scenarios,
)

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "OFFLOAD_KINDS",
    "PERCEPTION_KINDS",
    "CrashEnvelope",
    "DEFAULT_CRASH_ENVELOPE",
    "FaultInjector",
    "PerceptionFaultInjector",
    "PerceptionScenario",
    "perception_scenarios",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "standard_scenarios",
]
