"""Chaos campaign engine: generated fault campaigns with safety verdicts.

The robustness layer above the hand-written scenario matrix
(:mod:`repro.faults.scenarios`): four cooperating pieces that together turn
"does the stack survive these ten faults?" into "what is the failure
surface of the stack under compound, unanticipated fault combinations?"

* :mod:`repro.chaos.campaign` — samples reproducible compound
  :class:`~repro.faults.schedule.FaultSchedule`\\ s from
  ``(campaign_seed, trial_index)``;
* :mod:`repro.chaos.invariants` — the declarative per-tick
  :class:`SafetyMonitor` with first-violation attribution;
* :mod:`repro.chaos.recorder` — the black-box
  :class:`FlightRecorder` ring buffer and JSON crash traces;
* :mod:`repro.chaos.runner` / :mod:`repro.chaos.triage` — deterministic
  trial execution, bit-for-bit replay verification, parallel campaign
  fan-out, and failure-bucket aggregation.

Run ``python -m repro.chaos --help`` for the campaign CLI.
"""

from repro.chaos.campaign import (
    CHAOS_KINDS,
    CampaignConfig,
    TrialSpec,
    generate_campaign,
    generate_trial,
    sample_schedule,
    trial_rng,
)
from repro.chaos.invariants import (
    Invariant,
    SafetyLimits,
    SafetyMonitor,
    Violation,
    invariant_catalog,
)
from repro.chaos.ensemble import LaneHarness, run_trials_ensemble
from repro.chaos.recorder import BlackBoxTrace, FlightRecorder, TickRecord
from repro.chaos.runner import (
    CampaignRun,
    TrialResult,
    VERDICT_CRASH,
    VERDICT_SAFE,
    VERDICT_VIOLATION,
    replay_trial,
    run_campaign,
    run_campaign_supervised,
    run_trial,
    verify_replay,
)
from repro.chaos.triage import (
    CampaignReport,
    FailureBucket,
    percentile,
    triage,
)

__all__ = [
    "CHAOS_KINDS",
    "CampaignConfig",
    "TrialSpec",
    "generate_campaign",
    "generate_trial",
    "sample_schedule",
    "trial_rng",
    "Invariant",
    "SafetyLimits",
    "SafetyMonitor",
    "Violation",
    "invariant_catalog",
    "BlackBoxTrace",
    "FlightRecorder",
    "LaneHarness",
    "TickRecord",
    "run_trials_ensemble",
    "CampaignRun",
    "TrialResult",
    "VERDICT_CRASH",
    "VERDICT_SAFE",
    "VERDICT_VIOLATION",
    "replay_trial",
    "run_campaign",
    "run_campaign_supervised",
    "run_trial",
    "verify_replay",
    "CampaignReport",
    "FailureBucket",
    "percentile",
    "triage",
]
