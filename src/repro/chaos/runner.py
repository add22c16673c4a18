"""Chaos trial runner, parallel campaign execution, and replay harness.

One trial = one closed-loop flight of the shared square mission under a
sampled compound fault schedule, watched by the
:class:`~repro.chaos.invariants.SafetyMonitor` and recorded by the
:class:`~repro.chaos.recorder.FlightRecorder`.  The runner's contract is
strict determinism: a :class:`TrialResult` is a pure function of
``(TrialSpec, CampaignConfig)``, which is what lets
:func:`replay_trial` re-fly any failure from its recorded ``(seed,
schedule)`` tuple and assert bit-for-bit equality of verdicts and metrics.

Campaigns fan trials out with :class:`repro.core.parallel
.ParallelSweepRunner` — the same deterministic-chunking machinery the
design-space sweeps use — so a multi-hundred-trial campaign saturates the
machine without giving up input-order results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.analysis.markers import pure
from repro.autopilot.arducopter import Autopilot, FlightMode, MissionItem
from repro.autopilot.mavlink import Link, MessageType
from repro.autopilot.offload import PoseStalenessWatchdog
from repro.chaos.campaign import CampaignConfig, TrialSpec, generate_campaign
from repro.chaos.invariants import SafetyMonitor, Violation
from repro.chaos.recorder import BlackBoxTrace, FlightRecorder
from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.exec.policy import ExecutionPolicy
from repro.exec.report import ExecutionReport, QuarantineRecord
from repro.faults.injectors import FaultInjector
from repro.faults.scenarios import DEFAULT_MODEL, HEARTBEAT_PERIOD_S
from repro.sim.simulator import DroneModel, FlightSimulator

#: Trial verdicts, ordered by severity.
VERDICT_SAFE = "safe"
VERDICT_VIOLATION = "violation"
VERDICT_CRASH = "crash"


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one chaos trial (deterministic in its spec + config)."""

    spec: TrialSpec
    verdict: str
    violation: Optional[Violation]
    final_failsafe: str
    final_mode: str
    mission_completion: float
    recovery_time_s: Optional[float]
    min_soc: float
    landed: bool
    fault_kinds: Tuple[str, ...]
    violation_count: int
    trace: Optional[BlackBoxTrace]

    @property
    def failed(self) -> bool:
        return self.verdict != VERDICT_SAFE

    @property
    def violated_invariant(self) -> Optional[str]:
        return None if self.violation is None else self.violation.invariant

    def metrics(self) -> Tuple:
        """The determinism fingerprint replayed trials must reproduce
        exactly (verdict, attribution, and every outcome metric)."""
        return (
            self.spec.campaign_seed,
            self.spec.trial_index,
            self.verdict,
            self.violation,
            self.final_failsafe,
            self.final_mode,
            self.mission_completion,
            self.recovery_time_s,
            self.min_soc,
            self.landed,
            self.fault_kinds,
            self.violation_count,
        )


def _square_mission(half_extent_m: float, altitude_m: float) -> List[MissionItem]:
    """The campaign's shared mission: a square around home."""
    corners = (
        (half_extent_m, 0.0, altitude_m),
        (half_extent_m, half_extent_m, altitude_m),
        (0.0, half_extent_m, altitude_m),
        (0.0, 0.0, altitude_m),
    )
    return [MissionItem(np.asarray(corner, dtype=float)) for corner in corners]


def _recovery_time_s(autopilot: Autopilot, spec: TrialSpec) -> Optional[float]:
    """Time from first fault onset to the first ladder reaction."""
    onset_s = spec.schedule.first_fault_s
    if math.isinf(onset_s):
        return None
    for time_s, text in autopilot.events:
        if time_s + 1e-9 >= onset_s and (
            text.startswith("FAILSAFE") or text.startswith("DEGRADED")
        ):
            return time_s - onset_s
    return None


@pure
def run_trial(spec: TrialSpec, config: CampaignConfig) -> TrialResult:
    """Fly one chaos trial to completion (or loss) and judge it."""
    model = DroneModel(**DEFAULT_MODEL)
    sim = FlightSimulator(
        model, physics_rate_hz=config.physics_rate_hz, use_ekf=spec.use_ekf
    )
    link = Link(seed=spec.link_seed)
    autopilot = Autopilot(sim, link=link)
    if spec.offload:
        autopilot.pose_watchdog = PoseStalenessWatchdog()
    injector = FaultInjector(autopilot, spec.schedule)
    monitor = SafetyMonitor(
        autopilot,
        spec.schedule,
        limits=config.limits,
        envelope=config.envelope,
    )
    recorder = FlightRecorder(maxlen=config.recorder_maxlen)

    min_soc = sim.battery.state_of_charge
    next_heartbeat_s = 0.0

    def tick() -> bool:
        """One control cycle; False once a terminal invariant fires."""
        nonlocal min_soc, next_heartbeat_s
        now = sim.time_s
        injector.apply(now)
        if spec.heartbeats and now + 1e-9 >= next_heartbeat_s:
            next_heartbeat_s = now + HEARTBEAT_PERIOD_S
            link.send(MessageType.HEARTBEAT)
        if spec.offload and not injector.offload_blocked(now):
            autopilot.pose_watchdog.note_pose(now)
        autopilot.update(config.control_step_s)
        min_soc = min(min_soc, sim.battery.state_of_charge)
        monitor.check(sim.time_s)
        recorder.record(autopilot, monitor.active_fault_names())
        return not monitor.crashed

    autopilot.arm()
    autopilot.takeoff(config.takeoff_altitude_m)
    elapsed_s = 0.0
    alive = True
    while alive and elapsed_s < config.settle_s:
        alive = tick()
        elapsed_s += config.control_step_s
    if alive:
        autopilot.upload_mission(
            _square_mission(
                config.mission_half_extent_m, config.takeoff_altitude_m
            )
        )
        autopilot.set_mode(FlightMode.AUTO)
        while alive and elapsed_s < config.duration_s:
            alive = tick()
            elapsed_s += config.control_step_s

    if monitor.crashed:
        verdict = VERDICT_CRASH
    elif monitor.violations:
        verdict = VERDICT_VIOLATION
    else:
        verdict = VERDICT_SAFE
    altitude_m = float(sim.body.state.position_m[2])
    trace: Optional[BlackBoxTrace] = None
    if verdict != VERDICT_SAFE:
        trace = BlackBoxTrace(
            campaign_seed=spec.campaign_seed,
            trial_index=spec.trial_index,
            link_seed=spec.link_seed,
            verdict=verdict,
            schedule=spec.schedule,
            violation=monitor.first_violation,
            events=tuple(autopilot.events),
            ticks=list(recorder.ticks),
            dropped_ticks=recorder.dropped_ticks,
        )
    return TrialResult(
        spec=spec,
        verdict=verdict,
        violation=monitor.first_violation,
        final_failsafe=autopilot.failsafe.name,
        final_mode=autopilot.mode.value,
        mission_completion=autopilot.mission_progress,
        recovery_time_s=_recovery_time_s(autopilot, spec),
        min_soc=min_soc,
        landed=altitude_m < 0.3,
        fault_kinds=tuple(
            sorted({event.kind.value for event in spec.schedule.events})
        ),
        violation_count=len(monitor.violations),
        trace=trace,
    )


def run_trial_by_index(config: CampaignConfig, trial_index: int) -> TrialResult:
    """Regenerate and fly one trial from its campaign identity alone."""
    from repro.chaos.campaign import generate_trial

    return run_trial(generate_trial(config, trial_index), config)


def replay_trial(
    source: Union["TrialResult", BlackBoxTrace, TrialSpec],
    config: CampaignConfig,
) -> TrialResult:
    """Re-fly a trial from its recorded ``(seed, schedule)`` tuple.

    Accepts a prior result, a black-box trace loaded from disk, or a bare
    spec; the replay is a fresh closed-loop flight, so comparing its
    :meth:`TrialResult.metrics` against the original is a true end-to-end
    determinism check, not a cache read.
    """
    if isinstance(source, TrialResult):
        spec = source.spec
    elif isinstance(source, BlackBoxTrace):
        spec = _spec_from_trace(source)
    else:
        spec = source
    return run_trial(spec, config)


def _spec_from_trace(trace: BlackBoxTrace) -> TrialSpec:
    """Rebuild the trial spec a trace was flown under.

    Harness flags are re-derived from the schedule's kinds — the same rule
    the campaign generator applied — so the trace file alone suffices.
    """
    from repro.chaos.campaign import EKF_KINDS, LINK_KINDS
    from repro.faults.schedule import FaultKind

    kinds = {event.kind for event in trace.schedule.events}
    return TrialSpec(
        campaign_seed=trace.campaign_seed,
        trial_index=trace.trial_index,
        link_seed=trace.link_seed,
        schedule=trace.schedule,
        use_ekf=any(kind in kinds for kind in EKF_KINDS),
        heartbeats=any(kind in kinds for kind in LINK_KINDS),
        offload=FaultKind.OFFLOAD_STALL in kinds,
    )


def verify_replay(result: TrialResult, config: CampaignConfig) -> bool:
    """True when replaying ``result`` reproduces it bit-for-bit."""
    replayed = replay_trial(result, config)
    if replayed.metrics() != result.metrics():
        return False
    if (result.trace is None) != (replayed.trace is None):
        return False
    if result.trace is not None and replayed.trace is not None:
        return replayed.trace.fingerprint() == result.trace.fingerprint()
    return True


def _run_trial_item(item: Tuple[TrialSpec, CampaignConfig]) -> TrialResult:
    """Module-level worker entry point (must be picklable)."""
    spec, config = item
    return run_trial(spec, config)


#: Default number of trials stepped together per ensemble group.
DEFAULT_ENSEMBLE_WIDTH = 16


def _ensemble_items(
    specs: List[TrialSpec], config: CampaignConfig, width: int
) -> List[Tuple[Tuple[Tuple[int, TrialSpec], ...], CampaignConfig]]:
    """Chunk the campaign into ensemble groups of at most ``width`` lanes.

    Groups are uniform in ``use_ekf`` (the one per-ensemble constant) and
    carry their trials' original indices so results can be restored to
    trial order after a parallel map.
    """
    items = []
    for flag in (False, True):
        indexed = [
            (index, spec)
            for index, spec in enumerate(specs)
            if spec.use_ekf is flag
        ]
        for start in range(0, len(indexed), width):
            items.append((tuple(indexed[start : start + width]), config))
    return items


def _run_ensemble_item(
    item: Tuple[Tuple[Tuple[int, TrialSpec], ...], CampaignConfig],
) -> List[Tuple[int, TrialResult]]:
    """Module-level worker entry point: fly one ensemble group."""
    from repro.chaos.ensemble import run_trials_ensemble

    indexed, config = item
    results = run_trials_ensemble([spec for _, spec in indexed], config)
    return [(index, result) for (index, _), result in zip(indexed, results)]


def _check_engine(engine: str) -> None:
    if engine not in ("scalar", "ensemble"):
        raise ValueError(
            f"unknown campaign engine {engine!r} "
            "(expected 'scalar' or 'ensemble')"
        )


def _fly_campaign(
    config: CampaignConfig,
    runner_config: Optional[SweepRunnerConfig],
    engine: str,
    ensemble_width: int,
    journal_path: Optional["os.PathLike[str] | str"] = None,
) -> Tuple[List[TrialResult], Optional[ExecutionReport]]:
    """Results in trial order (quarantined placeholders dropped) + report."""
    _check_engine(engine)
    specs = generate_campaign(config)
    runner = ParallelSweepRunner(runner_config or SweepRunnerConfig(parallel=False))
    if engine == "scalar":
        items = [(spec, config) for spec in specs]
        raw = runner.map(_run_trial_item, items, journal=journal_path)
        results = [result for result in raw if isinstance(result, TrialResult)]
        return results, runner.last_report
    batches = runner.map(
        _run_ensemble_item,
        _ensemble_items(specs, config, ensemble_width),
        journal=journal_path,
    )
    ordered: List[Optional[TrialResult]] = [None] * len(specs)
    for batch in batches:
        if isinstance(batch, list):
            for index, result in batch:
                ordered[index] = result
    return [result for result in ordered if result is not None], runner.last_report


def run_campaign(
    config: CampaignConfig,
    runner_config: Optional[SweepRunnerConfig] = None,
    *,
    engine: str = "scalar",
    ensemble_width: int = DEFAULT_ENSEMBLE_WIDTH,
) -> List[TrialResult]:
    """Fly the whole campaign; results come back in trial order.

    Parallelism reuses :class:`repro.core.parallel.ParallelSweepRunner`'s
    deterministic chunking, so inline and parallel runs return identical
    result lists.  Without a ``runner_config.policy`` it fails fast: a
    trial's exception aborts it, and a worker death surfaces as a
    structured :class:`repro.exec.errors.WorkerCrashError`; for a campaign
    that must *survive* such faults, use :func:`run_campaign_supervised`.

    ``engine="ensemble"`` flies trials in vectorized groups of up to
    ``ensemble_width`` through :func:`repro.chaos.ensemble
    .run_trials_ensemble` — each parallel work item steps a whole group
    instead of one trial.  Results are fingerprint-identical to the
    scalar engine (the contract :func:`verify_replay` checks), just
    faster.
    """
    results, _ = _fly_campaign(config, runner_config, engine, ensemble_width)
    return results


@dataclass
class CampaignRun:
    """A supervised campaign: surviving trials plus execution accounting."""

    #: Trial results in trial order; quarantined trials are absent here
    #: and listed in :attr:`quarantined` instead.
    results: List[TrialResult]
    quarantined: Tuple[QuarantineRecord, ...]
    execution: Optional[ExecutionReport]


def run_campaign_supervised(
    config: CampaignConfig,
    runner_config: Optional[SweepRunnerConfig] = None,
    journal_path: Optional["os.PathLike[str] | str"] = None,
    policy: Optional[ExecutionPolicy] = None,
    *,
    engine: str = "scalar",
    ensemble_width: int = DEFAULT_ENSEMBLE_WIDTH,
) -> CampaignRun:
    """Fly the campaign under the fault-tolerant execution layer.

    Trials run through :class:`repro.exec.supervised.SupervisedPool`:
    worker deaths and hangs are retried, a trial that poisons every retry
    is quarantined instead of aborting the campaign, and — when
    ``journal_path`` is given — every completed chunk is checkpointed so a
    killed campaign resumes from the journal with results bit-for-bit
    identical to an uninterrupted run (trial chunks are regenerated from
    ``(campaign_seed, trial_index)``, so the journal fingerprint check
    guarantees the resumed chunks belong to this exact campaign).

    With ``engine="ensemble"`` each supervised work item is a whole
    ensemble group of up to ``ensemble_width`` trials, so retry and
    quarantine operate at group granularity: a group that poisons every
    retry is quarantined together, and its trials are absent from
    :attr:`CampaignRun.results`.
    """
    base = runner_config or SweepRunnerConfig(parallel=False)
    supervised_config = replace(
        base, policy=policy or base.policy or ExecutionPolicy()
    )
    results, report = _fly_campaign(
        config, supervised_config, engine, ensemble_width, journal_path
    )
    quarantined = tuple(report.quarantined) if report is not None else ()
    return CampaignRun(
        results=results, quarantined=quarantined, execution=report
    )
