"""Chaos trial runner, parallel campaign execution, and replay harness.

One trial = one closed-loop flight of the shared square mission under a
sampled compound fault schedule, watched by the
:class:`~repro.chaos.invariants.SafetyMonitor` and recorded by the
:class:`~repro.chaos.recorder.FlightRecorder`.  The runner's contract is
strict determinism: a :class:`TrialResult` is a pure function of
``(TrialSpec, CampaignConfig)``, which is what lets
:func:`replay_trial` re-fly any failure from its recorded spec and
config and assert bit-for-bit equality of verdicts and metrics.

Every campaign flies in ensemble groups through
:func:`repro.chaos.ensemble.run_trials_ensemble`, one group per work item
of :class:`repro.core.parallel.ParallelSweepRunner` — the same
deterministic-chunking machinery the design-space sweeps use — so a
multi-hundred-trial campaign saturates the machine without giving up
input-order results.  The scalar :func:`run_trial` is the reference the
groups are held to: :func:`replay_trial` and :func:`verify_replay` re-fly
a trial through it.  Both fly a trial through the same
:class:`LaneHarness` and :func:`fly` schedule; only the physics burst
differs.  :func:`repro.faults.scenarios.run_scenario` flies each canned
fault scenario the same way.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.analysis.markers import pure
from repro.autopilot.arducopter import Autopilot, FlightMode, MissionItem
from repro.autopilot.mavlink import Link, MessageType
from repro.autopilot.offload import PoseStalenessWatchdog
from repro.chaos.campaign import CampaignConfig, TrialSpec, generate_campaign
from repro.chaos.invariants import SafetyMonitor, Violation
from repro.chaos.recorder import TRACE_FORMAT, BlackBoxTrace, FlightRecorder
from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.exec.policy import ExecutionPolicy
from repro.exec.report import ExecutionReport, QuarantineRecord
from repro.faults.injectors import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.sim.ensemble import LaneSim
from repro.sim.simulator import DroneModel, FlightSimulator

#: Trial verdicts, ordered by severity.
VERDICT_SAFE = "safe"
VERDICT_VIOLATION = "violation"
VERDICT_CRASH = "crash"

#: The airframe every trial flies.
DEFAULT_MODEL = dict(
    mass_kg=1.071,
    wheelbase_mm=450.0,
    battery_cells=3,
    battery_capacity_mah=3000.0,
)
#: GCS heartbeat period while a trial's heartbeats flow.
HEARTBEAT_PERIOD_S = 1.0


def recovery_time_s(
    autopilot: Autopilot, schedule: FaultSchedule
) -> Optional[float]:
    """Time from the first fault's onset to the first failsafe or
    degradation reaction (None without a fault or a reaction)."""
    onset = schedule.first_fault_s
    if math.isinf(onset):
        return None
    for time_s, text in autopilot.events:
        if time_s + 1e-9 >= onset and (
            text.startswith("FAILSAFE") or text.startswith("DEGRADED")
        ):
            return time_s - onset
    return None


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


class LaneHarness:
    """One trial's control-flow state around the simulator that flies it.

    The simulator is a scalar :class:`~repro.sim.simulator.FlightSimulator`
    when :func:`run_trial` flies the trial alone, or one
    :class:`~repro.sim.ensemble.LaneSim` of a group when
    :func:`repro.chaos.ensemble.run_trials_ensemble` flies it; ``lane``
    names it either way.  :func:`fly` calls :meth:`pre` and :meth:`post`
    around each physics burst and :meth:`judge` at the end.
    """

    def __init__(
        self,
        spec: TrialSpec,
        config: CampaignConfig,
        lane: FlightSimulator | LaneSim,
    ):
        self.spec = spec
        self.config = config
        self.lane = lane
        # A lane facade exposes the full FlightSimulator surface the
        # autopilot/injector/monitor stack reads and writes.
        sim = cast(FlightSimulator, lane)
        self.link = Link(seed=spec.link_seed)
        self.autopilot = Autopilot(sim, link=self.link)
        if spec.offload:
            self.autopilot.pose_watchdog = PoseStalenessWatchdog()
        self.injector = FaultInjector(self.autopilot, spec.schedule)
        self.monitor = SafetyMonitor(
            self.autopilot,
            spec.schedule,
            limits=config.limits,
            envelope=config.envelope,
        )
        self.recorder = FlightRecorder(maxlen=config.recorder_maxlen)
        self.min_soc = sim.battery.state_of_charge
        self.next_heartbeat_s = 0.0
        self.alive = True

    def pre(self) -> None:
        """The control tick's work before the physics burst."""
        sim = self.autopilot.sim
        now = sim.time_s
        self.injector.apply(now)
        if self.spec.heartbeats and now + 1e-9 >= self.next_heartbeat_s:
            self.next_heartbeat_s = now + HEARTBEAT_PERIOD_S
            self.link.send(MessageType.HEARTBEAT)
        if self.spec.offload and not self.injector.offload_blocked(now):
            self.autopilot.pose_watchdog.note_pose(now)
        self.autopilot._update_pre()

    def post(self) -> None:
        """The control tick's work after the physics burst."""
        sim = self.autopilot.sim
        self.autopilot._update_post()
        self.min_soc = min(self.min_soc, sim.battery.state_of_charge)
        self.monitor.check(sim.time_s)
        self.recorder.record(self.autopilot, self.monitor.active_fault_names())
        self.alive = not self.monitor.crashed

    def judge(self) -> TrialResult:
        """The trial's verdict, metrics and (for a failure) black-box trace."""
        autopilot = self.autopilot
        monitor = self.monitor
        spec = self.spec
        if monitor.crashed:
            verdict = VERDICT_CRASH
        elif monitor.violations:
            verdict = VERDICT_VIOLATION
        else:
            verdict = VERDICT_SAFE
        altitude_m = float(autopilot.sim.body.state.position_m[2])
        trace: Optional[BlackBoxTrace] = None
        if verdict != VERDICT_SAFE:
            trace = BlackBoxTrace(
                spec=spec,
                config=self.config,
                verdict=verdict,
                violation=monitor.first_violation,
                events=tuple(autopilot.events),
                ticks=list(self.recorder.ticks),
                dropped_ticks=self.recorder.dropped_ticks,
            )
        return TrialResult(
            spec=spec,
            verdict=verdict,
            violation=monitor.first_violation,
            final_failsafe=autopilot.failsafe.name,
            final_mode=autopilot.mode.value,
            mission_completion=autopilot.mission_progress,
            recovery_time_s=recovery_time_s(autopilot, spec.schedule),
            min_soc=self.min_soc,
            landed=altitude_m < 0.3,
            fault_kinds=tuple(
                sorted({event.kind.value for event in spec.schedule.events})
            ),
            violation_count=len(monitor.violations),
            trace=trace,
        )


def fly(
    harnesses: Sequence[LaneHarness],
    burst: Callable[[float], None],
    config: CampaignConfig,
) -> List[TrialResult]:
    """Fly every harness's trial through the campaign's flight schedule.

    Arm and take off, settle for ``config.settle_s``, then fly the square
    mission in AUTO until ``config.duration_s`` or until every trial has
    crashed; then judge each trial.  A control tick runs three phases:

    1. **pre**, per live harness in order: fault injection, heartbeat,
       offload pose feed and ``Autopilot._update_pre``;
    2. **burst**: ``burst(config.control_step_s)`` advances the physics of
       every live trial;
    3. **post**, per live harness: ``Autopilot._update_post``, SoC
       tracking, invariants and black-box recording.  A trial that
       crashed drops out of the later ticks.

    With one harness and ``burst=sim.run_for`` a tick is exactly the
    scalar ``Autopilot.update``.  Trials are mutually independent, so
    running a group's physics in one burst cannot change any trial's
    outcome.
    """
    for harness in harnesses:
        harness.autopilot.arm()
        harness.autopilot.takeoff(config.takeoff_altitude_m)
    elapsed_s = _fly_until(harnesses, burst, config, 0.0, config.settle_s)
    # The campaign's shared mission: a square around home.
    half_m, altitude_m = config.mission_half_extent_m, config.takeoff_altitude_m
    corners = ((half_m, 0.0), (half_m, half_m), (0.0, half_m), (0.0, 0.0))
    for harness in harnesses:
        if harness.alive:
            harness.autopilot.upload_mission([
                MissionItem(np.array((x, y, altitude_m), dtype=float))
                for x, y in corners
            ])
            harness.autopilot.set_mode(FlightMode.AUTO)
    _fly_until(harnesses, burst, config, elapsed_s, config.duration_s)
    return [harness.judge() for harness in harnesses]


def _fly_until(
    harnesses: Sequence[LaneHarness],
    burst: Callable[[float], None],
    config: CampaignConfig,
    elapsed_s: float,
    end_s: float,
) -> float:
    """Tick until ``end_s`` of flight or every trial has crashed; returns
    the elapsed flight time."""
    step_s = config.control_step_s
    live = [harness for harness in harnesses if harness.alive]
    while live and elapsed_s < end_s:
        for harness in live:
            harness.pre()
        burst(step_s)
        for harness in live:
            harness.post()
        live = [harness for harness in live if harness.alive]
        elapsed_s += step_s
    return elapsed_s


@pure
def run_trial(spec: TrialSpec, config: CampaignConfig) -> TrialResult:
    """Fly one chaos trial to completion (or loss) and judge it."""
    sim = FlightSimulator(
        DroneModel(**DEFAULT_MODEL),
        physics_rate_hz=config.physics_rate_hz,
        use_ekf=spec.use_ekf,
        sensor_seed=spec.sensor_seed,
    )
    [result] = fly([LaneHarness(spec, config, sim)], sim.run_for, config)
    return result


def replay_trial(
    source: Union["TrialResult", BlackBoxTrace, TrialSpec],
    config: CampaignConfig,
) -> TrialResult:
    """Re-fly a trial from its recorded spec.

    Accepts a prior result, a black-box trace loaded from disk, or a bare
    spec; the replay is a fresh closed-loop flight, so comparing its
    :meth:`TrialResult.metrics` against the original is a true end-to-end
    determinism check, not a cache read.  A trace (or a result carrying
    one) replays only under the config it records: a :class:`ValueError`
    names the first field where ``config`` differs, before anything flies.
    """
    if isinstance(source, TrialResult):
        spec, trace = source.spec, source.trace
    elif isinstance(source, BlackBoxTrace):
        spec, trace = source.spec, source
    else:
        spec, trace = source, None
    if trace is not None:
        for item in fields(config):
            flown = getattr(trace.config, item.name)
            given = getattr(config, item.name)
            if flown != given:
                raise ValueError(
                    f"trace of trial {spec.trial_index} was flown with "
                    f"{item.name}={flown!r}, but the replay config has {given!r}"
                )
    return run_trial(spec, config)


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


#: Default number of trials stepped together per ensemble group.  A wider
#: group steps faster but is a coarser retry, quarantine and resume unit.
DEFAULT_ENSEMBLE_WIDTH = 16


#: One ensemble group's work item: its specs, the config, and the
#: :data:`~repro.chaos.recorder.TRACE_FORMAT` of the traces it returns.
EnsembleItem = Tuple[Tuple[TrialSpec, ...], CampaignConfig, int]


def _ensemble_items(
    specs: List[TrialSpec], config: CampaignConfig, width: int
) -> List[EnsembleItem]:
    """Chunk the campaign in trial order into ensemble groups of at most
    ``width`` lanes, EKF and truth-state trials together.

    Each item carries the trace format, so a checkpoint journal's chunk
    fingerprints cover the layout of the results it pickles: a journal
    written under another format is refused on resume, not unpickled.
    """
    return [
        (tuple(specs[start : start + width]), config, TRACE_FORMAT)
        for start in range(0, len(specs), width)
    ]


def _run_ensemble_item(item: EnsembleItem) -> List[TrialResult]:
    """Module-level worker entry point: fly one ensemble group."""
    from repro.chaos.ensemble import run_trials_ensemble

    specs, config, _ = item
    return run_trials_ensemble(specs, config)


def _fly_campaign(
    config: CampaignConfig,
    runner_config: Optional[SweepRunnerConfig],
    ensemble_width: int,
    journal_path: Optional["os.PathLike[str] | str"] = None,
) -> Tuple[List[TrialResult], Optional[ExecutionReport]]:
    """Results in trial order (quarantined groups dropped) + report.

    Each ensemble group is one work item and one chunk, whatever
    ``runner_config.chunk_size`` says.
    """
    if ensemble_width <= 0:
        raise ValueError(f"ensemble width must be positive: {ensemble_width}")
    specs = generate_campaign(config)
    base = runner_config or SweepRunnerConfig(parallel=False)
    runner = ParallelSweepRunner(replace(base, chunk_size=1))
    batches = runner.map(
        _run_ensemble_item,
        _ensemble_items(specs, config, ensemble_width),
        journal=journal_path,
    )
    # Groups are contiguous and come back in input order; a quarantined
    # group comes back as a placeholder, not a list.
    results = [
        result for batch in batches if isinstance(batch, list) for result in batch
    ]
    return results, runner.last_report


def run_campaign(
    config: CampaignConfig,
    runner_config: Optional[SweepRunnerConfig] = None,
    *,
    ensemble_width: int = DEFAULT_ENSEMBLE_WIDTH,
) -> List[TrialResult]:
    """Fly the whole campaign; results come back in trial order.

    Trials fly in trial order in vectorized groups of up to
    ``ensemble_width`` through :func:`repro.chaos.ensemble
    .run_trials_ensemble`.  Each group is one work item of
    :class:`repro.core.parallel.ParallelSweepRunner`, so
    ``runner_config.chunk_size`` does not apply; inline and parallel runs
    return identical result lists, fingerprint-identical to
    :func:`run_trial` on each spec (the contract :func:`verify_replay`
    checks).  Without a ``runner_config.policy`` it fails fast: a trial's
    exception aborts it, and a worker death surfaces as a structured
    :class:`repro.exec.errors.WorkerCrashError`; for a campaign that must
    *survive* such faults, use :func:`run_campaign_supervised`.  A wider
    group steps faster per trial but fails, retries and resumes as a whole.
    """
    results, _ = _fly_campaign(config, runner_config, ensemble_width)
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
    engine: str = "ensemble",
    ensemble_width: int = DEFAULT_ENSEMBLE_WIDTH,
) -> CampaignRun:
    """Fly the campaign under the fault-tolerant execution layer.

    Each ensemble group of up to ``ensemble_width`` trials (see
    :func:`run_campaign`) is one chunk of
    :class:`repro.exec.supervised.SupervisedPool`, whatever
    ``runner_config.chunk_size`` says: it is dispatched, retried,
    quarantined and journaled as a unit.  Worker deaths and hangs are
    retried; a group that poisons every retry is quarantined instead of
    aborting the campaign, and its trials are absent from
    :attr:`CampaignRun.results`.  When ``journal_path`` is given, every
    completed group is checkpointed, so a killed campaign resumes from the
    journal with results bit-for-bit identical to an uninterrupted run
    (groups are regenerated from ``(campaign_seed, trial_index)``, so the
    journal fingerprint check guarantees the resumed groups belong to this
    exact campaign).  So a wider group is a coarser unit: one poisoned
    trial quarantines, and one kill re-flies, up to ``ensemble_width``
    trials.

    ``engine`` accepts only ``"ensemble"``, the one campaign engine.
    """
    if engine != "ensemble":
        raise ValueError(
            f"unknown campaign engine {engine!r} (expected 'ensemble')"
        )
    base = runner_config or SweepRunnerConfig(parallel=False)
    supervised_config = replace(
        base, policy=policy or base.policy or ExecutionPolicy()
    )
    results, report = _fly_campaign(
        config, supervised_config, ensemble_width, journal_path
    )
    quarantined = tuple(report.quarantined) if report is not None else ()
    return CampaignRun(
        results=results, quarantined=quarantined, execution=report
    )
