"""Ensemble chaos campaign driver: N trials per vectorized simulator.

:func:`repro.chaos.runner.run_trial` flies one trial at a time — injector,
autopilot, monitor, and recorder all wrapped around one scalar
:class:`~repro.sim.simulator.FlightSimulator`.  This module flies a *group*
of trials against one :class:`~repro.sim.ensemble.EnsembleFlightSimulator`:
each trial keeps its own autopilot/injector/monitor/recorder harness (that
logic is per-trial scalar control flow), but the 200–500 Hz physics burst
between control ticks runs once for the whole group through the ensemble's
masked NumPy kernels.

The lockstep schedule preserves the scalar trial's exact per-tick sequence:

1. **Phase A** (per lane, in lane order): fault injection, heartbeat,
   offload pose feed, and ``Autopilot._update_pre`` — everything the scalar
   tick does before the physics burst.
2. **Burst**: one ``EnsembleFlightSimulator.run_for`` steps every live
   attached lane; lanes that defected mid-flight step their scalar
   backends individually.
3. **Phase B** (per lane): ``Autopilot._update_post``, SoC tracking,
   invariant evaluation, and black-box recording.  A lane whose trial
   crashed is frozen out of the ensemble mask and stops consuming work.

Because trials are mutually independent and every lane's sensor/wind RNG
stream is preserved bit-for-bit by the ensemble (see
``repro.sim.ensemble``'s equivalence contract), the interleaving cannot
change any trial's outcome: ``run_trials_ensemble`` returns
:class:`~repro.chaos.runner.TrialResult` objects whose
:meth:`~repro.chaos.runner.TrialResult.metrics` fingerprints — and
black-box traces — are identical to the scalar engine's, which is exactly
what :func:`repro.chaos.runner.verify_replay` checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, cast

from repro.autopilot.arducopter import Autopilot, FlightMode
from repro.autopilot.mavlink import Link, MessageType
from repro.autopilot.offload import PoseStalenessWatchdog
from repro.chaos.campaign import CampaignConfig, TrialSpec
from repro.chaos.invariants import SafetyMonitor
from repro.chaos.recorder import BlackBoxTrace, FlightRecorder
from repro.chaos.runner import (
    VERDICT_CRASH,
    VERDICT_SAFE,
    VERDICT_VIOLATION,
    TrialResult,
    _recovery_time_s,
    _square_mission,
)
from repro.faults.injectors import FaultInjector
from repro.faults.scenarios import DEFAULT_MODEL, HEARTBEAT_PERIOD_S
from repro.sim.ensemble import EnsembleFlightSimulator, LaneSim
from repro.sim.simulator import DroneModel, FlightSimulator

__all__ = ["LaneHarness", "run_trials_ensemble"]


class LaneHarness:
    """One trial's scalar control-flow state, wrapped around one lane.

    Mirrors the locals of :func:`repro.chaos.runner.run_trial` —
    link, autopilot, injector, monitor, recorder, ``min_soc``, heartbeat
    deadline — so the lockstep driver can run the identical per-tick
    sequence with the physics burst hoisted out.
    """

    def __init__(
        self,
        spec: TrialSpec,
        config: CampaignConfig,
        lane: LaneSim,
        index: int,
    ):
        self.spec = spec
        self.lane = lane
        self.index = index
        # The lane facade exposes the full FlightSimulator surface the
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
        """The scalar tick's work before the physics burst."""
        sim = self.autopilot.sim
        now = sim.time_s
        self.injector.apply(now)
        if self.spec.heartbeats and now + 1e-9 >= self.next_heartbeat_s:
            self.next_heartbeat_s = now + HEARTBEAT_PERIOD_S
            self.link.send(MessageType.HEARTBEAT)
        if self.spec.offload and not self.injector.offload_blocked(now):
            self.autopilot.pose_watchdog.note_pose(now)
        self.autopilot._update_pre()

    def post(self, ensemble: EnsembleFlightSimulator) -> None:
        """The scalar tick's work after the physics burst."""
        sim = self.autopilot.sim
        self.autopilot._update_post()
        self.min_soc = min(self.min_soc, sim.battery.state_of_charge)
        self.monitor.check(sim.time_s)
        self.recorder.record(self.autopilot, self.monitor.active_fault_names())
        if self.monitor.crashed:
            self.alive = False
            if self.lane.attached:
                ensemble.freeze_lane(self.index)

    def judge(self) -> TrialResult:
        """The trial verdict epilogue, identical to ``run_trial``'s."""
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
                campaign_seed=spec.campaign_seed,
                trial_index=spec.trial_index,
                link_seed=spec.link_seed,
                verdict=verdict,
                schedule=spec.schedule,
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
            recovery_time_s=_recovery_time_s(autopilot, spec),
            min_soc=self.min_soc,
            landed=altitude_m < 0.3,
            fault_kinds=tuple(
                sorted({event.kind.value for event in spec.schedule.events})
            ),
            violation_count=len(monitor.violations),
            trace=trace,
        )


def _tick_group(
    harnesses: List[LaneHarness],
    ensemble: EnsembleFlightSimulator,
    config: CampaignConfig,
) -> None:
    """One lockstep control tick across the whole group."""
    for harness in harnesses:
        if harness.alive:
            harness.pre()
    if any(h.alive and h.lane.attached for h in harnesses):
        ensemble.run_for(config.control_step_s)
    for harness in harnesses:
        if harness.alive and not harness.lane.attached:
            harness.lane.run_for(config.control_step_s)
    for harness in harnesses:
        if harness.alive:
            harness.post(ensemble)


def _fly_group(
    specs: Sequence[TrialSpec], config: CampaignConfig
) -> List[TrialResult]:
    """Fly one group through one ensemble, each lane on its own ``use_ekf``."""
    model = DroneModel(**DEFAULT_MODEL)
    ensemble = EnsembleFlightSimulator(
        model,
        len(specs),
        physics_rate_hz=config.physics_rate_hz,
        use_ekf=[spec.use_ekf for spec in specs],
    )
    harnesses = [
        LaneHarness(spec, config, ensemble.lane(index), index)
        for index, spec in enumerate(specs)
    ]

    for harness in harnesses:
        harness.autopilot.arm()
        harness.autopilot.takeoff(config.takeoff_altitude_m)
    elapsed_s = 0.0
    while elapsed_s < config.settle_s and any(h.alive for h in harnesses):
        _tick_group(harnesses, ensemble, config)
        elapsed_s += config.control_step_s
    for harness in harnesses:
        if harness.alive:
            harness.autopilot.upload_mission(
                _square_mission(
                    config.mission_half_extent_m, config.takeoff_altitude_m
                )
            )
            harness.autopilot.set_mode(FlightMode.AUTO)
    while elapsed_s < config.duration_s and any(h.alive for h in harnesses):
        _tick_group(harnesses, ensemble, config)
        elapsed_s += config.control_step_s

    return [harness.judge() for harness in harnesses]


def run_trials_ensemble(
    specs: Sequence[TrialSpec],
    config: CampaignConfig,
    ensemble_width: Optional[int] = None,
) -> List[TrialResult]:
    """Fly ``specs`` through ensemble groups; results in input order.

    Specs are chunked in input order into groups of at most
    ``ensemble_width`` lanes (one group when it is ``None``), EKF and
    truth-state trials together; each group flies in lockstep through one
    :class:`~repro.sim.ensemble.EnsembleFlightSimulator`.  Every result is
    fingerprint-identical to :func:`repro.chaos.runner.run_trial` on the
    same ``(spec, config)``.
    """
    if ensemble_width is not None and ensemble_width <= 0:
        raise ValueError(
            f"ensemble width must be positive: {ensemble_width}"
        )
    width = ensemble_width or len(specs) or 1
    results: List[TrialResult] = []
    for start in range(0, len(specs), width):
        results.extend(_fly_group(specs[start : start + width], config))
    return results
