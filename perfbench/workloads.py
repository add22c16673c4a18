"""The three benchmark workloads and the library layers they exercise.

Each workload builds its inputs from one seed in :meth:`setup`, then runs
identical operations (one op = one flight, one campaign, one outer-loop
pass) until the time budget is spent.  An op returns timing samples and a
digest of everything it simulated; its output checks run outside the
timed region.  Every op of a run flies the same inputs, so every op must
reproduce op 0's digest.

* ``flight`` — one scalar EKF flight at 500 Hz in gusty wind around a
  square: every per-tick scalar layer (sensors, EKF, controller, mixer,
  rigid body, battery, recorder) and nothing else.
* ``campaign`` — a fault-injected chaos campaign at ``CampaignConfig``
  defaults through the supervised ensemble engine with a checkpoint
  journal: batched physics plus per-trial Python chaos layers.
* ``outer_loop`` — SLAM over EuRoC MH01 and V203 (frames synthesized in
  set-up, as loading the dataset would be) and the Figure 15 interference
  study on the trace-driven core model; the flight layers are idle.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.chaos.ensemble as chaos_ensemble
import repro.platforms.perf as platforms_perf
import repro.platforms.trace_engine as trace_engine
import repro.slam.pipeline as slam_pipeline
from repro.chaos import CampaignConfig, run_campaign_supervised, triage, verify_replay
from repro.chaos.ensemble import LaneHarness
from repro.chaos.invariants import SafetyMonitor
from repro.chaos.recorder import FlightRecorder
from repro.control.cascade import HierarchicalController
from repro.control.estimation import InsEkf
from repro.control.mixer import MotorMixer
from repro.core.parallel import SweepRunnerConfig
from repro.exec.journal import CheckpointJournal
from repro.exec.supervised import SupervisedPool
from repro.faults.injectors import FaultInjector
from repro.faults.scenarios import DEFAULT_MODEL
from repro.physics.battery_model import LipoBattery
from repro.physics.environment import Wind
from repro.physics.rigid_body import QuadcopterBody
from repro.platforms.cpu import InOrderCore
from repro.sensors.suite import SensorSuite
from repro.sim.ensemble import EnsembleFlightSimulator
from repro.sim.simulator import DroneModel, FlightSimulator
from repro.slam.dataset import SyntheticSequence, cached_sequence, clear_sequence_cache
from repro.slam.features import OrbExtractor
from repro.slam.pipeline import SlamPipeline, Stage

from spans import Tracer

#: Flight: square half-extent, altitude, seconds per leg, the tail of each
#: leg over which hover error is judged, and its bound.
SQUARE_M = 5.0
ALTITUDE_M = 5.0
LEG_S = 6
HOVER_WINDOW_S = 2.0
HOVER_BOUND_M = 1.0
#: Campaign size: one ensemble group per ``use_ekf`` value, each about
#: half of the trials wide, so the group count does not vary with the seed.
CAMPAIGN_TRIALS = 32
#: Failed trials re-flown by ``verify_replay`` in the first op.
REPLAY_SAMPLE = 1
SLAM_SEQUENCES = ("MH01", "V203")
#: ``StageBreakdown`` stages; matching ops count toward feature extraction.
SLAM_STAGE_OPS = {
    "extract_match": Stage.FEATURE_EXTRACTION,
    "track": Stage.TRACKING,
    "local_ba": Stage.LOCAL_BA,
    "global_ba": Stage.GLOBAL_BA,
}
ATE_BOUND_M = 1.0
#: Simulated seconds flown in set-up so lazy caches fill before timing.
WARMUP_S = 1.0


@dataclass
class OpResult:
    """What one operation did: timing samples, outputs, and checks."""

    #: ``(work units, host seconds)`` per timed sample.
    samples: List[Tuple[float, float]]
    digest: str
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Extra rates the report line prints by name, e.g. ``frames_per_s``.
    rates: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers read from the op's outputs, keyed by metric name.
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(seconds for _, seconds in self.samples)


def _digest(*parts: Any) -> str:
    """Hash of the outputs: arrays by their bytes (``repr`` would round
    and elide them), everything else by its exact ``repr``."""
    sha = hashlib.sha256()

    def feed(part: Any) -> None:
        if isinstance(part, np.ndarray):
            sha.update(part.tobytes())
        elif isinstance(part, (list, tuple)):
            for item in part:
                feed(item)
        else:
            sha.update(repr(part).encode())

    feed(parts)
    return sha.hexdigest()[:16]


def _timed(tracer: "Tracer | None", fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` as one timed sample (a ``driver`` span when traced)."""
    if tracer is None:
        t0 = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - t0
    with tracer.span("driver"):
        t0 = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - t0
    return value, seconds


class Workload:
    name = ""
    #: Set-ups timed per run; ``setup_s`` is their median.
    setup_repeats = 9
    #: Checked operations (flights, trials, SLAM runs and studies) per op.
    attempted_per_op = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, tracer: "Tracer | None") -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Flight(Workload):
    name = "flight"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(1.0, 3.0)
        self.mean_wind = (speed * math.cos(heading), speed * math.sin(heading), 0.0)
        self.gust_m_s = float(rng.uniform(1.0, 2.0))
        self.waypoints = [
            (0.0, 0.0, ALTITUDE_M),
            (SQUARE_M, 0.0, ALTITUDE_M),
            (SQUARE_M, SQUARE_M, ALTITUDE_M),
            (0.0, SQUARE_M, ALTITUDE_M),
            (0.0, 0.0, ALTITUDE_M),
        ]
        # Warm-up: a short flight fills the simulator's lazy caches.
        self._simulator().run_for(WARMUP_S)

    def _simulator(self) -> FlightSimulator:
        wind = Wind(mean_m_s=self.mean_wind, gust_speed_m_s=self.gust_m_s, seed=self.seed)
        return FlightSimulator(
            DroneModel(**DEFAULT_MODEL), physics_rate_hz=500.0, use_ekf=True, wind=wind
        )

    def run_op(self, tracer: "Tracer | None") -> OpResult:
        sim = self._simulator()
        samples: List[Tuple[float, float]] = []
        hover_errors = []
        failures: List[str] = []
        for waypoint in self.waypoints:
            sim.goto(waypoint)
            for _ in range(LEG_S):
                _, seconds = _timed(tracer, lambda: sim.run_for(1.0))
                samples.append((1.0, seconds))
            hover_errors.append(
                sim.hover_position_error_m(np.asarray(waypoint), sim.time_s - HOVER_WINDOW_S)
            )
        state = sim.body.state
        finite = all(
            np.all(np.isfinite(vector))
            for vector in (state.position_m, state.velocity_m_s, state.quaternion, sim.ekf.state)
        )
        if not finite:
            failures.append("non-finite vehicle or EKF state")
        if sim.ekf_resets:
            failures.append(f"{sim.ekf_resets} EKF resets")
        for waypoint, error in zip(self.waypoints, hover_errors):
            if not error <= HOVER_BOUND_M:
                failures.append(f"hover error {error:.3f} m at {waypoint}")
        recorded = np.array(
            [
                np.concatenate(
                    (s.position_m, s.velocity_m_s, s.euler_rad, s.motor_thrusts_n,
                     (s.electrical_power_w, s.battery_voltage_v, s.battery_soc))
                )
                for s in sim.samples
            ]
        )
        mixer = sim.controller.thrust_controller.mixer
        return OpResult(
            samples=samples,
            digest=_digest(recorded, sim.ekf.state, sim.ekf.covariance, hover_errors),
            attempted=self.attempted_per_op,
            failures=failures,
            rates={"sim_s_per_s": float(np.median([w / s for w, s in samples]))},
            stats={
                "mixer.saturation_ratio": mixer.saturations / max(1, mixer.mixes),
                "sim.samples": len(sim.samples),
            },
        )


class Campaign(Workload):
    name = "campaign"
    attempted_per_op = CAMPAIGN_TRIALS

    def setup(self) -> None:
        self.config = CampaignConfig(campaign_seed=self.seed, trials=CAMPAIGN_TRIALS)
        self.scratch = self.workdir / f"campaign-{os.getpid()}"
        self.scratch.mkdir(exist_ok=True)
        self._replayed = False
        # Warm-up: a short two-lane ensemble flight fills the lazy caches.
        EnsembleFlightSimulator(
            DroneModel(**DEFAULT_MODEL), 2,
            physics_rate_hz=self.config.physics_rate_hz, use_ekf=True,
        ).run_for(WARMUP_S)

    def run_op(self, tracer: "Tracer | None") -> OpResult:
        journal = self.scratch / "journal.jsonl"
        if journal.exists():
            journal.unlink()
        run, seconds = _timed(
            tracer,
            lambda: run_campaign_supervised(
                self.config,
                SweepRunnerConfig(parallel=False),
                journal,
                engine="ensemble",
                ensemble_width=CAMPAIGN_TRIALS,
            ),
        )
        results = run.results
        failures: List[str] = []
        judged = {result.spec.trial_index for result in results}
        missing = self.config.trials - len(judged)
        failures.extend(f"trial not judged ({len(run.quarantined)} quarantined)" for _ in range(missing))
        report = triage(results) if results else None
        if report is None or report.safe + report.violations + report.crashes != self.config.trials:
            failures.append("triage totals differ from the trial count")
        if not self._replayed:
            self._replayed = True
            for result in [r for r in results if r.failed][:REPLAY_SAMPLE]:
                if not verify_replay(result, self.config):
                    failures.append(f"trial {result.spec.trial_index} does not replay bit for bit")
        digest = _digest(
            [result.metrics() for result in results],
            [None if r.trace is None else r.trace.fingerprint() for r in results],
        )
        return OpResult(
            samples=[(float(len(results)), seconds)],
            digest=digest,
            attempted=self.attempted_per_op,
            failures=failures,
            rates={"trials_per_s": len(results) / seconds},
            stats={
                "exec.journal_bytes": journal.stat().st_size,
                "exec.chunks": run.execution.chunks_total,
                "exec.retries": run.execution.retries,
                "exec.quarantined": len(run.quarantined),
            },
        )

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class OuterLoop(Workload):
    name = "outer_loop"
    setup_repeats = 3

    def setup(self) -> None:
        # Stands in for reading EuRoC from disk: synthesize every frame.
        clear_sequence_cache()
        self.attempted_per_op = len(SLAM_SEQUENCES) + 1
        self.sequences = []
        for name in SLAM_SEQUENCES:
            sequence = cached_sequence(name, seed=self.seed)
            for index in range(sequence.frame_count):
                sequence.generate_frame(index)
            self.sequences.append(sequence)

    def run_op(self, tracer: "Tracer | None") -> OpResult:
        def slam() -> list:
            return [SlamPipeline(sequence).run() for sequence in self.sequences]

        results, slam_s = _timed(tracer, slam)
        study, study_s = _timed(
            tracer, lambda: platforms_perf.run_interference_study(seed=self.seed)
        )
        failures: List[str] = []
        for result in results:
            if not result.ate_rmse_m <= ATE_BOUND_M:
                failures.append(f"{result.sequence_name}: ATE {result.ate_rmse_m:.3f} m")
            if result.keyframes == 0 or result.map_points == 0:
                failures.append(f"{result.sequence_name}: empty map")
        if not study.ipc_degradation > 1.0 or not study.tlb_miss_multiplier > 1.0:
            failures.append(
                f"Fig 15 direction: IPC degradation {study.ipc_degradation:.3f}, "
                f"TLB miss multiplier {study.tlb_miss_multiplier:.3f}"
            )
        counters = (study.autopilot_alone, study.slam_alone, study.autopilot_corun, study.slam_corun)
        corun = study.autopilot_corun
        instructions = sum(c.instructions for c in counters)
        frames = sum(result.frames_processed for result in results)
        stage_ops = {
            stage: sum(r.breakdown.operations[member] for r in results)
            for stage, member in SLAM_STAGE_OPS.items()
        }
        return OpResult(
            samples=[(1.0, slam_s + study_s)],
            digest=_digest(
                [r.estimated_trajectory for r in results],
                [(r.keyframes, r.map_points, r.tracking_failures, sorted(
                    (stage.value, ops) for stage, ops in r.breakdown.operations.items()
                )) for r in results],
                counters,
            ),
            attempted=self.attempted_per_op,
            failures=failures,
            rates={
                "frames_per_s": frames / slam_s,
                "minstr_per_s": instructions / 1e6 / study_s,
            },
            stats={
                **{f"slam.{stage}.ops": ops for stage, ops in stage_ops.items()},
                "slam.ba_op_share": (stage_ops["local_ba"] + stage_ops["global_ba"])
                / sum(stage_ops.values()),
                "slam.tracking_success_ratio": 1.0
                - sum(r.tracking_failures for r in results) / frames,
                "platforms.ipc_degradation": study.ipc_degradation,
                "platforms.tlb_miss_multiplier": study.tlb_miss_multiplier,
                "platforms.corun_ipc": corun.ipc,
                "platforms.corun_llc_miss_rate": corun.llc_miss_rate,
                "platforms.corun_tlb_miss_rate": corun.tlb_miss_rate,
                "platforms.corun_branch_miss_rate": corun.branch_miss_rate,
            },
        )


WORKLOADS = {cls.name: cls for cls in (Flight, Campaign, OuterLoop)}


def _count_lane_steps(tracer: Tracer) -> Callable:
    def hook(ensemble: EnsembleFlightSimulator, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts["ensemble.lane_steps"] += ensemble.n_lanes
        tracer.counts["ensemble.live_lane_steps"] += int(ensemble.live.sum())

    return hook


def _count_lane_resets(tracer: Tracer) -> Callable:
    def hook(harness: LaneHarness, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts["ekf.lane_resets"] += harness.lane.ekf_resets

    return hook


def _count_core_work(tracer: Tracer) -> Callable:
    # Every ``run_segments`` call of the Fig 15 study starts from zeroed
    # cache statistics (a fresh core or ``reset_counters``), so the L1
    # statistics after the call are that call's alone.
    def hook(core: InOrderCore, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts["platforms.instructions"] += sum(trace.length for _, trace in args[1])
        tracer.counts["platforms.l1_accesses"] += core.l1.stats.accesses
        tracer.counts["platforms.l1_misses"] += core.l1.stats.misses

    return hook


def _count_batch_runs(tracer: Tracer) -> Callable:
    def hook(_: None, args: tuple, kwargs: dict, result: Any) -> None:
        if result is not None:
            tracer.counts["platforms.batch_runs"] += 1

    return hook


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry of every layer the workloads exercise."""
    wraps = [
        (SensorSuite, "poll", "sensors", None),
        (InsEkf, "predict", "ekf", None),
        (InsEkf, "update_gps", "ekf", None),
        (InsEkf, "update_barometer", "ekf", None),
        (InsEkf, "update_magnetometer", "ekf", None),
        (InsEkf, "reset", "ekf", None),
        (HierarchicalController, "tick", "controller", None),
        (MotorMixer, "mix", "mixer", None),
        (QuadcopterBody, "step", "rigid_body", None),
        (LipoBattery, "draw", "battery", None),
        (FlightSimulator, "electrical_power_w", "battery", None),
        (FlightSimulator, "step", "sim", None),
        (FlightSimulator, "run_for", "sim", None),
        (EnsembleFlightSimulator, "run_for", "ensemble", None),
        (EnsembleFlightSimulator, "step", "ensemble", _count_lane_steps(tracer)),
        (EnsembleFlightSimulator, "freeze_lane", "ensemble", None),
        (EnsembleFlightSimulator, "materialize_lane", "ensemble", None),
        (FaultInjector, "apply", "chaos.inject", None),
        (LaneHarness, "pre", "chaos.autopilot", None),
        (LaneHarness, "post", "chaos.autopilot", None),
        (SafetyMonitor, "check", "chaos.invariants", None),
        (FlightRecorder, "record", "chaos.blackbox", None),
        (LaneHarness, "judge", "chaos.blackbox", _count_lane_resets(tracer)),
        (chaos_ensemble, "run_trials_ensemble", "chaos.driver", None),
        (SupervisedPool, "map", "exec", None),
        (CheckpointJournal, "start", "exec.journal", None),
        (CheckpointJournal, "append", "exec.journal", None),
        (SlamPipeline, "run", "slam", None),
        (SlamPipeline, "process_frame", "slam", None),
        (SlamPipeline, "finalize", "slam", None),
        (OrbExtractor, "extract", "slam.extract", None),
        (slam_pipeline, "match_by_projection", "slam.match", None),
        (slam_pipeline, "track_pose", "slam.track", None),
        (slam_pipeline, "local_bundle_adjust", "slam.local_ba", None),
        (slam_pipeline, "global_bundle_adjust", "slam.global_ba", None),
        (SyntheticSequence, "generate_frame", "dataset", None),
        (platforms_perf, "run_interference_study", "platforms", None),
        (platforms_perf, "autopilot_trace", "platforms.tracegen", None),
        (platforms_perf, "slam_trace", "platforms.tracegen", None),
        (platforms_perf, "interleave", "platforms.tracegen", None),
        (InOrderCore, "run_segments", "platforms.core", _count_core_work(tracer)),
        (trace_engine, "run_segments_batch", "platforms.core", _count_batch_runs(tracer)),
    ]
    for owner, attr, layer, hook in wraps:
        tracer.wrap(owner, attr, layer, hook)
