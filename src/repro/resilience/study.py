"""End-to-end degradation study: what each fallback tier costs.

Ties the resilience layer back to the paper's design-space arithmetic.
For every perception-fault scenario it runs the *supervised* pipeline
(relocalization ladder, numerical guards, no ground-truth rescue) and the
*unsupervised* baseline (no recovery at all), and reports recovery rates,
pose error, and finiteness.  For the fallback chain it prices each
navigation tier in the paper's Table 5 currency — watts of compute power
and the minutes of flight time they cost — plus the tier's deadline-miss
rate on the onboard platform.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.exec.policy import ExecutionPolicy
from repro.faults.perception import (
    PerceptionFaultInjector,
    PerceptionScenario,
    perception_scenarios,
)
from repro.platforms.deadlines import DeadlineReport
from repro.platforms.profiles import (
    BASELINE_FLIGHT_TIME_MIN,
    PlatformProfile,
    SMALL_DRONE_TOTAL_POWER_W,
    rpi4_profile,
)
from repro.resilience.relocalization import SupervisedSlamPipeline
from repro.resilience.supervisor import NavTier, onboard_reduced_deadlines
from repro.slam.dataset import load_sequence
from repro.slam.pipeline import SlamPipeline, SlamRunResult

#: Injector seed for the study: fixed, so the matrix is a fingerprintable
#: catalog rather than a random sample.
STUDY_INJECTOR_SEED = 101

#: Compute power the flight controller spends on dead-reckoning (EKF only).
DEAD_RECKONING_POWER_W = 0.5

#: Idle power of the companion computer while SLAM runs off-board.
OFFBOARD_IDLE_POWER_W = 1.0


@dataclass(frozen=True)
class DegradationOutcome:
    """One (scenario, pipeline-flavor) cell of the degradation study."""

    scenario: str
    supervised: bool
    frames: int
    tracking_failures: int
    loss_episodes: int
    recovered_episodes: int
    recovery_rate: float
    mean_frames_to_recover: float
    worst_pose_error_at_recovery_m: float
    ate_rmse_m: float
    final_pose_error_m: float
    all_finite: bool
    numerical_faults: int
    reinitializations: int

    def fingerprint(self) -> Tuple:
        """Determinism fingerprint: identical seeds reproduce this exactly."""
        return (
            self.scenario,
            self.supervised,
            self.frames,
            self.tracking_failures,
            self.loss_episodes,
            self.recovered_episodes,
            self.recovery_rate,
            self.mean_frames_to_recover,
            self.worst_pose_error_at_recovery_m,
            self.ate_rmse_m,
            self.final_pose_error_m,
            self.all_finite,
            self.numerical_faults,
            self.reinitializations,
        )


def _trajectory_finite(result: SlamRunResult) -> bool:
    return bool(
        np.all(np.isfinite(result.estimated_trajectory))
        and np.all(np.isfinite(result.true_trajectory))
    )


def run_perception_scenario(
    scenario: PerceptionScenario,
    supervised: bool = True,
    injector_seed: int = STUDY_INJECTOR_SEED,
) -> DegradationOutcome:
    """Run one scenario through the supervised or baseline pipeline."""
    sequence = load_sequence(scenario.sequence, seed=scenario.seed)
    injector = PerceptionFaultInjector(
        sequence, scenario.schedule_factory(), seed=injector_seed
    )
    pipeline: SlamPipeline
    if supervised:
        pipeline = SupervisedSlamPipeline(injector)
    else:
        # The honest baseline: no ground-truth rescue, no ladder — loss
        # freezes the pose and the run drifts.
        pipeline = SlamPipeline(injector, rescue_from_truth=False)
    result = pipeline.run(max_frames=scenario.frames)
    final_error_m = float(
        np.linalg.norm(
            result.estimated_trajectory[-1] - result.true_trajectory[-1]
        )
    )
    if isinstance(pipeline, SupervisedSlamPipeline):
        report = pipeline.relocalization_report()
        loss_episodes = report.loss_episodes
        recovered = report.recovered_episodes
        recovery_rate = report.recovery_rate
        mean_recover = report.mean_frames_to_recover
        worst_recovery_error_m = report.worst_pose_error_at_recovery_m
        numerical_faults = pipeline.numerical_faults
        reinitializations = pipeline.ladder.reinitializations
    else:
        loss_episodes = 0
        recovered = 0
        recovery_rate = 0.0
        mean_recover = 0.0
        worst_recovery_error_m = 0.0
        numerical_faults = 0
        reinitializations = 0
    return DegradationOutcome(
        scenario=scenario.name,
        supervised=supervised,
        frames=result.frames_processed,
        tracking_failures=result.tracking_failures,
        loss_episodes=loss_episodes,
        recovered_episodes=recovered,
        recovery_rate=recovery_rate,
        mean_frames_to_recover=mean_recover,
        worst_pose_error_at_recovery_m=worst_recovery_error_m,
        ate_rmse_m=result.ate_rmse_m,
        final_pose_error_m=final_error_m,
        all_finite=_trajectory_finite(result),
        numerical_faults=numerical_faults,
        reinitializations=reinitializations,
    )


def _scenario_pair(
    name: str,
) -> Tuple[DegradationOutcome, DegradationOutcome]:
    """(supervised, baseline) outcomes for one *named* default scenario.

    Module-level and keyed by name so it crosses the process boundary:
    :class:`PerceptionScenario` carries a lambda ``schedule_factory`` and
    cannot be pickled, but its name regenerates it deterministically.
    """
    for scenario in perception_scenarios():
        if scenario.name == name:
            return (
                run_perception_scenario(scenario, supervised=True),
                run_perception_scenario(scenario, supervised=False),
            )
    raise KeyError(f"unknown perception scenario: {name!r}")


def degradation_study(
    scenarios: Optional[Tuple[PerceptionScenario, ...]] = None,
    runner: Optional[ParallelSweepRunner] = None,
    journal: Optional[Union[str, "os.PathLike[str]"]] = None,
) -> Tuple[Tuple[DegradationOutcome, DegradationOutcome], ...]:
    """(supervised, baseline) outcome pairs over the scenario matrix.

    With a ``runner`` (or a ``journal`` path) the study executes through
    the fault-tolerant layer of :mod:`repro.exec`: scenarios are mapped by
    name through :class:`repro.core.parallel.ParallelSweepRunner`, so a
    killed study resumes from its checkpoint journal and a poison scenario
    is quarantined instead of aborting the matrix.  The runner path only
    supports scenarios from :func:`perception_scenarios` (they are
    regenerated by name inside the workers).
    """
    matrix = scenarios if scenarios is not None else perception_scenarios()
    if runner is None and journal is None:
        return tuple(
            (
                run_perception_scenario(scenario, supervised=True),
                run_perception_scenario(scenario, supervised=False),
            )
            for scenario in matrix
        )
    if runner is None:
        runner = ParallelSweepRunner(
            SweepRunnerConfig(parallel=False, policy=ExecutionPolicy())
        )
    pairs = runner.map(
        _scenario_pair, [scenario.name for scenario in matrix], journal=journal
    )
    return tuple(pair for pair in pairs if isinstance(pair, tuple))


# -- tier pricing -----------------------------------------------------------------


@dataclass(frozen=True)
class TierCost:
    """Table 5 currency for one navigation tier."""

    tier: str
    compute_power_w: float
    #: Flight-time change vs carrying no companion compute (negative: cost).
    flight_time_delta_min: float
    deadline_miss_rate: float


def fallback_tier_costs(
    result: SlamRunResult,
    onboard_platform: Optional[PlatformProfile] = None,
    total_power_w: float = SMALL_DRONE_TOTAL_POWER_W,
    flight_time_min: float = BASELINE_FLIGHT_TIME_MIN,
) -> Tuple[TierCost, ...]:
    """Price every fallback tier: watts, flight minutes, deadline misses.

    OFFBOARD keeps the companion computer idle (SLAM runs off the drone);
    ONBOARD_REDUCED pays the platform's full power overhead and its reduced
    keyframe-rate deadline-miss rate; DEAD_RECKONING pays only the flight
    controller's EKF — and zero deadline pressure, because there is no
    frame stream to miss.
    """
    platform = onboard_platform if onboard_platform is not None else rpi4_profile()
    onboard_report: DeadlineReport = onboard_reduced_deadlines(result, platform)
    tier_power = {
        NavTier.OFFBOARD: OFFBOARD_IDLE_POWER_W,
        NavTier.ONBOARD_REDUCED: platform.power_overhead_w,
        NavTier.DEAD_RECKONING: DEAD_RECKONING_POWER_W,
    }
    tier_miss_rate = {
        NavTier.OFFBOARD: 0.0,
        NavTier.ONBOARD_REDUCED: onboard_report.miss_rate,
        NavTier.DEAD_RECKONING: 0.0,
    }
    return tuple(
        TierCost(
            tier=tier.name,
            compute_power_w=tier_power[tier],
            # The paper's Delta_t ~ -(DeltaP / P) x t approximation.
            flight_time_delta_min=(
                -tier_power[tier] / total_power_w * flight_time_min
            ),
            deadline_miss_rate=tier_miss_rate[tier],
        )
        for tier in NavTier
    )
