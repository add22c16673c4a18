"""Resilience-layer tests: relocalization ladder, offload fallback chain,
thermal-aware degradation, and the numerical guards.

Covers the typed tracking outcome, the loss-episode accounting, the map
checkpoint/rollback around bundle adjustment, the fallback supervisor's
escalate-fast/recover-deliberately hysteresis, the thermal governor's DVFS
ladder, and the deadline-adaptive frame-skip policy.
"""

import numpy as np
import pytest

from repro.autopilot.offload import PoseUpdate, staleness_timeline
from repro.faults import FaultKind, FaultSchedule, PerceptionFaultInjector
from repro.platforms.deadlines import (
    DeadlineReport,
    scaled_frame_deadlines,
    slam_frame_deadlines,
)
from repro.platforms.profiles import rpi4_profile
from repro.resilience import (
    DeadlineFrameSkipPolicy,
    MapCheckpoint,
    NavTier,
    OffloadSupervisor,
    RelocalizationLadder,
    RelocalizationReport,
    SupervisedSlamPipeline,
    ThermalGovernor,
    rpi4_compute_thermal,
    simulate_fallback_chain,
    thermal_deadline_study,
    tx2_compute_thermal,
)
from repro.resilience.relocalization import LossEpisode
from repro.slam.dataset import load_sequence
from repro.slam.pipeline import SlamPipeline, TrackingOutcome


@pytest.fixture(scope="module")
def slam_result():
    """One clean short SLAM run shared by the deadline-pricing tests."""
    return SlamPipeline(load_sequence("MH01", seed=11)).run(max_frames=60)


# -- typed tracking outcome ------------------------------------------------------


class TestTrackingOutcome:
    def test_only_tracked_is_ok(self):
        assert TrackingOutcome.TRACKED.ok
        for outcome in TrackingOutcome:
            if outcome is not TrackingOutcome.TRACKED:
                assert not outcome.ok

    def test_pipeline_returns_outcomes(self):
        sequence = load_sequence("MH01", seed=11)
        pipeline = SlamPipeline(sequence)
        outcomes = [
            pipeline.process_frame(sequence.generate_frame(i)) for i in range(20)
        ]
        assert all(isinstance(o, TrackingOutcome) for o in outcomes)
        assert outcomes[0] is TrackingOutcome.TRACKED  # initialization


# -- numerical guards ------------------------------------------------------------


class TestGuards:
    def test_ekf_raises_on_nonfinite_state(self):
        from repro.control.estimation import InsEkf

        ekf = InsEkf()
        # A corrupted IMU sample must raise, not silently poison the state.
        with pytest.raises(FloatingPointError):
            ekf.predict(np.full(3, np.inf), np.zeros(3), 0.01)

    def test_simulator_rolls_back_ekf_on_numerical_fault(self):
        from repro.sim.simulator import DroneModel, FlightSimulator

        model = DroneModel(
            mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
            battery_capacity_mah=3000.0,
        )
        sim = FlightSimulator(model, physics_rate_hz=400.0, use_ekf=True)
        for _ in range(40):
            sim.step()
        assert sim.ekf_resets == 0
        # Poison the covariance so the next correction produces NaN state;
        # the rollback restores the finite state and a sane covariance.
        sim.ekf.covariance[:] = np.nan
        for _ in range(80):
            sim.step()  # must not raise: rollback, not abort
        assert sim.ekf_resets > 0
        assert np.all(np.isfinite(sim.ekf.state))
        assert np.all(np.isfinite(sim.ekf.covariance))


class TestMapCheckpoint:
    def test_rollback_requires_capture(self):
        sequence = load_sequence("MH01", seed=11)
        pipeline = SlamPipeline(sequence)
        pipeline.process_frame(sequence.generate_frame(0))
        with pytest.raises(ValueError):
            MapCheckpoint().rollback(pipeline.slam_map)

    def test_rollback_restores_geometry_and_drops_additions(self):
        sequence = load_sequence("MH01", seed=11)
        pipeline = SlamPipeline(sequence)
        for index in range(30):
            pipeline.process_frame(sequence.generate_frame(index))
        checkpoint = MapCheckpoint()
        checkpoint.capture(pipeline.slam_map)
        keyframes_at_capture = pipeline.slam_map.keyframe_count
        poses_at_capture = {
            keyframe_id: keyframe.pose_params.copy()
            for keyframe_id, keyframe in pipeline.slam_map.keyframes.items()
        }
        points_at_capture = {
            point_id: point.position_m.copy()
            for point_id, point in pipeline.slam_map.points.items()
        }
        # Grow the map past the checkpoint, then corrupt a pose.
        for index in range(30, 55):
            pipeline.process_frame(sequence.generate_frame(index))
        assert pipeline.slam_map.keyframe_count > keyframes_at_capture
        first_keyframe = next(iter(sorted(pipeline.slam_map.keyframes)))
        pipeline.slam_map.keyframes[first_keyframe].set_pose_params(
            np.full(4, np.nan)
        )

        checkpoint.rollback(pipeline.slam_map)
        assert checkpoint.rollbacks == 1
        assert pipeline.slam_map.keyframe_count == keyframes_at_capture
        assert set(pipeline.slam_map.points) == set(points_at_capture)
        for keyframe_id, pose in poses_at_capture.items():
            restored = pipeline.slam_map.keyframes[keyframe_id].pose_params
            np.testing.assert_allclose(restored, pose)
        for point_id, position in points_at_capture.items():
            np.testing.assert_allclose(
                pipeline.slam_map.points[point_id].position_m, position
            )

    def test_supervised_ba_fault_rolls_back(self, monkeypatch):
        sequence = load_sequence("MH01", seed=11)
        pipeline = SupervisedSlamPipeline(sequence)
        for index in range(35):
            pipeline.process_frame(sequence.generate_frame(index))
        poses_before = {
            keyframe_id: keyframe.pose_params.copy()
            for keyframe_id, keyframe in pipeline.slam_map.keyframes.items()
        }

        def poisoned_ba(slam_map, camera):
            raise FloatingPointError("bundle adjustment produced non-finite residuals")

        monkeypatch.setattr(
            "repro.slam.pipeline.local_bundle_adjust", poisoned_ba
        )
        pipeline._run_local_ba()
        assert pipeline.numerical_faults == 1
        assert pipeline.checkpoint.rollbacks == 1
        for keyframe_id, pose in poses_before.items():
            np.testing.assert_allclose(
                pipeline.slam_map.keyframes[keyframe_id].pose_params, pose
            )


# -- relocalization ladder -------------------------------------------------------


class TestRelocalizationLadder:
    def test_validation(self):
        with pytest.raises(ValueError):
            RelocalizationLadder(max_attempts=0)
        with pytest.raises(ValueError):
            RelocalizationLadder(backoff_cap_frames=0)
        with pytest.raises(ValueError):
            RelocalizationLadder(relaxed_feature_factor=0.5)
        with pytest.raises(ValueError):
            RelocalizationLadder(min_matches=0)

    def test_report_properties(self):
        recovered = LossEpisode(
            start_frame=10, onset=TrackingOutcome.TOO_FEW_LANDMARKS,
            recovered_frame=14, remedy=None, attempts=2,
            pose_error_at_recovery_m=0.3,
        )
        lost = LossEpisode(
            start_frame=30, onset=TrackingOutcome.SOLVER_DIVERGED,
            recovered_frame=None, remedy=None, attempts=4,
            pose_error_at_recovery_m=None,
        )
        report = RelocalizationReport(episodes=(recovered, lost), total_frames=60)
        assert report.loss_episodes == 2
        assert report.recovered_episodes == 1
        assert report.recovery_rate == 0.5
        assert recovered.frames_to_recover == 4
        assert report.mean_frames_to_recover == 4.0
        assert report.worst_pose_error_at_recovery_m == 0.3
        with pytest.raises(ValueError):
            lost.frames_to_recover

    def test_empty_report_recovery_rate_is_one(self):
        report = RelocalizationReport(episodes=(), total_frames=40)
        assert report.recovery_rate == 1.0
        assert report.mean_frames_to_recover == 0.0

    def test_supervised_pipeline_recovers_from_drought(self):
        schedule = FaultSchedule().add(
            FaultKind.FEATURE_DROUGHT, start_s=1.0, end_s=1.6,
            keep_fraction=0.1,
        )
        sequence = load_sequence("MH01", seed=11)
        injector = PerceptionFaultInjector(sequence, schedule, seed=101)
        pipeline = SupervisedSlamPipeline(injector)
        result = pipeline.run(max_frames=60)
        report = pipeline.relocalization_report()
        assert result.tracking_failures > 0
        assert report.loss_episodes >= 1
        assert report.recovery_rate == 1.0
        assert np.all(np.isfinite(result.estimated_trajectory))

    def test_baseline_without_rescue_accumulates_failures(self):
        schedule = FaultSchedule().add(
            FaultKind.FEATURE_DROUGHT, start_s=1.0, end_s=1.6,
            keep_fraction=0.1,
        )
        sequence = load_sequence("MH01", seed=11)
        injector = PerceptionFaultInjector(sequence, schedule, seed=101)
        baseline = SlamPipeline(injector, rescue_from_truth=False)
        result = baseline.run(max_frames=60)
        # Without the ladder, the pose freezes and tracking never re-locks
        # until the drought clears; failures pile up.
        assert result.tracking_failures >= 10


# -- offload fallback chain ------------------------------------------------------


class TestOffloadSupervisor:
    def test_validation(self):
        with pytest.raises(ValueError):
            OffloadSupervisor(staleness_limit_s=0.0)
        with pytest.raises(ValueError):
            OffloadSupervisor(ack_timeout_s=0.0)
        with pytest.raises(ValueError):
            OffloadSupervisor(step_up_hold_s=-1.0)

    def test_steps_down_on_stale_pose(self):
        supervisor = OffloadSupervisor()
        supervisor.note_pose(capture_s=0.9, delivery_s=1.0)
        assert supervisor.update(1.2) is None
        transition = supervisor.update(1.5)
        assert transition is not None and transition.step_down
        assert transition.cause == "pose stale"
        assert supervisor.tier is NavTier.ONBOARD_REDUCED

    def test_steps_to_dead_reckoning_when_onboard_unhealthy(self):
        supervisor = OffloadSupervisor(onboard_healthy=False)
        transition = supervisor.update(1.0)
        assert supervisor.tier is NavTier.DEAD_RECKONING
        assert transition is not None and transition.step_down

    def test_ack_timeout_cause(self):
        supervisor = OffloadSupervisor(staleness_limit_s=10.0, ack_timeout_s=0.5)
        supervisor.note_pose(capture_s=0.0, delivery_s=0.1)
        transition = supervisor.update(1.0)
        assert transition is not None
        assert transition.cause == "ack timeout"

    def test_step_up_requires_hold(self):
        supervisor = OffloadSupervisor(step_up_hold_s=2.0)
        supervisor.update(1.0)  # no pose ever: step down immediately
        assert supervisor.tier is NavTier.ONBOARD_REDUCED
        # Fresh poses resume; the supervisor must hold for 2 s before
        # stepping back up.
        for now_s in (1.2, 1.6, 2.0, 2.6, 3.0):
            supervisor.note_pose(capture_s=now_s - 0.05, delivery_s=now_s)
            supervisor.update(now_s)
            assert supervisor.tier is NavTier.ONBOARD_REDUCED
        supervisor.note_pose(capture_s=3.4, delivery_s=3.45)
        transition = supervisor.update(3.5)
        assert transition is not None and not transition.step_down
        assert transition.cause == "link recovered"
        assert supervisor.tier is NavTier.OFFBOARD

    def test_flapping_link_does_not_flap_navigation(self):
        supervisor = OffloadSupervisor(step_up_hold_s=2.0)
        supervisor.update(1.0)
        assert supervisor.tier is NavTier.ONBOARD_REDUCED
        # Poses arrive but keep going stale before the hold elapses.
        now_s = 1.0
        for _ in range(5):
            now_s += 1.0
            supervisor.note_pose(capture_s=now_s - 0.05, delivery_s=now_s)
            supervisor.update(now_s)
            now_s += 1.0
            supervisor.update(now_s)  # stale again: hold timer resets
        assert supervisor.tier is NavTier.ONBOARD_REDUCED
        assert len(supervisor.transitions) == 1

    def test_dead_reckoning_recovers_to_onboard(self):
        supervisor = OffloadSupervisor(onboard_healthy=False)
        supervisor.update(1.0)
        assert supervisor.tier is NavTier.DEAD_RECKONING
        supervisor.onboard_healthy = True
        transition = supervisor.update(1.1)
        assert transition is not None
        assert transition.cause == "onboard recovered"
        assert supervisor.tier is NavTier.ONBOARD_REDUCED


def _outage_updates(duration_s: float = 6.0):
    """Pose stream with a 3 s outage between 2 s and 5 s."""
    updates = []
    for index in range(int(duration_s * 20)):
        capture = index * 0.05
        if 2.0 <= capture < 5.0:
            continue
        updates.append(
            PoseUpdate(
                frame_index=index,
                capture_time_s=capture,
                delivery_time_s=capture + 0.03,
                position_m=np.zeros(3),
            )
        )
    return updates


class TestFallbackChain:
    def test_baseline_staleness_is_unbounded(self):
        report = simulate_fallback_chain(
            _outage_updates(), duration_s=6.0, supervisor=None
        )
        assert not report.supervised
        assert report.worst_consumer_staleness_s > 2.5
        assert not report.bounded

    def test_supervised_staleness_is_bounded(self):
        report = simulate_fallback_chain(
            _outage_updates(), duration_s=6.0, supervisor=OffloadSupervisor()
        )
        assert report.supervised
        assert report.bounded
        assert report.step_downs >= 1
        assert report.occupancy["ONBOARD_REDUCED"] > 0.0

    def test_supervised_steps_back_up_after_outage(self):
        report = simulate_fallback_chain(
            _outage_updates(duration_s=9.0),
            duration_s=9.0,
            supervisor=OffloadSupervisor(),
        )
        assert report.step_ups >= 1
        causes = [t.cause for t in report.transitions]
        assert "link recovered" in causes

    def test_staleness_timeline_tracks_outage(self):
        timeline = staleness_timeline(_outage_updates(), duration_s=6.0)
        worst = max(staleness for _, staleness in timeline)
        assert worst == pytest.approx(3.0, abs=0.2)
        # After recovery the staleness falls back to the delivery latency.
        assert timeline[-1][1] < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_fallback_chain([], duration_s=0.0)
        with pytest.raises(ValueError):
            staleness_timeline([], duration_s=1.0, dt_s=0.0)


# -- thermal governor + frame skipping -------------------------------------------


class TestThermalGovernor:
    def test_utilization_validation(self):
        governor = ThermalGovernor(rpi4_compute_thermal())
        with pytest.raises(ValueError):
            governor.step(1.5, 0.05)

    def test_rpi4_throttles_under_sustained_load(self):
        governor = ThermalGovernor(rpi4_compute_thermal())
        for _ in range(12_000):  # 600 s at 20 Hz
            governor.step(0.9, 0.05)
        assert governor.scale < 1.0
        assert governor.throttle_events >= 1
        assert not governor.shutdown

    def test_tx2_heatsink_holds_full_clock(self):
        governor = ThermalGovernor(tx2_compute_thermal())
        for _ in range(12_000):
            governor.step(0.9, 0.05)
        assert governor.scale == 1.0
        assert governor.throttle_events == 0

    def test_step_up_hysteresis(self):
        profile = rpi4_compute_thermal()
        governor = ThermalGovernor(profile)
        while governor.scale == 1.0:
            governor.step(1.0, 0.5)
        trigger_c = min(t for t, _ in profile.frequency_steps)
        # Idle until just above the release point: still throttled.
        release_c = trigger_c - profile.step_up_margin_c
        while governor.temperature_c > release_c + 0.5:
            governor.step(0.0, 0.5)
        assert governor.scale < 1.0
        # Cool past the margin: the rung releases.
        while governor.temperature_c > release_c:
            governor.step(0.0, 0.5)
        governor.step(0.0, 0.5)
        assert governor.scale == 1.0

    def test_profile_validation(self):
        from repro.resilience import ComputeThermalProfile

        with pytest.raises(ValueError):
            ComputeThermalProfile(
                name="bad", tdp_w=5.0, thermal_resistance_c_per_w=10.0,
                thermal_capacity_j_per_c=20.0, shutdown_c=90.0,
                frequency_steps=(),
            )
        with pytest.raises(ValueError):
            ComputeThermalProfile(
                name="bad", tdp_w=5.0, thermal_resistance_c_per_w=10.0,
                thermal_capacity_j_per_c=20.0, shutdown_c=90.0,
                frequency_steps=((95.0, 0.5),),  # trigger above shutdown
            )


class TestDeadlineFrameSkipPolicy:
    def test_stride_steps_up_on_misses_and_down_on_recovery(self):
        policy = DeadlineFrameSkipPolicy(window=10)
        for _ in range(10):
            policy.record(missed=True)
        assert policy.stride == 2
        for _ in range(10):
            policy.record(missed=False)
        assert policy.stride == 1
        assert policy.stride_changes == 2

    def test_stride_caps(self):
        policy = DeadlineFrameSkipPolicy(window=5, max_stride=3)
        for _ in range(60):
            policy.record(missed=True)
        assert policy.stride == 3

    def test_should_process_follows_stride(self):
        policy = DeadlineFrameSkipPolicy(window=5)
        for _ in range(5):
            policy.record(missed=True)
        assert policy.stride == 2
        processed = [i for i in range(8) if policy.should_process(i)]
        assert processed == [0, 2, 4, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineFrameSkipPolicy(window=0)
        with pytest.raises(ValueError):
            DeadlineFrameSkipPolicy(step_up_miss_rate=0.1, step_down_miss_rate=0.2)
        with pytest.raises(ValueError):
            DeadlineFrameSkipPolicy(max_stride=0)


class TestScaledDeadlines:
    def test_matches_nominal_at_full_scale(self, slam_result):
        platform = rpi4_profile()
        nominal = slam_frame_deadlines(slam_result, platform)
        scaled = scaled_frame_deadlines(
            slam_result, platform,
            frame_scales=[1.0] * slam_result.frames_processed,
        )
        assert scaled.misses == nominal.misses
        assert scaled.worst_latency_s == pytest.approx(nominal.worst_latency_s)

    def test_skipped_frames_cost_nothing(self, slam_result):
        platform = rpi4_profile()
        report = scaled_frame_deadlines(
            slam_result, platform, frame_scales=[0.0] * 40
        )
        assert report.frames == 0
        assert report.miss_rate == 0.0
        assert report.worst_latency_s == 0.0

    def test_throttling_increases_latency(self, slam_result):
        platform = rpi4_profile()
        full = scaled_frame_deadlines(
            slam_result, platform, frame_scales=[1.0] * 40
        )
        throttled = scaled_frame_deadlines(
            slam_result, platform, frame_scales=[0.5] * 40
        )
        assert throttled.worst_latency_s > full.worst_latency_s

    def test_scale_validation(self, slam_result):
        with pytest.raises(ValueError):
            scaled_frame_deadlines(
                slam_result, rpi4_profile(), frame_scales=[1.5]
            )
        with pytest.raises(ValueError):
            scaled_frame_deadlines(slam_result, rpi4_profile(), frame_scales=[])

    def test_miss_rate_zero_frames(self):
        report = DeadlineReport(
            task="empty", period_s=0.05, frames=0, misses=0,
            worst_latency_s=0.0, mean_latency_s=0.0,
        )
        assert report.miss_rate == 0.0


class TestThermalDeadlineStudy:
    def test_rpi4_study_throttles_and_sheds(self, slam_result):
        study = thermal_deadline_study(
            slam_result, rpi4_profile(), rpi4_compute_thermal(),
            duration_s=600.0,
        )
        assert study.throttled
        assert study.peak_temperature_c > 75.0
        assert study.final_stride >= 1
        assert study.report_throttled.frames <= study.report_nominal.frames

    def test_tx2_study_stays_nominal(self, slam_result):
        study = thermal_deadline_study(
            slam_result, rpi4_profile(), tx2_compute_thermal(),
            duration_s=600.0,
        )
        assert not study.throttled
        assert study.throttle_events == 0

    def test_duration_validation(self, slam_result):
        with pytest.raises(ValueError):
            thermal_deadline_study(
                slam_result, rpi4_profile(), rpi4_compute_thermal(),
                duration_s=0.0,
            )
