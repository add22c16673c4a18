"""Unit tests: map, tracking, bundle adjustment, pipeline, metrics."""

import numpy as np
import pytest

from repro.slam.bundle_adjustment import (
    canonical_ba_operations,
    global_bundle_adjust,
    local_bundle_adjust,
)
from repro.slam.dataset import load_sequence
from repro.slam.map import Keyframe, MapPoint, SlamMap
from repro.slam.metrics import (
    absolute_trajectory_error_m,
    map_quality,
)
from repro.slam.pipeline import (
    SlamPipeline,
    Stage,
    triangulate_midpoint,
)
from repro.slam.tracking import TrackingLostError, track_pose


class TestSlamMap:
    def test_keyframe_registration(self):
        slam_map = SlamMap()
        slam_map.add_point(0, np.array([1.0, 2.0, 3.0]), np.zeros(32, np.uint8))
        keyframe = slam_map.add_keyframe(
            np.zeros(3), 0.0, {0: (100.0, 200.0)}
        )
        assert slam_map.keyframe_count == 1
        assert keyframe.keyframe_id in slam_map.points[0].observations

    def test_unknown_observation_rejected(self):
        slam_map = SlamMap()
        with pytest.raises(KeyError):
            slam_map.add_keyframe(np.zeros(3), 0.0, {99: (1.0, 1.0)})

    def test_duplicate_point_rejected(self):
        slam_map = SlamMap()
        slam_map.add_point(0, np.zeros(3), np.zeros(32, np.uint8))
        with pytest.raises(KeyError):
            slam_map.add_point(0, np.zeros(3), np.zeros(32, np.uint8))

    def test_recent_keyframes_window(self):
        slam_map = SlamMap()
        for index in range(8):
            slam_map.add_keyframe(np.array([float(index), 0, 0]), 0.0, {})
        recent = slam_map.recent_keyframes(3)
        assert [k.keyframe_id for k in recent] == [5, 6, 7]

    def test_covisibility_edges(self):
        slam_map = SlamMap()
        for point_id in range(12):
            slam_map.add_point(point_id, np.zeros(3), np.zeros(32, np.uint8))
        shared = {i: (0.0, 0.0) for i in range(12)}
        slam_map.add_keyframe(np.zeros(3), 0.0, shared)
        slam_map.add_keyframe(np.ones(3), 0.0, shared)
        slam_map.add_keyframe(np.ones(3) * 2, 0.0, {0: (0.0, 0.0)})
        edges = slam_map.covisibility_edges(min_shared=10)
        assert edges == [(0, 1, 12)]

    def test_pose_params_roundtrip(self):
        keyframe = Keyframe(0, np.array([1.0, 2.0, 3.0]), 0.5)
        params = keyframe.pose_params
        keyframe.set_pose_params(params + 1.0)
        assert keyframe.yaw_rad == pytest.approx(1.5)


class TestTracking:
    def test_recovers_perturbed_pose(self):
        sequence = load_sequence("MH01")
        frame = sequence.generate_frame(0)
        real = frame.landmark_ids >= 0
        landmarks = [sequence.landmarks_m[i] for i in frame.landmark_ids[real]]
        pixels = [tuple(p) for p in frame.keypoints_px[real]]
        noisy_position = frame.true_position_m + np.array([0.2, -0.15, 0.1])
        result = track_pose(
            landmarks, pixels, noisy_position, frame.true_yaw_rad + 0.05,
            sequence.camera,
        )
        assert np.linalg.norm(result.position_m - frame.true_position_m) < 0.05
        assert abs(result.yaw_rad - frame.true_yaw_rad) < 0.01
        assert result.final_rms_px < 3.0

    def test_too_few_correspondences(self):
        sequence = load_sequence("MH01")
        with pytest.raises(TrackingLostError):
            track_pose([np.zeros(3)] * 3, [(0.0, 0.0)] * 3, np.zeros(3), 0.0,
                       sequence.camera)

    def test_operation_accounting(self):
        sequence = load_sequence("MH01")
        frame = sequence.generate_frame(0)
        real = frame.landmark_ids >= 0
        landmarks = [sequence.landmarks_m[i] for i in frame.landmark_ids[real]]
        pixels = [tuple(p) for p in frame.keypoints_px[real]]
        result = track_pose(
            landmarks, pixels, frame.true_position_m, frame.true_yaw_rad,
            sequence.camera,
        )
        assert result.operations > 0


class TestTriangulation:
    def test_recovers_landmark(self):
        sequence = load_sequence("MH01")
        f0 = sequence.generate_frame(0)
        f8 = sequence.generate_frame(8)
        shared = set(f0.landmark_ids[f0.landmark_ids >= 0]) & set(
            f8.landmark_ids[f8.landmark_ids >= 0]
        )
        landmark_id = sorted(shared)[0]
        pixel0 = f0.keypoints_px[np.where(f0.landmark_ids == landmark_id)[0][0]]
        pixel8 = f8.keypoints_px[np.where(f8.landmark_ids == landmark_id)[0][0]]
        estimate = triangulate_midpoint(
            (f0.true_position_m, f0.true_yaw_rad), tuple(pixel0),
            (f8.true_position_m, f8.true_yaw_rad), tuple(pixel8),
            sequence.camera,
        )
        truth = sequence.landmarks_m[landmark_id]
        assert np.linalg.norm(estimate - truth) < 0.30

    def test_parallel_rays_rejected(self):
        sequence = load_sequence("MH01")
        with pytest.raises(ValueError):
            triangulate_midpoint(
                (np.zeros(3), 0.0), (376.0, 240.0),
                (np.zeros(3), 0.0), (376.0, 240.0),
                sequence.camera,
            )


class TestBundleAdjustment:
    @pytest.fixture(scope="class")
    def built_map(self):
        """A small map with perturbed poses and landmarks."""
        pipeline = SlamPipeline(load_sequence("MH01"), keyframe_interval=8)
        pipeline.run(max_frames=40)
        return pipeline

    def test_local_ba_reduces_reprojection_error(self, built_map):
        rng = np.random.default_rng(3)
        # Perturb recent keyframe poses, then BA must pull them back.
        for keyframe in built_map.slam_map.recent_keyframes(3):
            keyframe.position_m = keyframe.position_m + rng.normal(0, 0.05, 3)
        result = local_bundle_adjust(built_map.slam_map, built_map.camera)
        assert result.final_rms_px < result.initial_rms_px

    def test_global_ba_covers_all_keyframes(self, built_map):
        result = global_bundle_adjust(built_map.slam_map, built_map.camera)
        assert result.keyframes == built_map.slam_map.keyframe_count
        assert result.modeled_operations > result.keyframes

    def test_canonical_cost_model_scales(self):
        small = canonical_ba_operations(5, 100, 500, 10)
        bigger_problem = canonical_ba_operations(10, 200, 1000, 10)
        more_iterations = canonical_ba_operations(5, 100, 500, 20)
        assert bigger_problem > small
        assert more_iterations == 2 * small

    def test_canonical_cost_validation(self):
        with pytest.raises(ValueError):
            canonical_ba_operations(5, 100, 500, 0)


class TestPipeline:
    def test_full_run_accuracy(self, slam_mh01):
        assert slam_mh01.ate_rmse_m < 0.10
        assert slam_mh01.tracking_failures <= 2
        assert slam_mh01.keyframes >= 4
        assert slam_mh01.map_points > 80

    def test_breakdown_covers_all_stages(self, slam_mh01):
        for stage in Stage:
            assert slam_mh01.breakdown.operations[stage] > 0

    def test_global_ba_ran_once(self, slam_mh01):
        assert slam_mh01.global_ba_result is not None
        assert slam_mh01.local_ba_results

    def test_map_quality_against_truth(self):
        sequence = load_sequence("MH01")
        pipeline = SlamPipeline(sequence)
        pipeline.run(max_frames=40)
        quality = map_quality(pipeline.slam_map, sequence.landmarks_m)
        assert quality.mean_error_m < 0.25

    def test_difficult_sequence_harder(self):
        """The hardest sequence stresses tracking more than the easiest —
        as in the real EuRoC grading (ORB-SLAM also loses track on V203)."""
        from repro.slam.pipeline import run_slam

        easy = run_slam("MH01", max_frames=50)
        hard = run_slam("V203", max_frames=50)
        easy_stress = easy.tracking_failures + (easy.ate_rmse_m > 0.05)
        hard_stress = hard.tracking_failures + (hard.ate_rmse_m > 0.05)
        assert hard_stress > easy_stress

    def test_invalid_max_frames(self):
        pipeline = SlamPipeline(load_sequence("MH01"))
        with pytest.raises(ValueError):
            pipeline.run(max_frames=0)


class TestMetrics:
    def test_ate_zero_for_identical(self):
        trajectory = np.random.default_rng(0).normal(size=(50, 3))
        assert absolute_trajectory_error_m(trajectory, trajectory) == 0.0

    def test_ate_constant_offset(self):
        trajectory = np.zeros((10, 3))
        shifted = trajectory + np.array([3.0, 4.0, 0.0])
        assert absolute_trajectory_error_m(shifted, trajectory) == pytest.approx(5.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            absolute_trajectory_error_m(np.zeros((5, 3)), np.zeros((6, 3)))
