"""Fast path <-> scalar oracle equivalence for the vectorized SLAM kernels.

The contract (documented in :mod:`repro.slam.kernels`), checked by the
pairs of :mod:`tests.equivalence`:

- integer decisions (matches, operation counts, iteration counts, used
  correspondences) are bit-for-bit identical to the oracle;
- per-element float math (projections, residuals) is bit-identical because
  the fast path replicates the scalar operation order;
- reductions (normal equations, RMS sums) accumulate in a different order,
  so poses/landmarks/RMS agree to ``allclose`` tolerances only.

The fast paths' own bits, which an ``allclose`` pair would let drift, are
held to golden vectors under ``tests/fixtures/slam/`` (``TestGoldenVectors``).
"""

import copy
import math
import re

import numpy as np
import pytest

from repro.slam import kernels
from repro.slam.bundle_adjustment import global_bundle_adjust, \
    local_bundle_adjust
from repro.slam.dataset import (
    CameraModel,
    cached_sequence,
    clear_sequence_cache,
    load_sequence,
)
from repro.slam.features import FeatureSet, OrbExtractor, \
    hamming_distance, hamming_distance_matrix
from repro.slam.map import MapPoint
from repro.slam.matching import MAX_MATCH_DISTANCE, match_by_projection
from repro.slam.pipeline import SlamPipeline
from repro.slam.tracking import TrackingLostError, track_pose
from tests.equivalence import (
    BLAS,
    GLOBAL_BUNDLE_ADJUST,
    HAMMING_DISTANCE_MATRIX,
    LIBM,
    MATCH_AGAINST_MAP,
    MATCH_BY_PROJECTION,
    MATCH_FEATURES,
    ORB_EXTRACT,
    TRACK_POSE,
    golden,
)

MAP_FRAMES = 45
GROUP = "slam"
#: Synthesized frames went through the render's BLAS matvecs and libm
#: trigonometry, and the built map and everything solved on it through
#: LAPACK solves too: a case fed frame pixels depends on both.
BOTH = (BLAS, LIBM)


@pytest.fixture(scope="module")
def sequence():
    return cached_sequence("MH01")


@pytest.fixture(scope="module")
def built_map(sequence):
    """A converged pipeline map over the first MAP_FRAMES MH01 frames."""
    pipeline = SlamPipeline(sequence)
    for index in range(MAP_FRAMES):
        pipeline.process_frame(sequence.generate_frame(index))
    return pipeline


class TestHammingKernels:
    def test_matrix_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, size=(37, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(29, 32), dtype=np.uint8)
        HAMMING_DISTANCE_MATRIX.check(a, b)

    def test_matrix_matches_single_pair_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 256, size=(5, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(7, 32), dtype=np.uint8)
        matrix, _ = hamming_distance_matrix(a, b)
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                assert int(matrix[i, j]) == hamming_distance(a[i], b[j])

    def test_extreme_rows(self):
        zeros = np.zeros((1, 32), dtype=np.uint8)
        ones = np.full((1, 32), 0xFF, dtype=np.uint8)
        matrix, _ = hamming_distance_matrix(zeros, ones)
        assert int(matrix[0, 0]) == 256

    def test_unknown_engine_rejected(self):
        a = np.zeros((1, 32), dtype=np.uint8)
        with pytest.raises(TypeError, match="engine"):
            hamming_distance_matrix(a, a, engine="scalar")

    def test_native_popcount_extremes(self):
        zeros = np.zeros((2, 32), dtype=np.uint8)
        ones = np.full((3, 32), 0xFF, dtype=np.uint8)
        assert (kernels.hamming_matrix(zeros, ones) == 256).all()
        assert (kernels.hamming_matrix(ones, ones) == 0).all()
        assert kernels.hamming_matrix(zeros, ones).dtype == np.uint16

    @pytest.mark.parametrize("a, b", [
        (np.zeros((3, 16), dtype=np.uint8), np.zeros((4, 16), dtype=np.uint8)),
        (np.zeros((3, 32), dtype=np.uint8), np.zeros((4, 16), dtype=np.uint8)),
        (np.zeros((3, 32), dtype=np.int64), np.zeros((4, 32), dtype=np.uint8)),
        (np.zeros(32, dtype=np.uint8), np.zeros((4, 32), dtype=np.uint8)),
    ])
    def test_bad_descriptor_arrays_rejected(self, a, b):
        shapes = rf"got .*{re.escape(str(a.shape))}.*{re.escape(str(b.shape))}"
        with pytest.raises(ValueError, match=shapes):
            kernels.hamming_matrix(a, b)


class TestMatchingEquivalence:
    def test_match_features(self, sequence):
        extractor = OrbExtractor(max_features=300)
        fs_a = extractor.extract(sequence.generate_frame(0))
        fs_b = extractor.extract(sequence.generate_frame(3))
        batch, _ = MATCH_FEATURES.check(fs_a, fs_b)
        assert len(batch.matches) > 0

    def test_match_against_map(self, sequence, built_map):
        extractor = OrbExtractor(max_features=300)
        features = extractor.extract(sequence.generate_frame(MAP_FRAMES))
        points = list(built_map.slam_map.points.values())
        descriptors = np.stack([p.descriptor for p in points])
        ids = np.array([p.point_id for p in points])
        batch, _ = MATCH_AGAINST_MAP.check(features, descriptors, ids)
        assert len(batch.matches) > 0

    def test_match_by_projection(self, sequence, built_map):
        extractor = OrbExtractor(max_features=300)
        features = extractor.extract(sequence.generate_frame(MAP_FRAMES))
        pose = built_map._pose
        points = list(built_map.slam_map.points.values())
        batch, _ = MATCH_BY_PROJECTION.check(
            features, points, pose, sequence.camera)
        assert len(batch.matches) > 0


def descriptor(bits):
    """A 32-byte descriptor with its first ``bits`` bits set."""
    return np.packbits(np.arange(256) < bits).astype(np.uint8)


def point_at(point_id, u_px, v_px, bits=0, depth_m=5.0):
    """A map point that projects to (u, v) from the origin, facing +x."""
    camera = CameraModel()
    position = [depth_m, -(u_px - camera.cx) * depth_m / camera.fx,
                -(v_px - camera.cy) * depth_m / camera.fy]
    return MapPoint(point_id, np.array(position), descriptor(bits))


def feature_set(keypoints_px, bits):
    """A frame's features at the given pixels, descriptors by bit count."""
    return FeatureSet(
        frame_index=0,
        landmark_ids=np.full(len(bits), -1),
        keypoints_px=np.array(keypoints_px, dtype=float).reshape(-1, 2),
        descriptors=np.array([descriptor(b) for b in bits],
                             dtype=np.uint8).reshape(-1, 32),
        operations=0,
    )


class TestSparseProjectionMatching:
    """Hand-built windows where the greedy walk's rules decide the output;
    each is held ``bitwise`` to the scalar oracle and to its hand count."""

    POSE = (np.zeros(3), 0.0)

    def check(self, features, points, radius_px=18.0):
        result, _ = MATCH_BY_PROJECTION.check(features, points, self.POSE,
                                              CameraModel(), radius_px=radius_px)
        return [(m.index_a, m.index_b, m.distance) for m in result.matches], \
            result.operations

    def test_equal_distances_lowest_feature_wins(self):
        # Three features, all 3 bits from the point: feature 0 wins.
        features = feature_set([(110, 100), (95, 100), (100, 108)], [3, 3, 3])
        matches, ops = self.check(features, [point_at(7, 100, 100)])
        assert matches == [(0, 7, 3)]
        assert ops == 20 + 2 * 3 + 256 * 3

    def test_second_point_sees_the_feature_taken(self):
        # Feature 0 is nearest to both points; the first point takes it and
        # the second falls back to feature 1, scoring one free candidate.
        features = feature_set([(202, 200), (210, 200)], [1, 10])
        points = [point_at(1, 200, 200), point_at(2, 205, 200)]
        matches, ops = self.check(features, points)
        assert matches == [(0, 1, 1), (1, 2, 10)]
        assert ops == 20 * 2 + 2 * 2 * 2 + 256 * 2 + 256 * 1

    def test_all_candidates_taken_adds_no_ops(self):
        features = feature_set([(300, 300)], [0])
        points = [point_at(1, 301, 300), point_at(2, 299, 300)]
        matches, ops = self.check(features, points)
        assert matches == [(0, 1, 0)]
        assert ops == 20 * 2 + 2 * 1 * 2 + 256

    def test_candidates_above_max_distance_count_but_do_not_match(self):
        features = feature_set([(400, 250), (405, 250)],
                               [MAX_MATCH_DISTANCE + 1, 200])
        matches, ops = self.check(features, [point_at(3, 400, 250)])
        assert matches == []
        assert ops == 20 + 2 * 2 + 256 * 2

    def test_nan_landmark_costs_a_projection_only(self):
        nan_point = MapPoint(4, np.array([np.nan, 0.0, 0.0]), descriptor(0))
        features = feature_set([(100, 100)], [2])
        matches, ops = self.check(features, [nan_point, point_at(5, 100, 100)])
        assert matches == [(0, 5, 2)]
        assert ops == 20 * 2 + 2 * 1 * 1 + 256

    def test_empty_window(self):
        features = feature_set([(600, 400), (50, 50)], [0, 0])
        matches, ops = self.check(features, [point_at(6, 300, 200)])
        assert matches == []
        assert ops == 20 + 2 * 2
        # A wider window takes the same features in.
        matches, _ = self.check(features, [point_at(6, 300, 200)],
                                radius_px=400.0)
        assert matches == [(0, 6, 0)]


class TestBucketedSelection:
    @pytest.mark.parametrize("budget", [20, 50, 120])
    def test_selection_matches_scalar(self, sequence, budget):
        frame = sequence.generate_frame(7)
        ORB_EXTRACT.check(OrbExtractor(max_features=budget), frame)

    def test_bucketed_ranks_round_robin(self):
        # Three cells with 3/2/1 members: round-robin order is one member
        # per cell per sweep, cells ascending within a sweep.
        cells = np.array([2, 0, 0, 1, 0, 1])
        order, depth = kernels.bucketed_ranks(cells)
        round_robin = np.lexsort((cells[order], depth))
        visited = order[round_robin]
        assert list(cells[visited]) == [0, 1, 2, 0, 1, 0]

    def test_unknown_engine_rejected(self):
        with pytest.raises(TypeError, match="engine"):
            OrbExtractor(engine="scalar")


def keyframe_correspondences(built_map):
    """The newest keyframe and its (landmark, pixel) correspondences."""
    slam_map = built_map.slam_map
    keyframe = slam_map.keyframes[max(slam_map.keyframes)]
    landmarks, pixels = [], []
    for point_id, pixel in keyframe.observations.items():
        point = slam_map.points.get(point_id)
        if point is not None:
            landmarks.append(point.position_m)
            pixels.append(pixel)
    return keyframe, landmarks, pixels


class TestTrackPoseEquivalence:
    def test_matches_scalar(self, sequence, built_map):
        keyframe, landmarks, pixels = keyframe_correspondences(built_map)
        # Integer decisions are exact; floats cross reductions -> allclose.
        TRACK_POSE.check(landmarks, pixels, keyframe.position_m,
                         keyframe.yaw_rad, sequence.camera)

    def test_perturbed_start_matches_scalar(self, sequence, built_map):
        keyframe, landmarks, pixels = keyframe_correspondences(built_map)
        start = keyframe.position_m + np.array([0.3, -0.2, 0.1])
        TRACK_POSE.check(landmarks, pixels, start, keyframe.yaw_rad + 0.05,
                         sequence.camera)

    def test_too_few_correspondences_both_engines(self, sequence):
        landmarks = [np.array([10.0, 0.0, 1.5])] * 3
        pixels = [(320.0, 240.0)] * 3
        with pytest.raises(TrackingLostError):
            TRACK_POSE.check(landmarks, pixels, np.zeros(3), 0.0,
                             sequence.camera)

    def test_unknown_engine_rejected(self, sequence):
        with pytest.raises(TypeError, match="engine"):
            track_pose([], [], np.zeros(3), 0.0, sequence.camera,
                       engine="scalar")


class TestBundleAdjustEquivalence:
    def test_global_ba_matches_scalar(self, sequence, built_map):
        GLOBAL_BUNDLE_ADJUST.check(built_map.slam_map, sequence.camera)

    def test_unknown_engine_rejected(self, sequence, built_map):
        with pytest.raises(TypeError, match="engine"):
            global_bundle_adjust(built_map.slam_map, sequence.camera,
                                 engine="scalar")


class TestFrameMemo:
    def test_same_object_per_key(self):
        assert cached_sequence("MH01") is cached_sequence("MH01")
        assert cached_sequence("MH01") is not cached_sequence("MH01", seed=7)

    def test_clear_hook(self):
        first = cached_sequence("MH02")
        clear_sequence_cache()
        assert cached_sequence("MH02") is not first

    @pytest.mark.parametrize("source", [load_sequence, cached_sequence])
    def test_out_of_order_access_is_deterministic(self, source):
        """Frame N read first equals frame N of a fresh in-order pass: the
        sequence renders frames in canonical 0..N order whatever the
        access pattern, so its RNG stream never diverges."""
        clear_sequence_cache()
        sequence = source("MH03", seed=19)
        jumped = sequence.generate_frame(5)
        fresh = load_sequence("MH03", seed=19)
        in_order = [fresh.generate_frame(i) for i in range(6)][5]
        assert np.array_equal(jumped.landmark_ids, in_order.landmark_ids)
        assert np.array_equal(jumped.keypoints_px, in_order.keypoints_px)
        assert np.array_equal(jumped.descriptors, in_order.descriptors)
        # Earlier frames were rendered along the way and stay correct.
        frame0 = sequence.generate_frame(0)
        fresh0 = load_sequence("MH03", seed=19).generate_frame(0)
        assert np.array_equal(frame0.descriptors, fresh0.descriptors)

    def test_reread_returns_the_same_frame(self):
        sequence = load_sequence("MH03", seed=19)
        first = sequence.generate_frame(0)
        again = sequence.generate_frame(0)
        assert np.array_equal(first.landmark_ids, again.landmark_ids)
        assert np.array_equal(first.keypoints_px, again.keypoints_px)
        assert np.array_equal(first.descriptors, again.descriptors)

    def test_defensive_copies(self):
        cached = cached_sequence("MH01")
        frame = cached.generate_frame(2)
        frame.descriptors[:] = 0
        frame.keypoints_px[:] = -1.0
        again = cached.generate_frame(2)
        assert again.descriptors.any()
        assert (again.keypoints_px >= 0).any()

    def test_out_of_range_rejected(self):
        cached = cached_sequence("MH01")
        with pytest.raises(ValueError, match="out of range"):
            cached.generate_frame(cached.frame_count)


def sequence_pairs(sequence, frame_indices):
    """(landmark, pixel, true pose) of every true detection in the frames."""
    landmarks, pixels, positions, yaws = [], [], [], []
    for index in frame_indices:
        frame = sequence.generate_frame(index)
        real = frame.landmark_ids >= 0
        count = int(real.sum())
        landmarks.append(sequence.landmarks_m[frame.landmark_ids[real]])
        pixels.append(frame.keypoints_px[real])
        positions.append(np.tile(frame.true_position_m, (count, 1)))
        yaws.extend([frame.true_yaw_rad] * count)
    return (np.concatenate(landmarks), np.concatenate(pixels),
            np.concatenate(positions), yaws)


class TestGoldenVectors:
    """The SLAM per-frame kernels held ``bitwise`` to recorded vectors.

    Their oracle pairs are ``allclose`` where a reduction is involved, so
    these vectors are what pins the exact bits of the matches, Jacobian
    blocks, poses, maps and trajectories (``tests/fixtures/slam/``).
    """

    @pytest.mark.parametrize("radius_px", [18.0, 55.0])
    def test_match_by_projection(self, sequence, built_map, radius_px):
        features = OrbExtractor(max_features=300).extract(
            sequence.generate_frame(MAP_FRAMES))
        points = list(built_map.slam_map.points.values())
        result = golden(f"{GROUP}/match/projection_{radius_px:g}px",
                        match_by_projection, features, points,
                        built_map._pose, sequence.camera,
                        radius_px=radius_px, uses=BOTH)
        assert result.count > 0

    def test_pose_blocks(self, sequence):
        landmarks, pixels, positions, yaws = sequence_pairs(sequence, [30])
        # A NaN landmark is not valid and drops out of the blocks.
        landmarks[3] = np.nan
        start = positions[0] + np.array([0.05, -0.03, 0.02])
        idx, residuals, jacobians = golden(
            f"{GROUP}/blocks/pose_sequence", kernels.pose_blocks, landmarks,
            pixels, start, yaws[0] + 0.01, sequence.camera, uses=BOTH)
        assert 3 not in idx and idx.size == landmarks.shape[0] - 1
        assert residuals.shape == (idx.size, 2)
        assert jacobians.shape == (idx.size, 2, 4)

    def test_pose_blocks_behind_camera(self, sequence):
        # Row 1 only fails its yaw perturbation, row 2 already its x one:
        # the error is row 1's, the first pair the scalar loop fails on.
        landmarks = np.array([[5.0, 0.0, 0.0], [3e-6, -3.0, 0.5],
                              [1.5e-6, 0.0, 0.0]])
        pixels = np.zeros((3, 2))
        with pytest.raises(ValueError, match="behind camera"):
            golden(f"{GROUP}/blocks/pose_behind_camera", kernels.pose_blocks,
                   landmarks, pixels, np.zeros(3), 0.0, sequence.camera,
                   uses=(LIBM,))

    def test_landmark_blocks(self, sequence):
        landmarks, pixels, positions, yaws = sequence_pairs(
            sequence, [10, 40, 70])
        idx, residuals, jacobians = golden(
            f"{GROUP}/blocks/landmark_sequence", kernels.landmark_blocks,
            landmarks + 0.01, positions,
            np.array([math.cos(yaw) for yaw in yaws]),
            np.array([math.sin(yaw) for yaw in yaws]),
            pixels, sequence.camera, uses=BOTH)
        assert idx.size == landmarks.shape[0]
        assert jacobians.shape == (idx.size, 2, 3)

    def test_landmark_blocks_behind_camera(self, sequence):
        # Facing -x, a landmark 1.5 um ahead falls behind the camera when
        # its x coordinate is perturbed.
        landmarks = np.array([[-5.0, 0.0, 0.0], [-1.5e-6, 0.0, 0.0]])
        yaw = math.pi
        with pytest.raises(ValueError, match="behind camera"):
            golden(f"{GROUP}/blocks/landmark_behind_camera",
                   kernels.landmark_blocks, landmarks, np.zeros((2, 3)),
                   np.full(2, math.cos(yaw)), np.full(2, math.sin(yaw)),
                   np.zeros((2, 2)), sequence.camera, uses=(LIBM,))

    def test_track_pose(self, sequence, built_map):
        keyframe, landmarks, pixels = keyframe_correspondences(built_map)
        start = keyframe.position_m + np.array([0.3, -0.2, 0.1])
        golden(f"{GROUP}/track/perturbed_start", track_pose, landmarks,
               pixels, start, keyframe.yaw_rad + 0.05, sequence.camera,
               uses=BOTH)

    def test_local_bundle_adjust(self, sequence, built_map):
        slam_map = copy.deepcopy(built_map.slam_map)

        def adjust():
            result = local_bundle_adjust(slam_map, sequence.camera)
            keyframes = [slam_map.keyframes[i] for i in sorted(slam_map.keyframes)]
            return {
                "result": result,
                "poses": np.array([k.pose_params for k in keyframes]),
                "points": np.array([slam_map.points[i].position_m
                                    for i in sorted(slam_map.points)]),
            }

        result = golden(f"{GROUP}/ba/local", adjust, uses=BOTH)
        assert result["result"].improved

    def test_pipeline_run(self, sequence):
        def run():
            result = SlamPipeline(sequence).run()
            return {
                "trajectory": result.estimated_trajectory,
                "operations": {stage.value: ops for stage, ops
                               in result.breakdown.operations.items()},
                "keyframes": result.keyframes,
                "map_points": result.map_points,
                "tracking_failures": result.tracking_failures,
            }

        result = golden(f"{GROUP}/pipeline/MH01", run, uses=BOTH)
        assert result["trajectory"].shape == (sequence.frame_count, 3)
