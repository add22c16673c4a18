"""Fast path <-> scalar oracle equivalence for the vectorized SLAM kernels.

The contract (documented in :mod:`repro.slam.kernels`), checked by the
pairs of :mod:`tests.equivalence`:

- integer decisions (matches, operation counts, iteration counts, used
  correspondences) are bit-for-bit identical to the oracle;
- per-element float math (projections, residuals) is bit-identical because
  the fast path replicates the scalar operation order;
- reductions (normal equations, RMS sums) accumulate in a different order,
  so poses/landmarks/RMS agree to ``allclose`` tolerances only.
"""

import numpy as np
import pytest

from repro.slam import kernels
from repro.slam.bundle_adjustment import global_bundle_adjust
from repro.slam.dataset import (
    cached_sequence,
    clear_sequence_cache,
    load_sequence,
)
from repro.slam.features import OrbExtractor, hamming_distance, \
    hamming_distance_matrix
from repro.slam.pipeline import SlamPipeline
from repro.slam.tracking import TrackingLostError, track_pose
from tests.equivalence import (
    GLOBAL_BUNDLE_ADJUST,
    HAMMING_DISTANCE_MATRIX,
    MATCH_AGAINST_MAP,
    MATCH_BY_PROJECTION,
    MATCH_FEATURES,
    ORB_EXTRACT,
    TRACK_POSE,
)

MAP_FRAMES = 45


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


class TestTrackPoseEquivalence:
    def _correspondences(self, built_map):
        slam_map = built_map.slam_map
        keyframe = slam_map.keyframes[max(slam_map.keyframes)]
        landmarks, pixels = [], []
        for point_id, pixel in keyframe.observations.items():
            point = slam_map.points.get(point_id)
            if point is not None:
                landmarks.append(point.position_m)
                pixels.append(pixel)
        return keyframe, landmarks, pixels

    def test_matches_scalar(self, sequence, built_map):
        keyframe, landmarks, pixels = self._correspondences(built_map)
        # Integer decisions are exact; floats cross reductions -> allclose.
        TRACK_POSE.check(landmarks, pixels, keyframe.position_m,
                         keyframe.yaw_rad, sequence.camera)

    def test_perturbed_start_matches_scalar(self, sequence, built_map):
        keyframe, landmarks, pixels = self._correspondences(built_map)
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


class TestCachedSequence:
    def test_same_object_per_key(self):
        assert cached_sequence("MH01") is cached_sequence("MH01")
        assert cached_sequence("MH01") is not cached_sequence("MH01", seed=7)

    def test_clear_hook(self):
        first = cached_sequence("MH02")
        clear_sequence_cache()
        assert cached_sequence("MH02") is not first

    def test_out_of_order_access_is_deterministic(self):
        """Frame N from a cold cache equals fresh in-order frame N: the
        cache generates frames in canonical 0..N order regardless of the
        access pattern, so the sequence RNG stream never diverges."""
        clear_sequence_cache()
        cached = cached_sequence("MH03", seed=19)
        jumped = cached.generate_frame(5)
        fresh = load_sequence("MH03", seed=19)
        in_order = [fresh.generate_frame(i) for i in range(6)][5]
        assert np.array_equal(jumped.landmark_ids, in_order.landmark_ids)
        assert np.array_equal(jumped.keypoints_px, in_order.keypoints_px)
        assert np.array_equal(jumped.descriptors, in_order.descriptors)
        # Earlier frames were materialized along the way and stay correct.
        frame0 = cached.generate_frame(0)
        fresh0 = load_sequence("MH03", seed=19).generate_frame(0)
        assert np.array_equal(frame0.descriptors, fresh0.descriptors)

    def test_defensive_copies(self):
        cached = cached_sequence("MH01")
        frame = cached.generate_frame(2)
        frame.descriptors[:] = 0
        frame.keypoints_px[:] = -1.0
        again = cached.generate_frame(2)
        assert again.descriptors.any()
        assert (again.keypoints_px >= 0).any()

    def test_noisy_descriptor_queries_rejected(self):
        cached = cached_sequence("MH01")
        landmark_id = int(cached.generate_frame(0).landmark_ids.max())
        clean = cached.descriptor_for(landmark_id)
        assert clean.shape == (32,)
        with pytest.raises(ValueError, match="noisy"):
            cached.descriptor_for(landmark_id, noise_bits=2)

    def test_out_of_range_rejected(self):
        cached = cached_sequence("MH01")
        with pytest.raises(ValueError, match="out of range"):
            cached.generate_frame(cached.frame_count)
