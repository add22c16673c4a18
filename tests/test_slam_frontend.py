"""Unit tests: synthetic EuRoC dataset, feature extraction, matching."""

import numpy as np
import pytest

from repro.slam.dataset import (
    EUROC_SEQUENCES,
    FRAME_RATE_HZ,
    CameraModel,
    Difficulty,
    all_sequence_names,
    load_sequence,
)
from repro.slam.features import (
    OrbExtractor,
    hamming_distance,
)
from repro.slam.matching import (
    inlier_fraction,
    match_by_projection,
    match_features,
)
from tests.equivalence import HAMMING_DISTANCE_MATRIX


class TestDataset:
    def test_eleven_sequences(self):
        names = all_sequence_names()
        assert len(names) == 11
        assert names[0] == "MH01" and names[-1] == "V203"

    def test_difficulty_grading(self):
        assert EUROC_SEQUENCES["MH01"].difficulty is Difficulty.EASY
        assert EUROC_SEQUENCES["MH04"].difficulty is Difficulty.DIFFICULT
        assert EUROC_SEQUENCES["V203"].mean_speed_m_s > EUROC_SEQUENCES[
            "V101"
        ].mean_speed_m_s

    def test_camera_projection(self):
        camera = CameraModel()
        u, v = camera.project(np.array([0.0, 0.0, 2.0]))
        assert u == pytest.approx(camera.cx)
        assert v == pytest.approx(camera.cy)
        with pytest.raises(ValueError):
            camera.project(np.array([0.0, 0.0, -1.0]))

    def test_frames_observe_landmarks(self):
        sequence = load_sequence("MH01")
        frame = sequence.generate_frame(0)
        assert frame.observation_count > 30
        real = frame.landmark_ids[frame.landmark_ids >= 0]
        assert real.size > 0.8 * frame.observation_count  # few spurious

    def test_keypoints_inside_image(self):
        sequence = load_sequence("V101")
        frame = sequence.generate_frame(5)
        margin = 5.0  # pixel noise can push slightly past the border
        assert np.all(frame.keypoints_px[:, 0] > -margin)
        assert np.all(frame.keypoints_px[:, 0] < sequence.camera.width + margin)

    def test_deterministic_generation(self):
        a = load_sequence("MH03", seed=4).generate_frame(7)
        b = load_sequence("MH03", seed=4).generate_frame(7)
        assert np.array_equal(a.keypoints_px, b.keypoints_px)
        assert np.array_equal(a.descriptors, b.descriptors)

    def test_frame_count_matches_duration(self):
        sequence = load_sequence("MH01")
        assert sequence.frame_count == int(
            sequence.spec.duration_s * FRAME_RATE_HZ
        )

    def test_trajectory_is_smooth(self):
        sequence = load_sequence("MH01")
        p0, _ = sequence.true_pose(1.0)
        p1, _ = sequence.true_pose(1.05)
        speed = np.linalg.norm(p1 - p0) / 0.05
        assert speed < 3.0 * sequence.spec.mean_speed_m_s

    def test_unknown_sequence(self):
        with pytest.raises(KeyError):
            load_sequence("MH99")

    def test_descriptor_stability_with_noise(self):
        sequence = load_sequence("MH01")
        clean = sequence.descriptor_for(0)
        noisy = sequence.descriptor_for(0, noise_bits=5)
        distance = hamming_distance(clean, noisy)
        assert 0 < distance <= 5

    def test_frame_index_bounds(self):
        sequence = load_sequence("MH01")
        with pytest.raises(ValueError):
            sequence.generate_frame(-1)
        with pytest.raises(ValueError):
            sequence.generate_frame(10_000)


class TestFeatureExtraction:
    def test_budget_enforced(self):
        sequence = load_sequence("MH01")
        extractor = OrbExtractor(max_features=50)
        features = extractor.extract(sequence.generate_frame(0))
        assert features.count <= 50

    def test_spatial_spread_from_bucketing(self):
        sequence = load_sequence("MH01")
        extractor = OrbExtractor(max_features=60)
        features = extractor.extract(sequence.generate_frame(0))
        # Features must not all cluster in one image quadrant.
        xs = features.keypoints_px[:, 0]
        assert xs.std() > 50.0

    def test_operation_accounting(self):
        sequence = load_sequence("MH01")
        extractor = OrbExtractor()
        features = extractor.extract(sequence.generate_frame(0))
        assert features.operations > 1_000_000

    def test_hamming_distance_identity(self):
        d = np.random.default_rng(0).integers(0, 256, 32, dtype=np.uint8)
        assert hamming_distance(d, d) == 0

    def test_hamming_matrix_matches_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, (3, 32), dtype=np.uint8)
        b = rng.integers(0, 256, (4, 32), dtype=np.uint8)
        (matrix, ops), _ = HAMMING_DISTANCE_MATRIX.check(a, b)
        assert matrix.shape == (3, 4)
        assert ops == 3 * 4 * 256
        assert matrix[1, 2] == hamming_distance(a[1], b[2])


class TestMatching:
    @pytest.fixture(scope="class")
    def consecutive_features(self):
        sequence = load_sequence("MH01")
        extractor = OrbExtractor(max_features=200)
        return (
            extractor.extract(sequence.generate_frame(0)),
            extractor.extract(sequence.generate_frame(1)),
        )

    def test_consecutive_frames_match_well(self, consecutive_features):
        a, b = consecutive_features
        result = match_features(a, b)
        assert result.count > 30
        assert inlier_fraction(result, a, b) > 0.9

    def test_projection_guided_matching(self):
        sequence = load_sequence("MH01")
        extractor = OrbExtractor(max_features=200)
        frame = sequence.generate_frame(2)
        features = extractor.extract(frame)

        from repro.slam.map import MapPoint

        points = [
            MapPoint(
                point_id=int(lid),
                position_m=sequence.landmarks_m[int(lid)],
                descriptor=sequence.descriptor_for(int(lid)),
            )
            for lid in features.landmark_ids[:80]
            if lid >= 0
        ]
        result = match_by_projection(
            features, points, (frame.true_position_m, frame.true_yaw_rad),
            sequence.camera,
        )
        assert result.count > 0.7 * len(points)
        # Every reported match carries the right landmark id.
        correct = sum(
            1 for m in result.matches
            if features.landmark_ids[m.index_a] == m.index_b
        )
        assert correct / result.count > 0.9

    def test_projection_ops_cheaper_than_brute_force(self):
        sequence = load_sequence("MH01")
        extractor = OrbExtractor(max_features=200)
        frame = sequence.generate_frame(2)
        features = extractor.extract(frame)
        from repro.slam.map import MapPoint

        points = [
            MapPoint(int(l), sequence.landmarks_m[int(l)],
                     sequence.descriptor_for(int(l)))
            for l in features.landmark_ids[:100] if l >= 0
        ]
        guided = match_by_projection(
            features, points, (frame.true_position_m, frame.true_yaw_rad),
            sequence.camera,
        )
        brute_force_ops = features.count * len(points) * 256
        assert guided.operations < brute_force_ops

    def test_empty_inputs(self):
        sequence = load_sequence("MH01")
        extractor = OrbExtractor(max_features=10)
        features = extractor.extract(sequence.generate_frame(0))
        empty = match_by_projection(
            features, [], (np.zeros(3), 0.0), sequence.camera
        )
        assert empty.count == 0
