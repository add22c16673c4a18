"""Unit tests: synthetic EuRoC dataset, feature extraction, matching."""

import hashlib

import numpy as np
import pytest

from repro.slam.dataset import (
    DESCRIPTOR_BYTES,
    EUROC_SEQUENCES,
    FRAME_RATE_HZ,
    CameraModel,
    Difficulty,
    Frame,
    _draw_noise,
    all_sequence_names,
    load_sequence,
)
from repro.slam.features import (
    OrbExtractor,
    hamming_distance,
)
from repro.slam.matching import match_by_projection, match_features
from tests.equivalence import BLAS, HAMMING_DISTANCE_MATRIX, LIBM, golden


def inlier_fraction(result, a, b):
    """Fraction of matches that are true correspondences.

    Only possible because the synthetic dataset carries landmark ids; it
    checks that the matcher rejects clutter.
    """
    correct = sum(
        1
        for m in result.matches
        if a.landmark_ids[m.index_a] >= 0
        and a.landmark_ids[m.index_a] == b.landmark_ids[m.index_b]
    )
    return correct / result.count


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
        """A true detection carries its landmark's descriptor with at most
        the sequence's noise bits flipped (2 for an easy sequence)."""
        sequence = load_sequence("MH01")
        frame = sequence.generate_frame(0)
        distances = [
            hamming_distance(descriptor, sequence.descriptor_for(int(landmark_id)))
            for landmark_id, descriptor in zip(frame.landmark_ids, frame.descriptors)
            if landmark_id >= 0
        ]
        assert distances
        assert max(distances) <= 2
        assert max(distances) > 0

    def test_frame_index_bounds(self):
        sequence = load_sequence("MH01")
        with pytest.raises(ValueError):
            sequence.generate_frame(-1)
        with pytest.raises(ValueError):
            sequence.generate_frame(10_000)


def frame_digest(frame: Frame) -> str:
    """A short hash of every bit of ``frame``, byte order fixed."""
    digest = hashlib.sha256()
    for array in (np.array([frame.timestamp_s, frame.true_yaw_rad]),
                  frame.true_position_m, frame.landmark_ids,
                  frame.keypoints_px, frame.descriptors):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        big = array.dtype.newbyteorder(">")
        digest.update(np.ascontiguousarray(array, dtype=big).tobytes())
    return digest.hexdigest()[:16]


class TestRenderGolden:
    """Rendered frames held ``bitwise`` to vectors under ``tests/fixtures/slam/``.

    One sequence per difficulty (2, 5 and 10 noise bits): its first, middle
    and last frames whole, and a digest of every frame.  The render's
    per-landmark camera transform is a BLAS matvec and the trajectory is
    libm trigonometry, so the bits depend on both.
    """

    @pytest.mark.parametrize("name", ["MH01", "MH03", "V203"])
    def test_frames(self, name):
        sequence = load_sequence(name)
        count = sequence.frame_count

        def render():
            frames = [sequence.generate_frame(index) for index in range(count)]
            return {
                "frames": [frames[0], frames[count // 2], frames[-1]],
                "digests": [frame_digest(frame) for frame in frames],
            }

        result = golden(f"slam/dataset/{name}", render, uses=(BLAS, LIBM))
        assert len(result["digests"]) == count


def plain_draws(rng, count, noise_bits, sigma, spurious, width, height):
    """``_draw_noise``'s contract: the generator calls it stands in for."""
    noise, bits = [], []
    for _ in range(count):
        noise.append([rng.normal(0.0, sigma), rng.normal(0.0, sigma)])
        bits.extend(rng.integers(0, DESCRIPTOR_BYTES * 8, size=noise_bits))
    clutter_px, clutter = [], []
    for _ in range(spurious):
        clutter_px.append([rng.uniform(0, width), rng.uniform(0, height)])
        clutter.append(rng.integers(0, 256, size=DESCRIPTOR_BYTES, dtype=np.uint8))
    return (np.array(noise).reshape(count, 2), np.array(bits, dtype=np.int64),
            np.array(clutter_px).reshape(spurious, 2),
            np.array(clutter, dtype=np.uint8).reshape(spurious, DESCRIPTOR_BYTES))


class TestDrawNoiseStream:
    """``_draw_noise`` decodes raw PCG64 words; its values and the
    generator's final state (the buffered 32-bit half included) must be
    those of the plain calls.  No BLAS or libm: checked on every host."""

    @staticmethod
    def assert_same_stream(frames, seed=5, lead=0):
        """Draw ``frames`` (count, noise_bits, spurious) in turn from two
        generators seeded alike; ``lead`` plain int draws first, so an odd
        lead enters the first frame with a buffered half."""
        fast, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (fast, plain):
            rng.integers(0, 256, size=lead)
        assert fast.bit_generator.state["has_uint32"] == lead % 2
        for count, noise_bits, spurious in frames:
            args = (count, noise_bits, 0.6, spurious, 752, 480)
            got, expected = _draw_noise(fast, *args), plain_draws(plain, *args)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert fast.bit_generator.state == plain.bit_generator.state

    @pytest.mark.parametrize("noise_bits", [2, 5, 10])
    @pytest.mark.parametrize("lead", [0, 1])
    def test_noise_bits(self, noise_bits, lead):
        self.assert_same_stream(
            [(37, noise_bits, 3), (40, noise_bits, 4), (1, noise_bits, 2)],
            lead=lead)

    @pytest.mark.parametrize("lead", [0, 1])
    def test_frame_without_visible_landmarks(self, lead):
        self.assert_same_stream([(0, 5, 2), (3, 5, 2), (0, 5, 2)], lead=lead)


class TestDescriptorTable:
    def test_rows_are_the_landmark_seeds_draws(self):
        sequence = load_sequence("MH03")
        for landmark_id in range(sequence.spec.landmark_count):
            seed = int(sequence._descriptor_seeds[landmark_id])
            expected = np.random.default_rng(seed).integers(
                0, 256, size=DESCRIPTOR_BYTES, dtype=np.uint8)
            assert np.array_equal(sequence.descriptor_for(landmark_id), expected)
        with pytest.raises(ValueError):
            sequence.descriptor_for(sequence.spec.landmark_count)

    def test_mutating_a_descriptor_changes_nothing(self):
        sequence, reference = load_sequence("MH03"), load_sequence("MH03")
        for landmark_id in range(sequence.spec.landmark_count):
            sequence.descriptor_for(landmark_id)[:] ^= np.uint8(0xFF)
        for landmark_id in range(sequence.spec.landmark_count):
            assert np.array_equal(sequence.descriptor_for(landmark_id),
                                  reference.descriptor_for(landmark_id))
        for index in range(0, sequence.frame_count, 13):
            assert frame_digest(sequence.generate_frame(index)) == \
                frame_digest(reference.generate_frame(index))


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
