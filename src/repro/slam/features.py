"""Feature extraction front end (the ORB stage of ORB-SLAM).

Frames arrive with keypoints/descriptors already synthesized
(:mod:`repro.slam.dataset`), so extraction here means: score and cap the
keypoint budget the way an ORB front end does (grid bucketing for spatial
spread, response thresholding), and account the arithmetic cost so platform
models can price the stage (eSLAM accelerates exactly this stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.slam.dataset import Frame

#: ORB cost model: FAST test + orientation + 256 BRIEF comparisons per
#: keypoint, plus pyramid overhead — rough operations per extracted feature.
OPS_PER_KEYPOINT = 3200
#: Image-wide cost (pyramid build, FAST over all pixels) per frame.
OPS_PER_FRAME_BASE = 1_500_000


@dataclass(frozen=True)
class FeatureSet:
    """Extraction output: the frame's surviving keypoints plus cost."""

    frame_index: int
    landmark_ids: np.ndarray
    keypoints_px: np.ndarray
    descriptors: np.ndarray
    operations: int

    @property
    def count(self) -> int:
        return int(self.landmark_ids.size)


@dataclass
class OrbExtractor:
    """Budgeted, grid-bucketed feature selection (vectorized round-robin)."""

    max_features: int = 400
    grid_cols: int = 8
    grid_rows: int = 6
    image_width: float = 752.0
    image_height: float = 480.0

    def __post_init__(self) -> None:
        if self.max_features <= 0:
            raise ValueError(f"max_features must be positive: {self.max_features}")
        if self.grid_cols <= 0 or self.grid_rows <= 0:
            raise ValueError("grid dimensions must be positive")

    def extract(self, frame: Frame) -> FeatureSet:
        """Select up to ``max_features`` keypoints with spatial spread."""
        count = frame.observation_count
        if count == 0:
            return FeatureSet(
                frame_index=frame.index,
                landmark_ids=np.empty(0, dtype=np.int64),
                keypoints_px=np.empty((0, 2)),
                descriptors=np.empty((0, 32), dtype=np.uint8),
                operations=OPS_PER_FRAME_BASE,
            )
        if count <= self.max_features:
            return _select(frame, np.arange(count))
        return _select(frame, self._bucketed_selection(frame.keypoints_px))

    def _bucketed_selection(self, keypoints_px: np.ndarray) -> np.ndarray:
        """Round-robin across grid cells so features cover the image.

        Ranking keypoints by (within-cell rank, cell) reproduces the bucket
        walk of :func:`repro.oracles.orb_extract`, so both keep one set.
        """
        from repro.slam.kernels import bucketed_ranks

        cells = self._grid_cells(keypoints_px)
        order, depth = bucketed_ranks(cells)
        round_robin = np.lexsort((cells[order], depth))
        selected = order[round_robin[: self.max_features]]
        return np.sort(selected).astype(int)

    def _grid_cells(self, keypoints_px: np.ndarray) -> np.ndarray:
        cols = np.clip(
            (keypoints_px[:, 0] / self.image_width * self.grid_cols).astype(int),
            0,
            self.grid_cols - 1,
        )
        rows = np.clip(
            (keypoints_px[:, 1] / self.image_height * self.grid_rows).astype(int),
            0,
            self.grid_rows - 1,
        )
        return rows * self.grid_cols + cols


def _select(frame: Frame, keep: np.ndarray) -> FeatureSet:
    """The features at indices ``keep`` of ``frame``, with their cost."""
    return FeatureSet(
        frame_index=frame.index,
        landmark_ids=frame.landmark_ids[keep],
        keypoints_px=frame.keypoints_px[keep],
        descriptors=frame.descriptors[keep],
        operations=OPS_PER_FRAME_BASE + OPS_PER_KEYPOINT * int(keep.size),
    )


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two 32-byte ORB descriptors."""
    if a.shape != b.shape:
        raise ValueError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    return int(np.unpackbits(np.bitwise_xor(a, b)).sum())


def hamming_distance_matrix(
    descriptors_a: np.ndarray, descriptors_b: np.ndarray
) -> Tuple[np.ndarray, int]:
    """All-pairs Hamming distances plus the operation count.

    Returns (distances [A, B] uint16, ops).  This is the brute-force matcher
    kernel; FPGA front ends pipeline exactly this computation.  It runs the
    packed popcount-LUT kernel, bit-for-bit equal to the unpackbits oracle.
    """
    if descriptors_a.ndim != 2 or descriptors_b.ndim != 2:
        raise ValueError("descriptor arrays must be 2-D")
    from repro.slam.kernels import hamming_matrix

    distances = hamming_matrix(descriptors_a, descriptors_b)
    operations = int(descriptors_a.shape[0] * descriptors_b.shape[0] * 256)
    return distances, operations
