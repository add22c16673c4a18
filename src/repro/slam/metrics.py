"""SLAM accuracy metrics: ATE and map quality.

The paper states its SLAM experiments run "while confirming SLAM key
metrics" — these are those metrics, computed against the synthetic ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def absolute_trajectory_error_m(
    estimated: np.ndarray, truth: np.ndarray
) -> float:
    """ATE RMSE (m) between aligned trajectories of shape (N, 3)."""
    estimated = np.asarray(estimated, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimated.shape != truth.shape:
        raise ValueError(
            f"trajectory shapes differ: {estimated.shape} vs {truth.shape}"
        )
    if estimated.ndim != 2 or estimated.shape[1] != 3:
        raise ValueError("trajectories must be (N, 3) arrays")
    errors = np.linalg.norm(estimated - truth, axis=1)
    return float(np.sqrt(np.mean(errors**2)))


@dataclass(frozen=True)
class MapQuality:
    """Landmark reconstruction quality against the synthetic world."""

    matched_points: int
    mean_error_m: float
    max_error_m: float


def map_quality(slam_map, true_landmarks_m: np.ndarray) -> MapQuality:
    """Compare estimated map points with their true landmark positions.

    Map point ids equal landmark ids in the synthetic dataset, so the
    association is exact — a luxury real SLAM evaluation lacks.
    """
    true_landmarks_m = np.asarray(true_landmarks_m, dtype=float)
    errors = []
    for point_id, point in slam_map.points.items():
        if not 0 <= point_id < true_landmarks_m.shape[0]:
            raise KeyError(f"map point id {point_id} outside landmark table")
        errors.append(
            float(np.linalg.norm(point.position_m - true_landmarks_m[point_id]))
        )
    if not errors:
        raise ValueError("map holds no points to evaluate")
    return MapQuality(
        matched_points=len(errors),
        mean_error_m=float(np.mean(errors)),
        max_error_m=float(np.max(errors)),
    )
