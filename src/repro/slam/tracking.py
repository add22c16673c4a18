"""Camera tracking: motion-only pose optimization against the map.

Given 3D-2D correspondences (map points -> pixels), refine the 4-DOF pose
[x, y, z, yaw] by Gauss-Newton on the reprojection error — the 'tracking'
thread of ORB-SLAM, run on every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.slam.dataset import CameraModel

HUBER_DELTA_PX = 5.0
#: J^T J + J^T r + projections, per correspondence and iteration.
OPS_PER_CORRESPONDENCE = 2 * 4 * 4 * 2 + 5 * 16


class TrackingLostError(RuntimeError):
    """Raised when too few correspondences support a pose estimate."""


def camera_point(
    landmark_m: np.ndarray, position_m: np.ndarray, yaw_rad: float
) -> np.ndarray:
    """World landmark -> camera-frame point for a 4-DOF pose.

    Matches the dataset's projection convention: the camera looks along the
    body +x axis; camera frame is (right, down, forward).
    """
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    delta = landmark_m - position_m
    # body = R_yaw^T * delta
    bx = c * delta[0] + s * delta[1]
    by = -s * delta[0] + c * delta[1]
    bz = delta[2]
    return np.array([-by, -bz, bx])


@dataclass(frozen=True)
class TrackingResult:
    """Refined pose plus optimization diagnostics."""

    position_m: np.ndarray
    yaw_rad: float
    inliers: int
    final_rms_px: float
    iterations: int
    operations: int


def _require_correspondences(
    landmarks_m: List[np.ndarray],
    pixels: List[Tuple[float, float]],
    min_correspondences: int,
) -> None:
    """Reject a pose problem too small to track before iterating."""
    if len(landmarks_m) != len(pixels):
        raise ValueError("landmarks and pixels must align")
    if len(landmarks_m) < min_correspondences:
        raise TrackingLostError(
            f"only {len(landmarks_m)} correspondences; "
            f"need {min_correspondences}"
        )


def track_pose(
    landmarks_m: List[np.ndarray],
    pixels: List[Tuple[float, float]],
    initial_position_m: np.ndarray,
    initial_yaw_rad: float,
    camera: CameraModel,
    max_iterations: int = 8,
    min_correspondences: int = 8,
) -> TrackingResult:
    """Gauss-Newton motion-only pose refinement with Huber weighting.

    Each iteration stacks all correspondences and builds the normal
    equations with einsum.  Per-correspondence values (residuals, validity,
    Jacobians) are bit-identical to the per-observation oracle
    (:func:`repro.oracles.track_pose`); the accumulated normal equations
    differ only in float summation order, so poses agree to ~1e-12 while
    iteration counts, inlier counts, raised errors, and operation counts
    agree exactly (see :mod:`repro.slam.kernels`).
    """
    _require_correspondences(landmarks_m, pixels, min_correspondences)

    from repro.slam.kernels import pose_blocks

    landmarks = np.asarray(landmarks_m, dtype=float).reshape(len(landmarks_m), 3)
    pixel_array = np.asarray(pixels, dtype=float).reshape(len(pixels), 2)

    def normal_equations(position: np.ndarray, yaw: float):
        _, residuals, jacobians = pose_blocks(
            landmarks, pixel_array, position, yaw, camera
        )
        used = residuals.shape[0]
        errors = np.sqrt(np.add.reduce(residuals * residuals, axis=1))
        weights = np.ones(used)
        # ~(e <= delta), not (e > delta): a NaN error must take the scalar
        # else-branch (NaN weight), not silently weight 1.0.
        heavy = ~(errors <= HUBER_DELTA_PX)
        weights[heavy] = HUBER_DELTA_PX / errors[heavy]
        # Accumulation order: einsum reduces over the observation axis; the
        # pairing differs from the scalar one-at-a-time loop, so the normal
        # equations agree to allclose, not bitwise.
        normal = np.einsum("n,nia,nib->ab", weights, jacobians, jacobians)
        rhs = -np.einsum("n,nia,ni->a", weights, jacobians, residuals)
        total_sq = float(np.einsum("n,n->", weights, errors * errors))
        return normal, rhs, total_sq, used, used * OPS_PER_CORRESPONDENCE

    return _gauss_newton(
        initial_position_m, initial_yaw_rad, max_iterations,
        min_correspondences, normal_equations,
    )


def _gauss_newton(
    initial_position_m: np.ndarray,
    initial_yaw_rad: float,
    max_iterations: int,
    min_correspondences: int,
    normal_equations: Callable[
        [np.ndarray, float], Tuple[np.ndarray, np.ndarray, float, int, int]
    ],
) -> TrackingResult:
    """The pose-refinement loop, shared with the oracle, over a builder
    returning ``(normal, rhs, weighted squared error, used, operations)``."""
    position = np.asarray(initial_position_m, dtype=float).copy()
    yaw = float(initial_yaw_rad)
    operations = 0
    rms = float("inf")
    iterations_run = 0
    used = 0
    for iteration in range(max_iterations):
        normal, rhs, total_sq, used, ops = normal_equations(position, yaw)
        if used < min_correspondences:
            raise TrackingLostError(
                f"only {used} usable correspondences at iteration {iteration}"
            )
        operations += ops
        try:
            delta = np.linalg.solve(normal + 1e-9 * np.eye(4), rhs)
        except np.linalg.LinAlgError as error:
            raise TrackingLostError(f"singular normal equations: {error}")
        operations += 4**3
        position += delta[0:3]
        yaw += float(delta[3])
        rms = math.sqrt(total_sq / used)
        iterations_run = iteration + 1
        if float(np.linalg.norm(delta)) < 1e-6:
            break
    return TrackingResult(
        position_m=position,
        yaw_rad=yaw,
        inliers=used,
        final_rms_px=rms,
        iterations=iterations_run,
        operations=operations,
    )
