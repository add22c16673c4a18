"""Vectorized SLAM numeric kernels (the batch engine of the perception stack).

The scalar oracles of the SLAM stage functions (:mod:`repro.oracles`) loop
per descriptor pair or per observation; these kernels, which the stage
functions in :mod:`features`, :mod:`matching`, :mod:`tracking`, and
:mod:`bundle_adjustment` run, evaluate the same arithmetic over stacked
NumPy arrays.  They are the
perception-side analogue of :mod:`repro.core.batch` and follow the same
equivalence discipline:

* **Integer outputs are bit-for-bit.**  Hamming distances use a 256-entry
  popcount LUT over the packed uint8 XOR — value-identical to the scalar
  ``np.unpackbits`` reduction, so matcher decisions (ratio test, cross check,
  greedy projection matching) cannot diverge.

* **Per-element float outputs are bit-for-bit.**  Camera-frame transforms,
  projections, residuals, and numeric Jacobians are elementwise float64
  expressions written in the same operation order as the scalar code
  (``c*dx + s*dy`` etc.); NumPy evaluates them without FMA contraction, so
  each element equals the scalar value exactly.  Validity masks (behind-camera
  tests, ``z > 1e-6``) therefore agree exactly too.

* **Reductions are allclose, not bitwise.**  Normal-equation accumulation
  (``einsum`` / ``np.add.at``) pairs terms in a fixed, documented order —
  observation order for pose systems, (point-major, keyframe-minor) for
  landmark systems — but floating-point summation order still differs from
  the scalar one-at-a-time loop, so accumulated sums match to ~1e-12 relative,
  not bitwise.  Downstream *decisions* (skip masks, used counts, raised
  errors) only depend on the bit-exact per-element values.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.analysis.markers import pure
from repro.slam.dataset import CameraModel

#: Popcount of every byte value; ``_POPCOUNT[a ^ b]`` summed over the 32
#: descriptor bytes is the Hamming distance.  Built with unpackbits so the
#: table is definitionally consistent with the scalar reduction.
_POPCOUNT = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    .sum(axis=1)
    .astype(np.uint8)
)

#: Numeric-differentiation step shared by the scalar Jacobians.
JACOBIAN_EPSILON = 1e-6

#: Behind-camera threshold of :meth:`CameraModel.project`.
MIN_CAMERA_Z = 1e-6


@pure
def hamming_matrix(descriptors_a: np.ndarray, descriptors_b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances, (A, B) uint16, via the popcount LUT.

    Bit-for-bit equal to the scalar ``np.unpackbits(xor).sum()`` kernel: both
    compute exact bit counts <= 256, so the uint16 casts agree.
    """
    xor = np.bitwise_xor(descriptors_a[:, None, :], descriptors_b[None, :, :])
    return _POPCOUNT[xor].sum(axis=2).astype(np.uint16)


@pure
def camera_points(
    landmarks_m: np.ndarray, position_m: np.ndarray, yaw_rad: float
) -> np.ndarray:
    """Batch of :func:`repro.slam.tracking.camera_point` for one pose.

    Elementwise float64 in the scalar operation order, so every row is
    bit-identical to the scalar transform of that landmark.
    """
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    delta = landmarks_m - position_m
    bx = c * delta[:, 0] + s * delta[:, 1]
    by = -s * delta[:, 0] + c * delta[:, 1]
    bz = delta[:, 2]
    return np.stack([-by, -bz, bx], axis=1)


@pure
def camera_points_posed(
    landmarks_m: np.ndarray,
    positions_m: np.ndarray,
    cos_yaw: np.ndarray,
    sin_yaw: np.ndarray,
) -> np.ndarray:
    """Camera-frame points for per-row (landmark, pose) pairs.

    ``cos_yaw``/``sin_yaw`` must come from ``math.cos``/``math.sin`` of each
    pose's yaw (one libm call per pose, broadcast to its pairs) so rows stay
    bit-identical to the scalar transform.
    """
    delta = landmarks_m - positions_m
    bx = cos_yaw * delta[:, 0] + sin_yaw * delta[:, 1]
    by = -sin_yaw * delta[:, 0] + cos_yaw * delta[:, 1]
    bz = delta[:, 2]
    return np.stack([-by, -bz, bx], axis=1)


@pure
def project_points(
    points_camera: np.ndarray, camera: CameraModel
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch pinhole projection; callers must pre-mask ``z > MIN_CAMERA_Z``."""
    x = points_camera[:, 0]
    y = points_camera[:, 1]
    z = points_camera[:, 2]
    return camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy


def _raise_behind_camera(z_columns, row: int) -> None:
    """Re-raise the scalar projector's error for the first bad perturbation.

    ``z_columns`` lists the perturbed z arrays in the scalar perturbation
    order; ``row`` is the first pair whose Jacobian the scalar loop would
    have failed on.
    """
    for z_col in z_columns:
        z = float(z_col[row])
        if z <= MIN_CAMERA_Z:
            raise ValueError(f"point behind camera: z={z}")
    raise AssertionError("no offending perturbation found")  # pragma: no cover


def pose_blocks(
    landmarks_m: np.ndarray,
    pixels: np.ndarray,
    position_m: np.ndarray,
    yaw_rad: float,
    camera: CameraModel,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and 2x4 pose Jacobians for every valid correspondence.

    Returns ``(valid_indices, residuals (V, 2), jacobians (V, 2, 4))`` where
    validity is the scalar rule (camera-frame ``z > 1e-6``; invalid rows are
    the ones the scalar loop skips via the caught ValueError).  Replicates
    the scalar failure mode exactly: if a *perturbed* projection of a valid
    correspondence lands behind the camera, raises the projector's
    ``ValueError`` for the first offending (correspondence, perturbation) in
    scalar iteration order (x, y, z, then yaw).
    """
    cam = camera_points(landmarks_m, position_m, yaw_rad)
    valid = cam[:, 2] > MIN_CAMERA_Z
    idx = np.nonzero(valid)[0]
    if idx.size == 0:
        return idx, np.empty((0, 2)), np.empty((0, 2, 4))
    lm = landmarks_m[idx]
    base_cam = cam[idx]
    u, v = project_points(base_cam, camera)
    residuals = np.stack([u - pixels[idx, 0], v - pixels[idx, 1]], axis=1)
    base_uv = np.stack([u, v], axis=1)

    perturbed_cams = []
    for k in range(3):
        perturbed_position_m = position_m.copy()
        perturbed_position_m[k] += JACOBIAN_EPSILON
        perturbed_cams.append(camera_points(lm, perturbed_position_m, yaw_rad))
    perturbed_cams.append(camera_points(lm, position_m, yaw_rad + JACOBIAN_EPSILON))

    z_columns = [pc[:, 2] for pc in perturbed_cams]
    bad = (z_columns[0] <= MIN_CAMERA_Z) | (z_columns[1] <= MIN_CAMERA_Z)
    bad |= (z_columns[2] <= MIN_CAMERA_Z) | (z_columns[3] <= MIN_CAMERA_Z)
    if bad.any():
        _raise_behind_camera(z_columns, int(np.argmax(bad)))

    jacobians = np.empty((idx.size, 2, 4))
    for k, pc in enumerate(perturbed_cams):
        pu, pv = project_points(pc, camera)
        jacobians[:, 0, k] = (pu - base_uv[:, 0]) / JACOBIAN_EPSILON
        jacobians[:, 1, k] = (pv - base_uv[:, 1]) / JACOBIAN_EPSILON
    return idx, residuals, jacobians


def landmark_blocks(
    landmarks_m: np.ndarray,
    positions_m: np.ndarray,
    cos_yaw: np.ndarray,
    sin_yaw: np.ndarray,
    pixels: np.ndarray,
    camera: CameraModel,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and 2x3 landmark Jacobians for (landmark, pose) pairs.

    Same contract as :func:`pose_blocks`, but the perturbation runs over the
    landmark coordinates (the intersection half of bundle adjustment) and the
    pose is per-row.  Raises the scalar projector's ``ValueError`` for the
    first (pair, axis) whose perturbed point falls behind the camera.
    """
    cam = camera_points_posed(landmarks_m, positions_m, cos_yaw, sin_yaw)
    valid = cam[:, 2] > MIN_CAMERA_Z
    idx = np.nonzero(valid)[0]
    if idx.size == 0:
        return idx, np.empty((0, 2)), np.empty((0, 2, 3))
    lm = landmarks_m[idx]
    pos = positions_m[idx]
    c = cos_yaw[idx]
    s = sin_yaw[idx]
    base_cam = cam[idx]
    u, v = project_points(base_cam, camera)
    residuals = np.stack([u - pixels[idx, 0], v - pixels[idx, 1]], axis=1)
    base_uv = np.stack([u, v], axis=1)

    perturbed_cams = []
    for k in range(3):
        perturbed_lm_m = lm.copy()
        perturbed_lm_m[:, k] += JACOBIAN_EPSILON
        perturbed_cams.append(camera_points_posed(perturbed_lm_m, pos, c, s))

    z_columns = [pc[:, 2] for pc in perturbed_cams]
    bad = (z_columns[0] <= MIN_CAMERA_Z) | (z_columns[1] <= MIN_CAMERA_Z)
    bad |= z_columns[2] <= MIN_CAMERA_Z
    if bad.any():
        _raise_behind_camera(z_columns, int(np.argmax(bad)))

    jacobians = np.empty((idx.size, 2, 3))
    for k, pc in enumerate(perturbed_cams):
        pu, pv = project_points(pc, camera)
        jacobians[:, 0, k] = (pu - base_uv[:, 0]) / JACOBIAN_EPSILON
        jacobians[:, 1, k] = (pv - base_uv[:, 1]) / JACOBIAN_EPSILON
    return idx, residuals, jacobians


def bucketed_ranks(cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Round-robin rank of each keypoint within its grid cell.

    Returns ``(order, depth)`` where ``order`` is the stable cell-sorted
    permutation and ``depth[i]`` is the rank of ``order[i]`` inside its cell.
    Taking keypoints in ``np.lexsort((cells[order], depth))`` order is exactly
    the scalar extractor's round-robin (depth-major, cell-ascending) walk.
    """
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    n = sorted_cells.size
    depth = np.arange(n)
    if n:
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        np.not_equal(sorted_cells[1:], sorted_cells[:-1], out=run_start[1:])
        starts = np.nonzero(run_start)[0]
        counts = np.diff(np.append(starts, n))
        depth = depth - np.repeat(starts, counts)
    return order, depth
