"""Vectorized SLAM numeric kernels (the batch engine of the perception stack).

The scalar oracles of the SLAM stage functions (:mod:`repro.oracles`) loop
per descriptor pair or per observation; these kernels, which the stage
functions in :mod:`features`, :mod:`matching`, :mod:`tracking`, and
:mod:`bundle_adjustment` run, evaluate the same arithmetic over stacked
NumPy arrays, under the equivalence discipline of DESIGN.md
§Performance:

* **Integer outputs are bit-for-bit.**  Hamming distances are native
  ``np.bitwise_count`` popcounts over the XOR of descriptors viewed as four
  uint64 words — value-identical to the scalar ``np.unpackbits`` reduction,
  so matcher decisions (ratio test, cross check, greedy projection
  matching) cannot diverge.

* **Per-element float outputs are bit-for-bit.**  Camera-frame transforms,
  projections, residuals, and numeric Jacobians are elementwise float64
  expressions written in the same operation order as the scalar code
  (``c*dx + s*dy`` etc.); NumPy evaluates them without FMA contraction, so
  each element equals the scalar value exactly.  Validity masks (behind-camera
  tests, ``z > 1e-6``) therefore agree exactly too.  The Jacobian blocks
  compute each point's world offset once and run the base and perturbed
  transforms as one stacked pass, each perturbation replacing only the
  offset (or rotation) it moves, with the operands the scalar transform
  would use.

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
from typing import Tuple, Union

import numpy as np

from repro.analysis.markers import pure
from repro.slam.dataset import DESCRIPTOR_BYTES, CameraModel

#: Numeric-differentiation step shared by the scalar Jacobians.
JACOBIAN_EPSILON = 1e-6

#: Behind-camera threshold of :meth:`CameraModel.project`.
MIN_CAMERA_Z = 1e-6


@pure
def descriptor_words(*descriptor_arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Each (N, 32) uint8 descriptor array as (N, 4) uint64 words.

    XOR of two word rows, ``np.bitwise_count`` and a sum over the four
    words is their Hamming distance.  Raises ``ValueError`` naming every
    shape unless all the arrays are (N, 32) uint8.
    """
    for descriptors in descriptor_arrays:
        if descriptors.dtype != np.uint8 or descriptors.ndim != 2 \
                or descriptors.shape[1] != DESCRIPTOR_BYTES:
            shapes = " and ".join(f"{d.dtype} {d.shape}" for d in descriptor_arrays)
            raise ValueError(
                f"descriptors must be (N, {DESCRIPTOR_BYTES}) uint8, got {shapes}"
            )
    return tuple(np.ascontiguousarray(d).view(np.uint64) for d in descriptor_arrays)


@pure
def hamming_matrix(descriptors_a: np.ndarray, descriptors_b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances, (A, B) uint16, by native popcount.

    Bit-for-bit equal to the scalar ``np.unpackbits(xor).sum()`` kernel: both
    compute exact bit counts <= 256, so the uint16 casts agree.
    """
    words_a, words_b = descriptor_words(descriptors_a, descriptors_b)
    xor = np.bitwise_xor(words_a[:, None, :], words_b[None, :, :])
    return np.bitwise_count(xor).sum(axis=2).astype(np.uint16)


def _yawed(dx, dy, cos_yaw, sin_yaw):
    """Body-frame ``(bx, by)`` of world offsets, in the scalar order."""
    return cos_yaw * dx + sin_yaw * dy, -sin_yaw * dx + cos_yaw * dy


def _pixels(bx, by, bz, camera: CameraModel):
    """Pinhole pixels of the camera-frame point ``(-by, -bz, bx)``."""
    return camera.fx * -by / bx + camera.cx, camera.fy * -bz / bx + camera.cy


@pure
def camera_points(
    landmarks_m: np.ndarray, position_m: np.ndarray, yaw_rad: float
) -> np.ndarray:
    """Batch of :func:`repro.slam.tracking.camera_point` for one pose.

    Elementwise float64 in the scalar operation order, so every row is
    bit-identical to the scalar transform of that landmark.
    """
    return camera_points_posed(landmarks_m, position_m,
                               math.cos(yaw_rad), math.sin(yaw_rad))


@pure
def camera_points_posed(
    landmarks_m: np.ndarray,
    positions_m: np.ndarray,
    cos_yaw: Union[float, np.ndarray],
    sin_yaw: Union[float, np.ndarray],
) -> np.ndarray:
    """Camera-frame points for per-row (landmark, pose) pairs.

    ``cos_yaw``/``sin_yaw`` must come from ``math.cos``/``math.sin`` of each
    pose's yaw (one libm call per pose, broadcast to its pairs) so rows stay
    bit-identical to the scalar transform.
    """
    delta = landmarks_m - positions_m
    bx, by = _yawed(delta[:, 0], delta[:, 1], cos_yaw, sin_yaw)
    return np.stack([-by, -delta[:, 2], bx], axis=1)


@pure
def project_points(
    points_camera: np.ndarray, camera: CameraModel
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch pinhole projection; callers must pre-mask ``z > MIN_CAMERA_Z``."""
    x = points_camera[:, 0]
    y = points_camera[:, 1]
    z = points_camera[:, 2]
    return camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy


def _blocks(offsets: np.ndarray, cos_yaw, sin_yaw, pixels: np.ndarray,
            camera: CameraModel) -> Tuple[np.ndarray, np.ndarray]:
    """Residuals (V, 2) and forward-difference Jacobians (V, 2, K) from
    stacked camera transforms.

    ``offsets`` is (3, 1 + K, V): the world offsets (landmark minus
    position) of each point under the base transform (row 0) and under each
    of the K perturbations, in the scalar perturbation order;
    ``cos_yaw``/``sin_yaw`` broadcast against (1 + K, V).  Raises the scalar
    projector's ``ValueError`` for the first (point, perturbation) whose
    perturbed point falls behind the camera.
    """
    bx, by = _yawed(offsets[0], offsets[1], cos_yaw, sin_yaw)
    behind = bx[1:] <= MIN_CAMERA_Z
    bad = behind.any(axis=0)
    if bad.any():
        # The scalar loop fails on the first bad point's first bad
        # perturbation.
        row = int(np.argmax(bad))
        z = float(bx[1 + int(np.argmax(behind[:, row])), row])
        raise ValueError(f"point behind camera: z={z}")
    u, v = _pixels(bx, by, offsets[2], camera)
    residuals = np.empty((pixels.shape[0], 2))
    residuals[:, 0] = u[0] - pixels[:, 0]
    residuals[:, 1] = v[0] - pixels[:, 1]
    jacobians = np.empty((pixels.shape[0], 2, bx.shape[0] - 1))
    jacobians[:, 0] = ((u[1:] - u[0]) / JACOBIAN_EPSILON).T
    jacobians[:, 1] = ((v[1:] - v[0]) / JACOBIAN_EPSILON).T
    return residuals, jacobians


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

    The base and the four perturbed transforms run as one (5, V) pass: the
    world offsets are computed once and each perturbation replaces only the
    offset it moves (yaw moves the rotation instead), with the scalar
    operands, so every element is the scalar value.
    """
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    dx = landmarks_m[:, 0] - position_m[0]
    dy = landmarks_m[:, 1] - position_m[1]
    idx = np.nonzero(_yawed(dx, dy, c, s)[0] > MIN_CAMERA_Z)[0]
    if idx.size == 0:
        return idx, np.empty((0, 2)), np.empty((0, 2, 4))
    lm = landmarks_m[idx].T
    offsets = np.repeat((lm - position_m[:, None])[:, None], 5, axis=1)
    for axis in range(3):
        offsets[axis, axis + 1] = lm[axis] - (position_m[axis] + JACOBIAN_EPSILON)
    c_yawed = math.cos(yaw_rad + JACOBIAN_EPSILON)
    s_yawed = math.sin(yaw_rad + JACOBIAN_EPSILON)
    cos_yaw = np.array([[c], [c], [c], [c], [c_yawed]])
    sin_yaw = np.array([[s], [s], [s], [s], [s_yawed]])
    return (idx, *_blocks(offsets, cos_yaw, sin_yaw, pixels[idx], camera))


def landmark_blocks(
    landmarks_m: np.ndarray,
    positions_m: np.ndarray,
    cos_yaw: np.ndarray,
    sin_yaw: np.ndarray,
    pixels: np.ndarray,
    camera: CameraModel,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and 2x3 landmark Jacobians for (landmark, pose) pairs.

    Same contract and the same one-pass layout as :func:`pose_blocks`, but
    the perturbation runs over the landmark coordinates (the intersection
    half of bundle adjustment) and the pose is per-row.  Raises the scalar
    projector's ``ValueError`` for the first (pair, axis) whose perturbed
    point falls behind the camera.
    """
    dx = landmarks_m[:, 0] - positions_m[:, 0]
    dy = landmarks_m[:, 1] - positions_m[:, 1]
    idx = np.nonzero(_yawed(dx, dy, cos_yaw, sin_yaw)[0] > MIN_CAMERA_Z)[0]
    if idx.size == 0:
        return idx, np.empty((0, 2)), np.empty((0, 2, 3))
    lm = landmarks_m[idx].T
    pos = positions_m[idx].T
    offsets = np.repeat((lm - pos)[:, None], 4, axis=1)
    for axis in range(3):
        offsets[axis, axis + 1] = (lm[axis] + JACOBIAN_EPSILON) - pos[axis]
    return (idx, *_blocks(offsets, cos_yaw[idx], sin_yaw[idx], pixels[idx],
                          camera))


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
