"""Descriptor matching with Lowe ratio test and mutual-consistency check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

import numpy as np

from repro.slam.features import FeatureSet, hamming_distance_matrix

MAX_MATCH_DISTANCE = 64     # bits; ORB matches above this are junk
RATIO_TEST = 0.8            # Lowe ratio on best/second-best


@dataclass(frozen=True)
class Match:
    """One accepted correspondence between two feature sets."""

    index_a: int
    index_b: int
    distance: int


@dataclass(frozen=True)
class MatchResult:
    matches: List[Match]
    operations: int

    @property
    def count(self) -> int:
        return len(self.matches)


def match_features(a: FeatureSet, b: FeatureSet) -> MatchResult:
    """Brute-force Hamming matching with ratio and cross checks.

    Best/second-best selection and the cross check are vectorized and
    mirror the per-row walk of :func:`repro.oracles.match_features`
    decision-for-decision: ``argmin`` picks the same first-minimum
    candidate, ``partition`` the same second-best, and the cross check
    compares the same column argmins, all on integer distances.
    """
    if a.count == 0 or b.count == 0:
        return MatchResult(matches=[], operations=0)
    distances, operations = hamming_distance_matrix(a.descriptors, b.descriptors)
    rows = np.arange(distances.shape[0])
    best_b = np.argmin(distances, axis=1)
    best = distances[rows, best_b].astype(np.int64)
    accept = best <= MAX_MATCH_DISTANCE
    if distances.shape[1] > 1:
        second = np.partition(distances, 1, axis=1)[:, 1].astype(np.int64)
        accept &= ~((second > 0) & (best > RATIO_TEST * second))
    col_best = np.argmin(distances, axis=0)
    accept &= col_best[best_b] == rows
    matches = [
        Match(index_a=int(i), index_b=int(best_b[i]), distance=int(best[i]))
        for i in np.nonzero(accept)[0]
    ]
    return MatchResult(matches=matches, operations=operations)


def match_against_map(
    features: FeatureSet,
    map_descriptors: np.ndarray,
    map_landmark_ids: np.ndarray,
) -> MatchResult:
    """Match a frame's features against stored map-point descriptors."""
    if map_descriptors.shape[0] != map_landmark_ids.shape[0]:
        raise ValueError("map descriptors and ids must align")
    if features.count == 0 or map_descriptors.shape[0] == 0:
        return MatchResult(matches=[], operations=0)
    distances, operations = hamming_distance_matrix(
        features.descriptors, map_descriptors
    )
    best_map = np.argmin(distances, axis=1)
    rows = np.arange(distances.shape[0])
    best = distances[rows, best_map].astype(np.int64)
    accept = best <= MAX_MATCH_DISTANCE
    matches = [
        Match(
            index_a=int(i),
            index_b=int(map_landmark_ids[best_map[i]]),
            distance=int(best[i]),
        )
        for i in np.nonzero(accept)[0]
    ]
    return MatchResult(matches=matches, operations=operations)


def match_by_projection(
    features: FeatureSet,
    map_points,
    pose,
    camera,
    radius_px: float = 18.0,
) -> MatchResult:
    """Projection-guided matching — ORB-SLAM's tracking-time strategy.

    Each map point is projected with the predicted pose; only features
    within ``radius_px`` of the projection are descriptor-compared.  This is
    both the realistic algorithm and vastly cheaper than brute force against
    the whole map (the paper's RPi profile depends on this cost structure).

    ``map_points`` is an iterable of :class:`repro.slam.map.MapPoint`;
    ``pose`` is (position_m, yaw_rad).  Matches carry the *map point id* in
    ``index_b``.

    Projections and visibility tests are batched; Hamming distances are
    computed only for the (map point, feature) pairs inside the window, by
    native popcount over the descriptors' uint64 words.  The greedy
    taken-set walk stays a Python loop over those pairs, point by point in
    map order and feature-ascending within a point (its sequential
    semantics are what make the output order deterministic).  Decisions
    replicate the scalar oracle (:func:`repro.oracles.match_by_projection`)
    bit-for-bit: the same candidate windows, the same first-minimum
    tie-break, the same operation count.
    """
    from repro.slam.kernels import camera_points, descriptor_words, project_points

    if radius_px <= 0:
        raise ValueError(f"search radius must be positive, got {radius_px}")
    position, yaw = pose
    map_points = list(map_points)
    if features.count == 0 or not map_points:
        return MatchResult(matches=[], operations=0)
    # concatenate + reshape, not stack: no per-point Python work.
    positions = np.concatenate(
        [point.position_m for point in map_points]).reshape(-1, 3)
    cam = camera_points(positions, position, yaw)
    # ~(z < 0.2), not (z >= 0.2): NaN z must fall through to the projection
    # (and its +20 ops) exactly like the scalar loop's `if cam[2] < 0.2`.
    front = np.nonzero(~(cam[:, 2] < 0.2))[0]
    if front.size == 0:
        return MatchResult(matches=[], operations=0)
    u, v = project_points(cam[front], camera)
    in_view = (
        (0.0 <= u) & (u < camera.width) & (0.0 <= v) & (v < camera.height)
    )
    operations = 20 * int(front.size)
    visible = front[in_view]
    if visible.size == 0:
        return MatchResult(matches=[], operations=operations)
    u = u[in_view]
    v = v[in_view]
    keypoints = features.keypoints_px
    nearby_mask = (
        np.abs(keypoints[None, :, 0] - u[:, None]) <= radius_px
    ) & (np.abs(keypoints[None, :, 1] - v[:, None]) <= radius_px)
    operations += 2 * keypoints.shape[0] * int(visible.size)
    # Row-major: pairs grouped by visible point, features ascending.
    rows, cols = np.nonzero(nearby_mask)
    if rows.size == 0:
        return MatchResult(matches=[], operations=operations)
    point_words, feature_words = descriptor_words(
        np.concatenate([map_points[i].descriptor for i in visible])
        .reshape(visible.size, -1),
        features.descriptors,
    )
    distances = np.bitwise_count(point_words[rows] ^ feature_words[cols]) \
        .sum(axis=1).tolist()
    bounds = np.searchsorted(rows, np.arange(visible.size + 1)).tolist()
    features_of_pair = cols.tolist()
    taken: Set[int] = set()
    matches: List[Match] = []
    for row, point_index in enumerate(visible.tolist()):
        best_index = -1
        best_distance = MAX_MATCH_DISTANCE + 1
        free = 0
        for pair in range(bounds[row], bounds[row + 1]):
            index = features_of_pair[pair]
            if index in taken:
                continue
            free += 1
            if distances[pair] < best_distance:
                best_distance = distances[pair]
                best_index = index
        operations += 256 * free
        if best_index >= 0:
            taken.add(best_index)
            matches.append(
                Match(
                    index_a=best_index,
                    index_b=map_points[point_index].point_id,
                    distance=best_distance,
                )
            )
    return MatchResult(matches=matches, operations=operations)

