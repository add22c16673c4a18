"""Reference implementations of the fast paths (private: tests and perf only).

Each is named after the fast function it checks.  The SLAM stages and
the trace-driven core have scalar oracles of their vectorized paths.  The
scalar flight tick, which runs on Python floats, keeps no second body
here: golden vectors recorded from its NumPy form
(``tests/fixtures/flight_tick/``) hold it instead, as vectors under
``tests/fixtures/design/`` hold the one design-space sweep.  The
equivalence harness under ``tests/`` holds every pair to its DESIGN.md
§Performance tier and ``benchmarks/perf/run_perf.py`` times some; library
code never imports this module and no package exports it.  Tracking and
bundle adjustment share their outer loops with the fast paths.  The core
oracle is the textbook per-access model (stamp-dict LRU caches and TLB,
gshare), with its own structures built from the core's geometry; the
trace engine has no fallback onto it.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.platforms.branch import GsharePredictor
from repro.platforms.cache import SetAssociativeCache
from repro.platforms.cpu import CorePenalties, InOrderCore, PerfCounters
from repro.platforms.tlb import Tlb
from repro.platforms.workload import OpKind, Trace
from repro.slam.bundle_adjustment import (
    CANONICAL_GLOBAL_BA_ITERATIONS,
    BaResult,
    _resection_intersection,
)
from repro.slam.dataset import CameraModel, Frame
from repro.slam.features import (
    FeatureSet,
    OrbExtractor,
    _select,
    hamming_distance,
)
from repro.slam.map import Keyframe, MapPoint, SlamMap
from repro.slam.matching import (
    MAX_MATCH_DISTANCE,
    RATIO_TEST,
    Match,
    MatchResult,
)
from repro.slam.tracking import (
    HUBER_DELTA_PX,
    OPS_PER_CORRESPONDENCE,
    TrackingResult,
    _gauss_newton,
    _require_correspondences,
    camera_point,
)

# -- SLAM front end (bitwise) -------------------------------------------------


def orb_extract(extractor: OrbExtractor, frame: Frame) -> FeatureSet:
    """:meth:`OrbExtractor.extract` with the per-keypoint dict round-robin."""
    if frame.observation_count <= extractor.max_features:
        return extractor.extract(frame)
    cells = extractor._grid_cells(frame.keypoints_px)
    order = np.argsort(cells, kind="stable")
    buckets: Dict[int, List[int]] = {}
    for idx in order:
        buckets.setdefault(int(cells[idx]), []).append(int(idx))
    selected: List[int] = []
    depth = 0
    while len(selected) < extractor.max_features:
        progressed = False
        for cell_indices in buckets.values():
            if depth < len(cell_indices):
                selected.append(cell_indices[depth])
                progressed = True
                if len(selected) >= extractor.max_features:
                    break
        if not progressed:
            break
        depth += 1
    return _select(frame, np.asarray(sorted(selected), dtype=int))


def hamming_distance_matrix(
    descriptors_a: np.ndarray, descriptors_b: np.ndarray
) -> Tuple[np.ndarray, int]:
    """:func:`repro.slam.features.hamming_distance_matrix` by unpackbits."""
    if descriptors_a.ndim != 2 or descriptors_b.ndim != 2:
        raise ValueError("descriptor arrays must be 2-D")
    xor = np.bitwise_xor(descriptors_a[:, None, :], descriptors_b[None, :, :])
    distances = np.unpackbits(xor, axis=2).sum(axis=2).astype(np.uint16)
    operations = int(descriptors_a.shape[0] * descriptors_b.shape[0] * 256)
    return distances, operations


def match_features(a: FeatureSet, b: FeatureSet) -> MatchResult:
    """:func:`repro.slam.matching.match_features`, one row at a time."""
    if a.count == 0 or b.count == 0:
        return MatchResult(matches=[], operations=0)
    distances, operations = hamming_distance_matrix(a.descriptors, b.descriptors)
    best_b = np.argmin(distances, axis=1)
    matches = []
    for index_a, index_b in enumerate(best_b):
        row = distances[index_a]
        best = int(row[index_b])
        if best > MAX_MATCH_DISTANCE:
            continue
        # Ratio test against the second-best candidate.
        if row.size > 1:
            second = int(np.partition(row, 1)[1])
            if second > 0 and best > RATIO_TEST * second:
                continue
        # Mutual consistency: b's best must point back to a.
        if int(np.argmin(distances[:, index_b])) != index_a:
            continue
        matches.append(Match(index_a=index_a, index_b=int(index_b), distance=best))
    return MatchResult(matches=matches, operations=operations)


def match_against_map(
    features: FeatureSet,
    map_descriptors: np.ndarray,
    map_landmark_ids: np.ndarray,
) -> MatchResult:
    """:func:`repro.slam.matching.match_against_map`, one row at a time."""
    if map_descriptors.shape[0] != map_landmark_ids.shape[0]:
        raise ValueError("map descriptors and ids must align")
    if features.count == 0 or map_descriptors.shape[0] == 0:
        return MatchResult(matches=[], operations=0)
    distances, operations = hamming_distance_matrix(
        features.descriptors, map_descriptors
    )
    best_map = np.argmin(distances, axis=1)
    matches = []
    for index_f, index_m in enumerate(best_map):
        best = int(distances[index_f, index_m])
        if best > MAX_MATCH_DISTANCE:
            continue
        matches.append(
            Match(index_a=index_f, index_b=int(map_landmark_ids[index_m]),
                  distance=best)
        )
    return MatchResult(matches=matches, operations=operations)


def match_by_projection(
    features: FeatureSet,
    map_points: Iterable[MapPoint],
    pose,
    camera: CameraModel,
    radius_px: float = 18.0,
) -> MatchResult:
    """:func:`repro.slam.matching.match_by_projection`, one map point at a
    time with per-pair Hamming distances."""
    if radius_px <= 0:
        raise ValueError(f"search radius must be positive, got {radius_px}")
    position, yaw = pose
    matches: List[Match] = []
    operations = 0
    if features.count == 0:
        return MatchResult(matches=[], operations=0)
    keypoints = features.keypoints_px
    taken: Set[int] = set()
    for point in map_points:
        cam = camera_point(point.position_m, position, yaw)
        if cam[2] < 0.2:
            continue
        u, v = camera.project(cam)
        operations += 20
        if not camera.in_view(u, v):
            continue
        deltas = keypoints - np.array([u, v])
        nearby = np.where((np.abs(deltas[:, 0]) <= radius_px)
                          & (np.abs(deltas[:, 1]) <= radius_px))[0]
        operations += 2 * keypoints.shape[0]
        best_index = -1
        best_distance = MAX_MATCH_DISTANCE + 1
        for index in nearby:
            if int(index) in taken:
                continue
            distance = hamming_distance(
                features.descriptors[index], point.descriptor
            )
            operations += 256
            if distance < best_distance:
                best_distance = distance
                best_index = int(index)
        if best_index >= 0 and best_distance <= MAX_MATCH_DISTANCE:
            taken.add(best_index)
            matches.append(
                Match(index_a=best_index, index_b=point.point_id,
                      distance=best_distance)
            )
    return MatchResult(matches=matches, operations=operations)


# -- SLAM tracking and bundle adjustment (allclose) ----------------------------


def reprojection_residual(
    landmark_m: np.ndarray,
    pixel: Tuple[float, float],
    position_m: np.ndarray,
    yaw_rad: float,
    camera: CameraModel,
) -> np.ndarray:
    """(predicted - observed) pixel residual; raises if behind camera."""
    point = camera_point(landmark_m, position_m, yaw_rad)
    u, v = camera.project(point)
    return np.array([u - pixel[0], v - pixel[1]])


def _pose_jacobian(
    landmark_m: np.ndarray,
    position_m: np.ndarray,
    yaw_rad: float,
    camera: CameraModel,
) -> np.ndarray:
    """2x4 Jacobian of the pixel residual w.r.t. [x, y, z, yaw] (numeric)."""
    jacobian = np.zeros((2, 4))
    base = reprojection_residual(
        landmark_m, (0.0, 0.0), position_m, yaw_rad, camera
    )
    epsilon = 1e-6
    for k in range(3):
        perturbed = position_m.copy()
        perturbed[k] += epsilon
        res = reprojection_residual(
            landmark_m, (0.0, 0.0), perturbed, yaw_rad, camera
        )
        jacobian[:, k] = (res - base) / epsilon
    res = reprojection_residual(
        landmark_m, (0.0, 0.0), position_m, yaw_rad + epsilon, camera
    )
    jacobian[:, 3] = (res - base) / epsilon
    return jacobian


def track_pose(
    landmarks_m: List[np.ndarray],
    pixels: List[Tuple[float, float]],
    initial_position_m: np.ndarray,
    initial_yaw_rad: float,
    camera: CameraModel,
    max_iterations: int = 8,
    min_correspondences: int = 8,
) -> TrackingResult:
    """:func:`repro.slam.tracking.track_pose`, one observation at a time."""
    _require_correspondences(landmarks_m, pixels, min_correspondences)

    def normal_equations(position: np.ndarray, yaw: float):
        normal = np.zeros((4, 4))
        rhs = np.zeros(4)
        total_sq = 0.0
        used = 0
        for landmark, pixel in zip(landmarks_m, pixels):
            try:
                residual = reprojection_residual(
                    landmark, pixel, position, yaw, camera
                )
            except ValueError:
                continue  # behind camera at this iterate
            error = float(np.linalg.norm(residual))
            weight = 1.0 if error <= HUBER_DELTA_PX else HUBER_DELTA_PX / error
            jacobian = _pose_jacobian(landmark, position, yaw, camera)
            normal += weight * jacobian.T @ jacobian
            rhs -= weight * jacobian.T @ residual
            total_sq += weight * error * error
            used += 1
        return normal, rhs, total_sq, used, used * OPS_PER_CORRESPONDENCE

    return _gauss_newton(
        initial_position_m, initial_yaw_rad, max_iterations,
        min_correspondences, normal_equations,
    )


def _collect_residuals(
    keyframes: List[Keyframe],
    points: Dict[int, MapPoint],
    camera: CameraModel,
) -> float:
    total_sq = 0.0
    count = 0
    for keyframe in keyframes:
        for point_id, pixel in keyframe.observations.items():
            point = points.get(point_id)
            if point is None:
                continue
            try:
                residual = reprojection_residual(
                    point.position_m,
                    pixel,
                    keyframe.position_m,
                    keyframe.yaw_rad,
                    camera,
                )
            except ValueError:
                continue
            total_sq += float(residual @ residual)
            count += 1
    if count == 0:
        raise ValueError("no valid residuals in the BA problem")
    return math.sqrt(total_sq / count)


def _landmark_jacobian(
    landmark_m: np.ndarray,
    position_m: np.ndarray,
    yaw_rad: float,
    camera: CameraModel,
) -> np.ndarray:
    """2x3 Jacobian of the pixel residual w.r.t. the landmark position."""
    jacobian = np.zeros((2, 3))
    base_point = camera_point(landmark_m, position_m, yaw_rad)
    base = np.array(camera.project(base_point))
    epsilon = 1e-6
    for k in range(3):
        perturbed = landmark_m.copy()
        perturbed[k] += epsilon
        point = camera_point(perturbed, position_m, yaw_rad)
        projected = np.array(camera.project(point))
        jacobian[:, k] = (projected - base) / epsilon
    return jacobian


def _refine_landmark(
    point: MapPoint,
    keyframes: List[Keyframe],
    camera: CameraModel,
) -> int:
    """One 3x3 Gauss-Newton step on a single landmark; returns ops."""
    normal = np.zeros((3, 3))
    rhs = np.zeros(3)
    used = 0
    for keyframe in keyframes:
        pixel = keyframe.observations.get(point.point_id)
        if pixel is None:
            continue
        try:
            residual = reprojection_residual(
                point.position_m, pixel, keyframe.position_m,
                keyframe.yaw_rad, camera,
            )
        except ValueError:
            continue
        jacobian = _landmark_jacobian(
            point.position_m, keyframe.position_m, keyframe.yaw_rad, camera
        )
        normal += jacobian.T @ jacobian
        rhs -= jacobian.T @ residual
        used += 1
    if used < 2:
        return 0  # under-constrained landmark; leave it alone
    try:
        delta = np.linalg.solve(normal + 1e-9 * np.eye(3), rhs)
    except np.linalg.LinAlgError:
        return 0
    if not np.all(np.isfinite(delta)):
        return 0  # near-singular solve: never write NaN into the map
    # Trust region: single-step landmark moves are bounded.
    norm = float(np.linalg.norm(delta))
    if norm > 0.5:
        delta *= 0.5 / norm
    point.position_m = point.position_m + delta
    return used * (2 * 3 * 3 * 2 + 60) + 27


def _refine_landmarks(
    point_list: List[MapPoint],
    keyframes: List[Keyframe],
    camera: CameraModel,
) -> int:
    return sum(_refine_landmark(point, keyframes, camera) for point in point_list)


def bundle_adjust(
    slam_map: SlamMap,
    keyframes: List[Keyframe],
    camera: CameraModel,
    iterations: int = 3,
    fix_first_pose: bool = True,
    canonical_iterations: Optional[int] = None,
) -> BaResult:
    """:func:`repro.slam.bundle_adjustment.bundle_adjust` over the
    per-observation residual, resection, and intersection kernels."""
    return _resection_intersection(
        slam_map, keyframes, camera, iterations, fix_first_pose,
        canonical_iterations, _collect_residuals, track_pose,
        _refine_landmarks,
    )


def global_bundle_adjust(
    slam_map: SlamMap, camera: CameraModel, iterations: int = 3
) -> BaResult:
    """:func:`repro.slam.bundle_adjustment.global_bundle_adjust`."""
    keyframes = [slam_map.keyframes[i] for i in sorted(slam_map.keyframes)]
    return bundle_adjust(
        slam_map,
        keyframes,
        camera,
        iterations=iterations,
        canonical_iterations=CANONICAL_GLOBAL_BA_ITERATIONS,
    )


# -- trace-driven core (counter-exact) ----------------------------------------


class ScalarCache:
    """A cache's textbook per-access LRU model: per set, a dict tag ->
    last-use stamp, with the ``min()`` stamp evicted.  Built from a
    :class:`SetAssociativeCache`'s geometry (its next level too), and
    counting into that cache's ``stats``."""

    def __init__(self, cache: SetAssociativeCache):
        self.line_bytes = cache.line_bytes
        self.associativity = cache.associativity
        self.set_count = cache.set_count
        self.prefetch_next_line = cache.prefetch_next_line
        self.next_level = (
            None if cache.next_level is None else ScalarCache(cache.next_level)
        )
        self.stats = cache.stats
        #: Whether the most recent demand miss also missed in next_level —
        #: lets the core charge the DRAM penalty only for demand misses,
        #: not prefetch fills.
        self.last_demand_missed_below = False
        self._sets: Dict[int, Dict[int, int]] = {}
        self._use_counter = 0

    def access(self, address: int) -> bool:
        """Access ``address``; returns True on hit.  Misses recurse downward."""
        self.stats.accesses += 1
        self._use_counter += 1
        line = address // self.line_bytes
        set_index = line % self.set_count
        tag = line // self.set_count
        ways = self._sets.setdefault(set_index, {})
        if tag in ways:
            ways[tag] = self._use_counter
            return True
        self.stats.misses += 1
        self.last_demand_missed_below = False
        if self.next_level is not None:
            self.last_demand_missed_below = not self.next_level.access(address)
        if len(ways) >= self.associativity:
            victim = min(ways, key=ways.get)
            del ways[victim]
        ways[tag] = self._use_counter
        if self.prefetch_next_line:
            self._install(address + self.line_bytes)
        return False

    def _install(self, address: int) -> None:
        """Install a line without charging demand-access statistics.

        Used by the next-line prefetcher; the fill still propagates to the
        next level (a real prefetch occupies LLC bandwidth and capacity).
        """
        line = address // self.line_bytes
        set_index = line % self.set_count
        tag = line // self.set_count
        ways = self._sets.setdefault(set_index, {})
        if tag in ways:
            return
        if self.next_level is not None:
            self.next_level.access(address)
        if len(ways) >= self.associativity:
            victim = min(ways, key=ways.get)
            del ways[victim]
        self._use_counter += 1
        ways[tag] = self._use_counter


class ScalarTlb:
    """A :class:`Tlb`'s per-access model: page -> last-use stamp, the
    ``min()`` stamp evicted; counts into the TLB's ``stats``."""

    def __init__(self, tlb: Tlb):
        self.entries = tlb.entries
        self.page_bytes = tlb.page_bytes
        self.stats = tlb.stats
        self._pages: Dict[int, int] = {}
        self._use_counter = 0

    def access(self, address: int) -> bool:
        """Translate ``address``; returns True on TLB hit."""
        self.stats.accesses += 1
        self._use_counter += 1
        page = address // self.page_bytes
        if page in self._pages:
            self._pages[page] = self._use_counter
            return True
        self.stats.misses += 1
        if len(self._pages) >= self.entries:
            victim = min(self._pages, key=self._pages.get)
            del self._pages[victim]
        self._pages[page] = self._use_counter
        return False

    def flush(self) -> None:
        self._pages.clear()


class ScalarGshare:
    """A :class:`GsharePredictor`'s per-branch model, counting into its
    ``stats``."""

    def __init__(self, predictor: GsharePredictor):
        self.table_bits = predictor.table_bits
        self.history_bits = predictor.history_bits
        self._table = [2] * (1 << predictor.table_bits)  # weakly taken
        self._history = 0
        self.stats = predictor.stats

    def _index(self, pc: int) -> int:
        mask = (1 << self.table_bits) - 1
        history = self._history & ((1 << self.history_bits) - 1)
        return ((pc >> 2) ^ history) & mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at ``pc``; update state; returns prediction correct."""
        index = self._index(pc)
        prediction = self._table[index] >= 2
        correct = prediction == taken
        self.stats.branches += 1
        if not correct:
            self.stats.mispredictions += 1
        if taken and self._table[index] < 3:
            self._table[index] += 1
        elif not taken and self._table[index] > 0:
            self._table[index] -= 1
        self._history = ((self._history << 1) | int(taken)) & (
            (1 << self.history_bits) - 1
        )
        return correct

    def flush_history(self) -> None:
        self._history = 0


class ScalarCore:
    """One :class:`InOrderCore`'s L1, LLC, TLB and predictor as per-access
    models, built cold from the core's geometry."""

    def __init__(self, core: InOrderCore):
        self.l1 = ScalarCache(core.l1)
        self.llc = self.l1.next_level
        self.tlb = ScalarTlb(core.tlb)
        self.predictor = ScalarGshare(core.predictor)

    def execute(self, penalties: CorePenalties, counter: PerfCounters,
                trace: Trace) -> None:
        """One segment, one memory access and one branch at a time."""
        llc_before = self.llc.stats.accesses
        llc_miss_before = self.llc.stats.misses
        instructions = trace.length
        cycles = instructions * penalties.base_cpi
        branch_count = 0
        branch_miss = 0
        tlb_access = 0
        tlb_miss = 0
        # ALU instructions cost only the base CPI; only memory and branch
        # instructions need sequential modeling.
        mem_mask = (trace.kinds == OpKind.LOAD) | (trace.kinds == OpKind.STORE)
        branch_mask = trace.kinds == OpKind.BRANCH
        l1 = self.l1
        tlb = self.tlb
        for address in trace.addresses[mem_mask]:
            address = int(address)
            tlb_access += 1
            if not tlb.access(address):
                tlb_miss += 1
                cycles += penalties.tlb_miss
            if not l1.access(address):
                cycles += penalties.l1_miss_llc_hit
                if l1.last_demand_missed_below:
                    cycles += penalties.llc_miss_dram
        predictor = self.predictor
        branch_pcs = trace.pcs[branch_mask]
        branch_taken = trace.taken[branch_mask]
        for pc, taken in zip(branch_pcs, branch_taken):
            branch_count += 1
            if not predictor.predict_and_update(int(pc), bool(taken)):
                branch_miss += 1
                cycles += penalties.branch_mispredict
        counter.instructions += instructions
        counter.cycles += cycles
        counter.llc_accesses += self.llc.stats.accesses - llc_before
        counter.llc_misses += self.llc.stats.misses - llc_miss_before
        counter.branches += branch_count
        counter.branch_misses += branch_miss
        counter.tlb_accesses += tlb_access
        counter.tlb_misses += tlb_miss


#: Each core's per-access models, so that a second :func:`run_segments` on
#: a core continues where the first left; an entry dies with its core.
_SCALAR_CORES: "weakref.WeakKeyDictionary[InOrderCore, ScalarCore]" = (
    weakref.WeakKeyDictionary()
)


def run_segments(
    core: InOrderCore, segments: List[Tuple[str, Trace]]
) -> Dict[str, PerfCounters]:
    """:meth:`InOrderCore.run_segments`, one access at a time.

    Runs the core's :class:`ScalarCore`, never the kernels' state: the
    first call on a core builds it cold, and later calls continue from it.
    A core that has already run on the trace engine is refused, since its
    state lives only in the kernels' containers.  The counters and the
    structures' ``stats`` are the core's own.
    """
    if not segments:
        raise ValueError("no segments to execute")
    model = _SCALAR_CORES.get(core)
    if model is None:
        if core._current_context is not None:
            raise ValueError("the oracle needs a core that has not run yet")
        model = _SCALAR_CORES[core] = ScalarCore(core)
    for context, trace in segments:
        previous = core._current_context
        core._switch_to(context)
        if previous not in (None, context) and core.flush_on_context_switch:
            model.tlb.flush()
            model.predictor.flush_history()
        model.execute(core.penalties, core.counters[context], trace)
    return core.counters
