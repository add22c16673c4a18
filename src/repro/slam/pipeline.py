"""The full SLAM pipeline: tracking, mapping, local and global BA.

Mirrors ORB-SLAM's structure (the system the paper offloads in Section 5):

* per frame — ORB extraction, map matching, motion-only pose tracking;
* per keyframe — new-landmark triangulation and *local* bundle adjustment;
* at sequence end — *global* bundle adjustment (the loop-closure refinement).

Every stage accumulates an operation count into a
:class:`StageBreakdown`, which the platform models price into seconds —
that is how Figure 17's per-stage speedups are reproduced without the
authors' hardware.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.slam.bundle_adjustment import (
    BaResult,
    global_bundle_adjust,
    local_bundle_adjust,
)
from repro.slam.dataset import Frame, SyntheticSequence
from repro.slam.features import FeatureSet, OrbExtractor
from repro.slam.map import SlamMap
from repro.slam.matching import match_by_projection
from repro.slam.metrics import absolute_trajectory_error_m
from repro.slam.tracking import TrackingLostError, camera_point, track_pose


class Stage(enum.Enum):
    """Figure 17's stage categories."""

    FEATURE_EXTRACTION = "feature_extraction_matching"
    LOCAL_BA = "local_bundle_adjustment"
    GLOBAL_BA = "global_bundle_adjustment"
    TRACKING = "tracking"


class TrackingOutcome(enum.Enum):
    """Per-frame tracking verdict, typed so recovery can pick a remedy.

    A bare bool conflates failure modes that call for different responses:
    too few landmarks wants a wider search or map relocalization, a diverged
    or non-finite solve wants a clean re-solve from a fresh hypothesis.
    """

    TRACKED = "tracked"
    #: Projection matching found too few map correspondences.
    TOO_FEW_LANDMARKS = "too_few_landmarks"
    #: The pose solver failed: degenerate geometry or a non-finite result.
    SOLVER_DIVERGED = "solver_diverged"
    #: The solve converged but the reprojection residual is implausible.
    HIGH_RESIDUAL = "high_residual"

    @property
    def ok(self) -> bool:
        return self is TrackingOutcome.TRACKED


@dataclass
class StageBreakdown:
    """Accumulated operation counts per pipeline stage."""

    operations: Dict[Stage, int] = field(
        default_factory=lambda: {stage: 0 for stage in Stage}
    )

    def add(self, stage: Stage, ops: int) -> None:
        if ops < 0:
            raise ValueError(f"operation count cannot be negative: {ops}")
        self.operations[stage] += ops

    @property
    def total(self) -> int:
        return sum(self.operations.values())

    def fraction(self, stage: Stage) -> float:
        if self.total == 0:
            raise ValueError("no operations recorded")
        return self.operations[stage] / self.total

    def ba_fraction(self) -> float:
        """Share of work in local+global BA (paper: ~90% of RPi time)."""
        if self.total == 0:
            raise ValueError("no operations recorded")
        ba = self.operations[Stage.LOCAL_BA] + self.operations[Stage.GLOBAL_BA]
        return ba / self.total


@dataclass
class SlamRunResult:
    """Everything a pipeline run produces."""

    sequence_name: str
    frames_processed: int
    keyframes: int
    map_points: int
    breakdown: StageBreakdown
    estimated_trajectory: np.ndarray
    true_trajectory: np.ndarray
    local_ba_results: List[BaResult]
    global_ba_result: Optional[BaResult]
    tracking_failures: int

    @property
    def ate_rmse_m(self) -> float:
        """Absolute trajectory error (RMSE, m) — SLAM's key accuracy metric."""
        return absolute_trajectory_error_m(
            self.estimated_trajectory, self.true_trajectory
        )


def triangulate_midpoint(
    pose_a: Tuple[np.ndarray, float],
    pixel_a: Tuple[float, float],
    pose_b: Tuple[np.ndarray, float],
    pixel_b: Tuple[float, float],
    camera,
) -> np.ndarray:
    """Two-view midpoint triangulation for the 4-DOF pose convention."""
    origin_a, dir_a = _pixel_ray(pose_a, pixel_a, camera)
    origin_b, dir_b = _pixel_ray(pose_b, pixel_b, camera)
    # Solve for closest points on the two rays.
    w = origin_a - origin_b
    a = dir_a @ dir_a
    b = dir_a @ dir_b
    c = dir_b @ dir_b
    d = dir_a @ w
    e = dir_b @ w
    denominator = a * c - b * b
    if abs(denominator) < 1e-9:
        raise ValueError("rays are parallel; cannot triangulate")
    s = (b * e - c * d) / denominator
    t = (a * e - b * d) / denominator
    if s <= 0 or t <= 0:
        raise ValueError("triangulated point behind a camera")
    point_a = origin_a + s * dir_a
    point_b = origin_b + t * dir_b
    return (point_a + point_b) / 2.0


def _pixel_ray(
    pose: Tuple[np.ndarray, float], pixel: Tuple[float, float], camera
) -> Tuple[np.ndarray, np.ndarray]:
    """World-frame (origin, direction) of the camera ray through ``pixel``."""
    position, yaw = pose
    dx = (pixel[0] - camera.cx) / camera.fx
    dy = (pixel[1] - camera.cy) / camera.fy
    # Invert the camera_point convention: cam (x,y,z) = (-by, -bz, bx).
    body_dir = np.array([1.0, -dx, -dy])
    c, s = math.cos(yaw), math.sin(yaw)
    world_dir = np.array(
        [
            c * body_dir[0] - s * body_dir[1],
            s * body_dir[0] + c * body_dir[1],
            body_dir[2],
        ]
    )
    return np.asarray(position, dtype=float), world_dir / np.linalg.norm(world_dir)


class SlamPipeline:
    """ORB-SLAM-like pipeline over a synthetic sequence."""

    def __init__(
        self,
        sequence: SyntheticSequence,
        keyframe_interval: int = 10,
        min_tracked_points: int = 18,
        local_ba_every_keyframes: int = 1,
        max_features: int = 300,
        rescue_from_truth: bool = True,
    ):
        if keyframe_interval <= 0:
            raise ValueError("keyframe interval must be positive")
        self.sequence = sequence
        self.camera = sequence.camera
        self.extractor = OrbExtractor(max_features=max_features)
        self.keyframe_interval = keyframe_interval
        self.min_tracked_points = min_tracked_points
        self.local_ba_every_keyframes = local_ba_every_keyframes
        #: When True, tracking loss teleports the pose back to ground truth
        #: (a stand-in for a perfect place-recognition database).  Supervised
        #: pipelines set this False and recover via ``_attempt_recovery``.
        self.rescue_from_truth = rescue_from_truth
        self.slam_map = SlamMap()
        self.breakdown = StageBreakdown()
        self._pose: Optional[Tuple[np.ndarray, float]] = None
        # Constant-velocity motion model: (delta position, delta yaw) per
        # frame, used to predict the pose before projection matching.
        self._motion: Tuple[np.ndarray, float] = (np.zeros(3), 0.0)
        self._last_keyframe_features: Optional[FeatureSet] = None
        self._last_keyframe_pose: Optional[Tuple[np.ndarray, float]] = None
        self._last_tracked_count = 0
        self._matches_at_last_keyframe = 0
        self._frames_since_keyframe = 0
        # Step-API accumulators (what ``run`` used to keep as locals).
        self.frames_processed = 0
        self.tracking_failures = 0
        self._keyframes_since_ba = 0
        self._estimated: List[np.ndarray] = []
        self._true: List[np.ndarray] = []
        self._local_ba_results: List[BaResult] = []

    def run(self, max_frames: Optional[int] = None) -> SlamRunResult:
        """Process the sequence end to end; returns the run result."""
        frame_count = self.sequence.frame_count
        if max_frames is not None:
            if max_frames <= 0:
                raise ValueError("max_frames must be positive")
            frame_count = min(frame_count, max_frames)
        for index in range(frame_count):
            self.process_frame(self.sequence.generate_frame(index))
        return self.finalize()

    def process_frame(self, frame: Frame) -> TrackingOutcome:
        """Run one frame through extraction, tracking, and mapping."""
        features = self.extractor.extract(frame)
        self.breakdown.add(Stage.FEATURE_EXTRACTION, features.operations)

        if self._pose is None:
            self._initialize(frame, features)
            outcome = TrackingOutcome.TRACKED
        else:
            outcome = self._track(frame, features)
            self._frames_since_keyframe += 1
            if not outcome.ok:
                self.tracking_failures += 1
                self._attempt_recovery(frame, features, outcome)
            if self._keyframe_due(outcome.ok):
                self._insert_keyframe(frame, features)
                self._keyframes_since_ba += 1
                if (
                    self._keyframes_since_ba >= self.local_ba_every_keyframes
                    and self.slam_map.keyframe_count >= 2
                ):
                    self._run_local_ba()
                    self._keyframes_since_ba = 0
        assert self._pose is not None  # set by _initialize on frame 0
        self._estimated.append(self._pose[0].copy())
        self._true.append(frame.true_position_m.copy())
        self.frames_processed += 1
        return outcome

    def finalize(self) -> SlamRunResult:
        """Close the run: global BA over the map, then assemble the result."""
        if self.frames_processed == 0:
            raise ValueError("no frames processed")
        global_result = self._run_global_ba()
        return SlamRunResult(
            sequence_name=self.sequence.spec.name,
            frames_processed=self.frames_processed,
            keyframes=self.slam_map.keyframe_count,
            map_points=self.slam_map.point_count,
            breakdown=self.breakdown,
            estimated_trajectory=np.stack(self._estimated),
            true_trajectory=np.stack(self._true),
            local_ba_results=self._local_ba_results,
            global_ba_result=global_result,
            tracking_failures=self.tracking_failures,
        )

    # -- internals -------------------------------------------------------------

    def _run_local_ba(self) -> None:
        """Windowed BA after keyframe insertion (override point for guards)."""
        result = local_bundle_adjust(self.slam_map, self.camera)
        self.breakdown.add(Stage.LOCAL_BA, result.modeled_operations)
        self._local_ba_results.append(result)

    def _run_global_ba(self) -> Optional[BaResult]:
        """Final map-wide refinement (override point for guards)."""
        if self.slam_map.keyframe_count < 2:
            return None
        result = global_bundle_adjust(self.slam_map, self.camera)
        self.breakdown.add(Stage.GLOBAL_BA, result.modeled_operations)
        return result

    def _attempt_recovery(
        self, frame: Frame, features: FeatureSet, outcome: TrackingOutcome
    ) -> bool:
        """React to a lost frame; returns True if the pose was repaired.

        The base policy relocalizes from ground truth — a stand-in for a
        perfect place-recognition database.  Supervised pipelines override
        this with the bounded relocalization ladder.
        """
        if not self.rescue_from_truth:
            return False
        self._pose = (frame.true_position_m.copy(), frame.true_yaw_rad)
        self._motion = (np.zeros(3), 0.0)
        return True

    def _reset_map(self) -> None:
        """Drop all mapping state — relocalization's last-resort reinit."""
        self.slam_map = SlamMap()
        self._last_keyframe_features = None
        self._last_keyframe_pose = None
        self._last_tracked_count = 0
        self._matches_at_last_keyframe = 0
        self._frames_since_keyframe = 0
        self._keyframes_since_ba = 0

    def _initialize(self, frame: Frame, features: FeatureSet) -> None:
        """Bootstrap the map from the first frame at the datum pose."""
        self._pose = (frame.true_position_m.copy(), frame.true_yaw_rad)
        self._insert_keyframe(frame, features, bootstrap=True)

    def _keyframe_due(self, tracked: bool) -> bool:
        """ORB-SLAM's insertion policy: periodic, plus eagerly when tracking
        weakens (the map is rotating out of view)."""
        if self._frames_since_keyframe >= self.keyframe_interval:
            return True
        if not tracked:
            return self._frames_since_keyframe >= 2
        weakened = (
            self._matches_at_last_keyframe > 0
            and self._last_tracked_count
            < 0.6 * self._matches_at_last_keyframe
        )
        return weakened and self._frames_since_keyframe >= 3

    def _track(self, frame: Frame, features: FeatureSet) -> TrackingOutcome:
        """Match against the map and refine the pose; returns the outcome.

        Matching is projection-guided (ORB-SLAM's strategy): map points are
        projected with the constant-velocity-predicted pose and compared
        only against nearby features.
        """
        predicted = (
            self._pose[0] + self._motion[0],
            self._pose[1] + self._motion[1],
        )
        match_result = match_by_projection(
            features, self.slam_map.points.values(), predicted, self.camera
        )
        if match_result.count < self.min_tracked_points:
            # Wide-window retry — what ORB-SLAM does when the motion model
            # is stale (right after initialization or relocalization).
            match_result = match_by_projection(
                features, self.slam_map.points.values(), predicted,
                self.camera, radius_px=55.0,
            )
        self.breakdown.add(Stage.FEATURE_EXTRACTION, match_result.operations)
        landmarks = []
        pixels = []
        for match in match_result.matches:
            point = self.slam_map.points.get(match.index_b)
            if point is None:
                continue
            landmarks.append(point.position_m)
            pixels.append(tuple(features.keypoints_px[match.index_a]))
        self._last_tracked_count = len(landmarks)
        if len(landmarks) < self.min_tracked_points:
            return TrackingOutcome.TOO_FEW_LANDMARKS
        try:
            result = track_pose(
                landmarks, pixels, predicted[0], predicted[1], self.camera
            )
        except TrackingLostError:
            return TrackingOutcome.SOLVER_DIVERGED
        self.breakdown.add(Stage.TRACKING, result.operations)
        if not (
            np.all(np.isfinite(result.position_m))
            and math.isfinite(result.yaw_rad)
            and math.isfinite(result.final_rms_px)
        ):
            # Numerical sentinel: never adopt a NaN/Inf pose.
            return TrackingOutcome.SOLVER_DIVERGED
        if result.final_rms_px > 30.0:
            return TrackingOutcome.HIGH_RESIDUAL
        self._motion = (
            result.position_m - self._pose[0],
            float(result.yaw_rad - self._pose[1]),
        )
        self._pose = (result.position_m, result.yaw_rad)
        return TrackingOutcome.TRACKED

    def _insert_keyframe(
        self, frame: Frame, features: FeatureSet, bootstrap: bool = False
    ) -> None:
        """Add a keyframe; triangulate landmarks new to the map."""
        pose = self._pose
        observations: Dict[int, Tuple[float, float]] = {}
        for k in range(features.count):
            landmark_id = int(features.landmark_ids[k])
            if landmark_id < 0:
                continue  # spurious detection
            pixel = tuple(features.keypoints_px[k])
            if landmark_id in self.slam_map.points:
                observations[landmark_id] = pixel
                continue
            if bootstrap:
                # Datum frame: back-project at the true depth (stand-in for
                # the stereo/RGB-D initialization ORB-SLAM2 uses).
                position = self.sequence.landmarks_m[landmark_id]
                self.slam_map.add_point(
                    landmark_id,
                    position + np.random.default_rng(landmark_id).normal(0, 0.02, 3),
                    self.sequence.descriptor_for(landmark_id),
                )
                observations[landmark_id] = pixel
                continue
            if (
                self._last_keyframe_features is not None
                and self._last_keyframe_pose is not None
            ):
                previous = self._last_keyframe_features
                where = np.where(previous.landmark_ids == landmark_id)[0]
                if where.size == 0:
                    continue
                try:
                    position = triangulate_midpoint(
                        self._last_keyframe_pose,
                        tuple(previous.keypoints_px[int(where[0])]),
                        pose,
                        pixel,
                        self.camera,
                    )
                except ValueError:
                    continue
                self.slam_map.add_point(
                    landmark_id,
                    position,
                    self.sequence.descriptor_for(landmark_id),
                )
                observations[landmark_id] = pixel
        if observations:
            self.slam_map.add_keyframe(pose[0], pose[1], observations)
        self._last_keyframe_features = features
        self._last_keyframe_pose = (pose[0].copy(), pose[1])
        self._matches_at_last_keyframe = max(
            self._last_tracked_count, len(observations)
        )
        self._frames_since_keyframe = 0


def run_slam(sequence_name: str, max_frames: Optional[int] = None, seed: int = 11) -> SlamRunResult:
    """Convenience wrapper: load a sequence and run the pipeline.

    Uses the ``(name, seed)``-keyed sequence cache, so repeated runs
    (benches, resilience ladders) reuse the rendered frames.
    """
    from repro.slam.dataset import cached_sequence

    sequence = cached_sequence(sequence_name, seed=seed)
    pipeline = SlamPipeline(sequence)
    return pipeline.run(max_frames=max_frames)
