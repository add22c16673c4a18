"""Numerical guards: SLAM-map checkpointing.

Core modules (:mod:`repro.control.estimation`,
:mod:`repro.slam.bundle_adjustment`) raise the builtin
:class:`FloatingPointError` when a NaN/Inf escapes their solvers, so they
need no dependency on this layer.  This module supplies what sits *above*
them: :class:`MapCheckpoint`, a snapshot/rollback of the SLAM map so a BA
pass that corrupts the map numerically can be undone instead of aborting
the run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

import numpy as np

from repro.slam.map import SlamMap


class MapCheckpoint:
    """Snapshot/rollback of a :class:`SlamMap` around risky optimization.

    ``capture`` records every keyframe pose, point position, and the point
    observation sets; ``rollback`` restores those values and removes any
    keyframes/points inserted after the capture.  Keyframe observation
    dicts are immutable once inserted, so they need no deep copy.
    """

    def __init__(self) -> None:
        self.captured = False
        self.rollbacks = 0
        self._keyframe_poses: Dict[int, np.ndarray] = {}
        self._point_positions: Dict[int, np.ndarray] = {}
        self._point_observations: Dict[int, FrozenSet[int]] = {}
        self._next_keyframe_id = 0

    def capture(self, slam_map: SlamMap) -> None:
        """Record the map's current geometry as the rollback target."""
        self._keyframe_poses = {
            keyframe_id: keyframe.pose_params
            for keyframe_id, keyframe in slam_map.keyframes.items()
        }
        self._point_positions = {
            point_id: point.position_m.copy()
            for point_id, point in slam_map.points.items()
        }
        self._point_observations = {
            point_id: frozenset(point.observations)
            for point_id, point in slam_map.points.items()
        }
        self._next_keyframe_id = slam_map._next_keyframe_id
        self.captured = True

    def rollback(self, slam_map: SlamMap) -> None:
        """Restore the captured geometry; drop anything added since."""
        if not self.captured:
            raise ValueError("rollback without a prior capture")
        for keyframe_id in sorted(slam_map.keyframes):
            saved_pose = self._keyframe_poses.get(keyframe_id)
            if saved_pose is None:
                del slam_map.keyframes[keyframe_id]
            else:
                slam_map.keyframes[keyframe_id].set_pose_params(saved_pose)
        for point_id in sorted(slam_map.points):
            saved_position = self._point_positions.get(point_id)
            if saved_position is None:
                del slam_map.points[point_id]
                continue
            point = slam_map.points[point_id]
            point.position_m = saved_position.copy()
            point.observations = set(self._point_observations[point_id])
        slam_map._next_keyframe_id = self._next_keyframe_id
        self.rollbacks += 1
