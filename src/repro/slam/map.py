"""SLAM map: keyframes, map points, and covisibility bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np


@dataclass
class MapPoint:
    """A 3-D landmark estimate with its reference descriptor."""

    point_id: int
    position_m: np.ndarray
    descriptor: np.ndarray
    observations: Set[int] = field(default_factory=set)  # keyframe ids

    def __post_init__(self) -> None:
        self.position_m = np.asarray(self.position_m, dtype=float)
        if self.position_m.shape != (3,):
            raise ValueError("map point position must be a 3-vector")

    @property
    def observation_count(self) -> int:
        return len(self.observations)


@dataclass
class Keyframe:
    """A camera pose holding 2-D observations of map points."""

    keyframe_id: int
    position_m: np.ndarray
    yaw_rad: float
    #: map-point id -> observed pixel (u, v)
    observations: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.position_m = np.asarray(self.position_m, dtype=float)
        if self.position_m.shape != (3,):
            raise ValueError("keyframe position must be a 3-vector")

    @property
    def pose_params(self) -> np.ndarray:
        """[x, y, z, yaw] — the 4-DOF pose parameterization used throughout."""
        return np.concatenate([self.position_m, [self.yaw_rad]])

    def set_pose_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=float)
        if params.shape != (4,):
            raise ValueError("pose parameters must be [x, y, z, yaw]")
        self.position_m = params[0:3].copy()
        self.yaw_rad = float(params[3])


class SlamMap:
    """The global map: id-indexed keyframes and map points."""

    def __init__(self):
        self.keyframes: Dict[int, Keyframe] = {}
        self.points: Dict[int, MapPoint] = {}
        self._next_keyframe_id = 0

    @property
    def keyframe_count(self) -> int:
        return len(self.keyframes)

    @property
    def point_count(self) -> int:
        return len(self.points)

    def add_keyframe(
        self,
        position_m: np.ndarray,
        yaw_rad: float,
        observations: Dict[int, Tuple[float, float]],
    ) -> Keyframe:
        """Insert a keyframe and register its observations on map points."""
        keyframe = Keyframe(
            keyframe_id=self._next_keyframe_id,
            position_m=np.asarray(position_m, dtype=float),
            yaw_rad=yaw_rad,
            observations=dict(observations),
        )
        self.keyframes[keyframe.keyframe_id] = keyframe
        self._next_keyframe_id += 1
        for point_id in observations:
            if point_id not in self.points:
                raise KeyError(f"observation of unknown map point {point_id}")
            self.points[point_id].observations.add(keyframe.keyframe_id)
        return keyframe

    def add_point(
        self, point_id: int, position_m: np.ndarray, descriptor: np.ndarray
    ) -> MapPoint:
        if point_id in self.points:
            raise KeyError(f"map point {point_id} already exists")
        point = MapPoint(
            point_id=point_id,
            position_m=np.asarray(position_m, dtype=float),
            descriptor=np.asarray(descriptor, dtype=np.uint8),
        )
        self.points[point_id] = point
        return point

    def recent_keyframes(self, count: int) -> List[Keyframe]:
        """The most recent ``count`` keyframes (the local-BA window)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        ids = sorted(self.keyframes)[-count:]
        return [self.keyframes[i] for i in ids]

    def points_seen_by(self, keyframes: List[Keyframe]) -> List[MapPoint]:
        """Map points observed by any of the given keyframes."""
        ids: Set[int] = set()
        for keyframe in keyframes:
            ids.update(keyframe.observations.keys())
        return [self.points[i] for i in sorted(ids)]

    def descriptor_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """(descriptors [N, 32], point ids [N]) for map-wide matching."""
        if not self.points:
            return (
                np.empty((0, 32), dtype=np.uint8),
                np.empty(0, dtype=np.int64),
            )
        ids = sorted(self.points)
        descriptors = np.stack([self.points[i].descriptor for i in ids])
        return descriptors, np.asarray(ids, dtype=np.int64)

    def trajectory(self) -> np.ndarray:
        """Estimated keyframe positions in id order, shape (K, 3)."""
        ids = sorted(self.keyframes)
        if not ids:
            raise ValueError("map has no keyframes")
        return np.stack([self.keyframes[i].position_m for i in ids])
