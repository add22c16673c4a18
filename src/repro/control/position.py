"""High-level position/trajectory and velocity controllers
(Table 2: 40 Hz update, ~1 s response).

Position error -> velocity setpoint -> desired world acceleration -> (tilt
attitude target, collective thrust).  The attitude target feeds the
mid-level controller; the thrust feeds the low level — exactly the Figure 6
cascade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.pid import PidController
from repro.physics import constants


@dataclass
class VelocityController:
    """World-frame velocity PID producing a desired acceleration."""

    kp: float = 3.2
    ki: float = 0.4
    kd: float = 0.0
    max_acceleration_m_s2: float = 8.5
    updates: int = field(default=0)

    def __post_init__(self) -> None:
        if self.kp <= 0:
            raise ValueError("velocity kp must be positive")
        self._pids = [
            PidController(kp=self.kp, ki=self.ki, kd=self.kd, integral_limit=3.0)
            for _ in range(3)
        ]

    @hot_path
    def update(
        self,
        velocity_target_m_s: np.ndarray,
        velocity_m_s: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        target_x, target_y, target_z = np.asarray(
            velocity_target_m_s, dtype=float
        ).tolist()
        velocity_x, velocity_y, velocity_z = np.asarray(
            velocity_m_s, dtype=float
        ).tolist()
        pid_x, pid_y, pid_z = self._pids
        accel = np.array([
            pid_x.update(target_x, velocity_x, dt),
            pid_y.update(target_y, velocity_y, dt),
            pid_z.update(target_z, velocity_z, dt),
        ])
        self.updates += 1
        # np.linalg.norm of a 1-D array is sqrt(v.dot(v)); BLAS rounds the
        # dot with FMAs, so it stays on the array.
        norm = math.sqrt(accel.dot(accel))
        if norm > self.max_acceleration_m_s2:
            accel *= self.max_acceleration_m_s2 / norm
        return accel

    def reset(self) -> None:
        for pid in self._pids:
            pid.reset()
        self.updates = 0

    @property
    def flops_per_update(self) -> int:
        return sum(p.flops_per_update for p in self._pids) + 10


@dataclass
class PositionController:
    """Position P loop cascading into the velocity controller."""

    kp: float = 1.1
    max_velocity_m_s: float = 8.0
    velocity: VelocityController = field(default_factory=VelocityController)
    updates: int = field(default=0)

    def __post_init__(self) -> None:
        if self.kp <= 0:
            raise ValueError("position kp must be positive")
        if self.max_velocity_m_s <= 0:
            raise ValueError("max velocity must be positive")

    @hot_path
    def update(
        self,
        position_target_m: np.ndarray,
        position_m: np.ndarray,
        velocity_m_s: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        """One 40 Hz step: returns the desired world acceleration (m/s^2)."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        target_x, target_y, target_z = np.asarray(
            position_target_m, dtype=float
        ).tolist()
        x, y, z = np.asarray(position_m, dtype=float).tolist()
        kp = self.kp
        velocity_setpoint = np.array(
            [kp * (target_x - x), kp * (target_y - y), kp * (target_z - z)]
        )
        norm = math.sqrt(velocity_setpoint.dot(velocity_setpoint))
        if norm > self.max_velocity_m_s:
            velocity_setpoint *= self.max_velocity_m_s / norm
        self.updates += 1
        return self.velocity.update(velocity_setpoint, velocity_m_s, dt)

    def reset(self) -> None:
        self.velocity.reset()
        self.updates = 0

    @property
    def flops_per_update(self) -> int:
        return 12 + self.velocity.flops_per_update


@hot_path
def acceleration_to_attitude_thrust(
    acceleration_m_s2: np.ndarray,
    yaw_target_rad: float,
    mass_kg: float,
    max_tilt_rad: float = math.radians(35.0),
) -> Tuple[np.ndarray, float]:
    """Convert a desired world acceleration into (attitude target, thrust).

    The drone tilts its lift vector toward the horizontal acceleration — the
    same physics that ties maximum horizontal speed to the TWR (Section
    2.1.1).  Returns ([roll, pitch, yaw] target in rad, collective thrust N).
    """
    if mass_kg <= 0:
        raise ValueError(f"mass must be positive, got {mass_kg}")
    if not 0 < max_tilt_rad < math.pi / 2:
        raise ValueError("max tilt must be in (0, pi/2)")
    accel = np.asarray(acceleration_m_s2, dtype=float)
    if accel.shape != (3,):
        raise ValueError("acceleration must be a 3-vector")
    # Floats in the NumPy expressions' operation order, bit for bit
    # (DESIGN.md §Performance); the norms stay sqrt(v.dot(v)) on arrays.
    accel_x, accel_y, accel_z = accel.tolist()
    # Desired specific force includes gravity compensation.
    force_world = np.array([
        mass_kg * (accel_x + 0.0),
        mass_kg * (accel_y + 0.0),
        mass_kg * (accel_z + constants.GRAVITY_M_S2),
    ])
    thrust = math.sqrt(force_world.dot(force_world))
    if thrust < 1e-9:
        return np.array([0.0, 0.0, yaw_target_rad]), 0.0
    force_x, force_y, force_z = force_world.tolist()
    z_x, z_y, z_z = force_x / thrust, force_y / thrust, force_z / thrust
    # Tilt limit: keep the thrust axis within the cone.
    cos_tilt = max(-1.0, min(1.0, z_z))
    tilt = math.acos(cos_tilt)
    if tilt > max_tilt_rad:
        # Project onto the cone boundary, preserving heading of the tilt.
        horizontal = np.array([z_x, z_y])
        horizontal_norm = math.sqrt(horizontal.dot(horizontal))
        if horizontal_norm > 1e-9:
            scale = math.sin(max_tilt_rad) / horizontal_norm
            z_x, z_y, z_z = z_x * scale, z_y * scale, math.cos(max_tilt_rad)
    cy, sy = math.cos(yaw_target_rad), math.sin(yaw_target_rad)
    # Roll/pitch from the body z axis in the yaw-aligned frame: y_body is
    # z_body x [cy, sy, 0.0], and x_body = y_body x z_body.
    y_body = np.array([
        z_y * 0.0 - z_z * sy,
        z_z * cy - z_x * 0.0,
        z_x * sy - z_y * cy,
    ])
    y_norm = math.sqrt(y_body.dot(y_body))
    if y_norm < 1e-9:
        raise ValueError("degenerate attitude: thrust axis parallel to heading")
    y_x, y_y, y_z = y_body.tolist()
    y_x, y_y, y_z = y_x / y_norm, y_y / y_norm, y_z / y_norm
    x_body_z = y_x * z_y - y_y * z_x
    pitch = -math.asin(max(-1.0, min(1.0, x_body_z)))
    roll = math.atan2(y_z, z_z)
    return np.array([roll, pitch, yaw_target_rad]), thrust
