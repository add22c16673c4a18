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
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.pid import PidController, clamp_rows, pid_rows
from repro.physics import constants
from repro.physics.rigid_body import GRAVITY_ROW, cross_rows, rows_norm

#: Default tilt cone of the lift vector; the batched twin always uses it.
MAX_TILT_RAD = math.radians(35.0)


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
    max_tilt_rad: float = MAX_TILT_RAD,
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


# -- row kernels: the batched twins of the controllers above over N
# vehicles' (N, 3) rows, bit for bit per row.


def limit_norm_rows(vectors: np.ndarray, limit: float) -> np.ndarray:
    """Rows longer than ``limit`` scaled down onto it (``v *= limit / norm``)."""
    norm = rows_norm(vectors)
    over = norm > limit
    if over.any():
        scaled = vectors * (limit / norm)[:, None]
        vectors = np.where(over[:, None], scaled, vectors)
    return vectors


def velocity_rows(
    controller: VelocityController, target: np.ndarray, velocity: np.ndarray,
    integral: np.ndarray, last_velocity: Optional[np.ndarray], dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mirrors :meth:`VelocityController.update`: the acceleration rows and
    the three axis PIDs' new integral rows."""
    accel, new_integral = pid_rows(
        controller._pids[0], target, velocity, integral, last_velocity, dt
    )
    return limit_norm_rows(accel, controller.max_acceleration_m_s2), new_integral


def position_rows(
    controller: PositionController, target: np.ndarray, position: np.ndarray
) -> np.ndarray:
    """Mirrors :meth:`PositionController.update`'s P loop: the velocity
    setpoint rows it hands the velocity controller."""
    setpoint = controller.kp * (target - position)
    return limit_norm_rows(setpoint, controller.max_velocity_m_s)


def acceleration_to_attitude_thrust_rows(
    accel: np.ndarray, yaw: np.ndarray, mass_kg: float, lanes: List[int],
    live: np.ndarray, heading: np.ndarray, out: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mirrors :func:`acceleration_to_attitude_thrust` at its default
    :data:`MAX_TILT_RAD` over the ``lanes`` rows of ``live``: the attitude
    rows (into ``out``) and the collective thrusts.  ``heading`` is (N,3) scratch whose last column stays zero.
    ``math.acos``/``asin``/``atan2`` run per row."""
    force_world = mass_kg * (accel + GRAVITY_ROW)
    thrust = rows_norm(force_world)
    tiny = thrust < 1e-9
    z_body = force_world / thrust[:, None]
    cos_tilt = clamp_rows(z_body[:, 2], 1.0).tolist()
    tiny_rows = tiny.tolist()
    upright = [i for i in lanes if not tiny_rows[i]]
    over = [i for i in upright if math.acos(cos_tilt[i]) > MAX_TILT_RAD]
    if over:
        horizontal = z_body[:, 0:2]
        horizontal_norm = rows_norm(horizontal)
        fix = np.zeros(accel.shape[0], dtype=bool)
        fix[over] = True
        fix &= horizontal_norm > 1e-9
        if fix.any():
            scale = math.sin(MAX_TILT_RAD) / horizontal_norm
            projected = np.empty_like(z_body)
            projected[:, 0] = horizontal[:, 0] * scale
            projected[:, 1] = horizontal[:, 1] * scale
            projected[:, 2] = math.cos(MAX_TILT_RAD)
            z_body = np.where(fix[:, None], projected, z_body)
    heading[:, 0] = np.cos(yaw)
    heading[:, 1] = np.sin(yaw)
    y_body = cross_rows(z_body, heading)
    y_norm = rows_norm(y_body)
    if bool(np.any((y_norm < 1e-9) & live & ~tiny)):
        raise ValueError("degenerate attitude: thrust axis parallel to heading")
    y_body = y_body / y_norm[:, None]
    x_body = cross_rows(y_body, z_body)
    x_body_z = x_body[:, 2].tolist()
    y_body_z = y_body[:, 2].tolist()
    z_body_z = z_body[:, 2].tolist()
    # Rows outside ``upright`` keep 0.0, as the scalar routine returns a
    # level attitude for a vanishing thrust.
    roll, pitch = [0.0] * accel.shape[0], [0.0] * accel.shape[0]
    for i in upright:
        pitch[i] = -math.asin(max(-1.0, min(1.0, x_body_z[i])))
        roll[i] = math.atan2(y_body_z[i], z_body_z[i])
    out[:, 0] = roll
    out[:, 1] = pitch
    out[:, 2] = yaw
    return out, np.where(tiny, 0.0, thrust)
