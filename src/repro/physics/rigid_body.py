"""Six-degree-of-freedom quadcopter rigid-body dynamics.

State follows the paper's Section 2.1.3-D definition
``x = (zeta, zeta_dot, Omega, R)``: position, velocity, angular velocity,
and attitude.  Attitude is stored as a unit quaternion (world-from-body) and
exposed as a rotation matrix ``R in SO(3)``.

The quadcopter uses the standard X configuration with four rotors: rotors 1
and 2 spin opposite to rotors 3 and 4 so yaw is controlled by differential
torque (paper Figure 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.physics import constants
from repro.physics.environment import Environment, Wind

# Rotor layout: X configuration, arms at 45/225/135/315 degrees for rotors
# 1-4; spin +1 CCW, -1 CW.  The mixer and the ensemble import these, so the
# wrench map and its inverse cannot drift apart.
ROTOR_ANGLES_RAD = np.deg2rad([45.0, 225.0, 135.0, 315.0])
ROTOR_SPIN = np.array([1.0, 1.0, -1.0, -1.0])
#: Rotor reaction torque per unit thrust (Cq*D/Ct in momentum terms), m.
TORQUE_THRUST_RATIO_M = 0.016


@hot_path
def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (world from body) from a unit quaternion [w, x, y, z]."""
    w, x, y, z = q.tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@hot_path
def quaternion_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b of two [w, x, y, z] quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


@hot_path
def quaternion_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Unit quaternion from ZYX Euler angles (radians)."""
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    return np.array(
        [
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        ]
    )


@hot_path
def euler_from_quaternion(q: np.ndarray) -> np.ndarray:
    """ZYX Euler angles [roll, pitch, yaw] (radians) from a unit quaternion."""
    w, x, y, z = q.tolist()
    roll = math.atan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    sin_pitch = max(-1.0, min(1.0, 2 * (w * y - z * x)))
    pitch = math.asin(sin_pitch)
    yaw = math.atan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


@dataclass
class QuadcopterState:
    """Full rigid-body state; world frame is ENU with +z up."""

    position_m: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity_m_s: np.ndarray = field(default_factory=lambda: np.zeros(3))
    quaternion: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))
    angular_velocity_rad_s: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @property
    def rotation(self) -> np.ndarray:
        return quaternion_to_rotation(self.quaternion)

    @property
    def euler_rad(self) -> np.ndarray:
        return euler_from_quaternion(self.quaternion)

    def copy(self) -> "QuadcopterState":
        return QuadcopterState(
            position_m=self.position_m.copy(),
            velocity_m_s=self.velocity_m_s.copy(),
            quaternion=self.quaternion.copy(),
            angular_velocity_rad_s=self.angular_velocity_rad_s.copy(),
        )


@dataclass
class QuadcopterBody:
    """Rigid-body integrator for an X-configuration quadcopter.

    ``arm_length_m`` is the motor-to-center distance (wheelbase / 2 along the
    diagonal).  Inertia defaults to a thin-disk approximation from mass and
    arm length when not supplied.
    """

    mass_kg: float
    arm_length_m: float
    inertia_kg_m2: Optional[np.ndarray] = None
    drag_coefficient_area: float = 0.02
    environment: Environment = field(default_factory=Environment)
    wind: Optional[Wind] = None
    state: QuadcopterState = field(default_factory=QuadcopterState)

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise ValueError(f"mass must be positive, got {self.mass_kg}")
        if self.arm_length_m <= 0:
            raise ValueError(f"arm length must be positive, got {self.arm_length_m}")
        if not self.drag_coefficient_area >= 0:
            raise ValueError(
                f"Cd*A must be non-negative, got {self.drag_coefficient_area}"
            )
        if self.inertia_kg_m2 is None:
            ixx = 0.35 * self.mass_kg * self.arm_length_m**2
            self.inertia_kg_m2 = np.diag([ixx, ixx, 1.8 * ixx])
        self.inertia_kg_m2 = np.asarray(self.inertia_kg_m2, dtype=float)
        if self.inertia_kg_m2.shape != (3, 3):
            raise ValueError("inertia must be a 3x3 matrix")
        # The step divides by the principal moments, so the body axes must be
        # the principal axes: off-diagonal products of inertia are rejected.
        off_diagonal = self.inertia_kg_m2[~np.eye(3, dtype=bool)]
        if np.any(off_diagonal != 0.0):
            raise ValueError("inertia must be diagonal in the body frame")
        principal = np.diag(self.inertia_kg_m2)
        if not np.all(principal > 0.0):
            raise ValueError(f"principal moments must be positive, got {principal}")
        # Constants hoisted out of the step path, as Python floats: arm
        # geometry, gravity and inertia never change in flight.
        self._inertia_diag = principal.tolist()
        self._arm_x = (self.arm_length_m * np.cos(ROTOR_ANGLES_RAD)).tolist()
        self._arm_y = (self.arm_length_m * np.sin(ROTOR_ANGLES_RAD)).tolist()
        self._spin = ROTOR_SPIN.tolist()
        self._gravity_z = -self.mass_kg * constants.GRAVITY_M_S2

    @hot_path
    def _wrench(
        self, thrusts_n: np.ndarray, torque_thrust_ratio_m: float
    ) -> Tuple[float, float, float, float]:
        """Collective thrust and roll/pitch/yaw torque as floats.

        Each sum runs in NumPy's order for four elements, accumulator
        included: ``(((0.0 + a) + b) + c) + d``.
        """
        thrusts = np.asarray(thrusts_n, dtype=float)
        if thrusts.shape != (4,):
            raise ValueError(f"need 4 motor thrusts, got shape {thrusts.shape}")
        t0, t1, t2, t3 = thrusts.tolist()
        if t0 < -1e-9 or t1 < -1e-9 or t2 < -1e-9 or t3 < -1e-9:
            raise ValueError("motor thrusts cannot be negative")
        x0, x1, x2, x3 = self._arm_x
        y0, y1, y2, y3 = self._arm_y
        s0, s1, s2, s3 = self._spin
        return (
            0.0 + t0 + t1 + t2 + t3,
            0.0 + y0 * t0 + y1 * t1 + y2 * t2 + y3 * t3,
            -(0.0 + x0 * t0 + x1 * t1 + x2 * t2 + x3 * t3),
            (0.0 + s0 * t0 + s1 * t1 + s2 * t2 + s3 * t3) * torque_thrust_ratio_m,
        )

    @hot_path
    def wrench_from_motor_thrusts(
        self,
        thrusts_n: np.ndarray,
        torque_thrust_ratio_m: float = TORQUE_THRUST_RATIO_M,
    ) -> Tuple[float, np.ndarray]:
        """Body-frame total force (z only) and torque from per-motor thrusts.

        ``torque_thrust_ratio_m`` maps rotor thrust to reaction torque
        (Cq*D/Ct in momentum terms); the default matches small quads.
        """
        total, roll, pitch, yaw = self._wrench(thrusts_n, torque_thrust_ratio_m)
        return total, np.array([roll, pitch, yaw])

    @hot_path
    def step(self, thrusts_n: np.ndarray, dt: float) -> QuadcopterState:
        """Advance dynamics by ``dt`` seconds under per-motor thrusts (N).

        Semi-implicit Euler with quaternion renormalization — stable at the
        1 kHz inner-loop rates the paper's Table 2 prescribes.

        The arithmetic runs on Python floats in the operation order of the
        NumPy expressions it replaced, so every result is the same to the
        bit; DESIGN.md §Performance lists what is reproduced and what stays
        in NumPy.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        thrust, roll, pitch, yaw = self._wrench(thrusts_n, TORQUE_THRUST_RATIO_M)
        state = self.state
        w, x, y, z = state.quaternion.tolist()
        vx, vy, vz = state.velocity_m_s.tolist()
        px, py, pz = state.position_m.tolist()

        # Body-z thrust in the world frame (the third column of
        # quaternion_to_rotation times the thrust) plus gravity, whose x and
        # y are 0.0.
        thrust_x = 2 * (x * z + w * y) * thrust + 0.0
        thrust_y = 2 * (y * z - w * x) * thrust + 0.0
        thrust_z = (1 - 2 * (x * x + y * y)) * thrust + self._gravity_z

        airspeed = state.velocity_m_s
        if self.wind is not None:
            wind_x, wind_y, wind_z = self.wind.step(dt).tolist()
            airspeed = np.array([vx - wind_x, vy - wind_y, vz - wind_z])
        cda = self.drag_coefficient_area
        if cda < 0:
            raise ValueError("Cd*A must be non-negative")
        # BLAS rounds the dot product with FMAs, which floats cannot mirror.
        speed = math.sqrt(airspeed.dot(airspeed))
        if speed == 0.0:
            drag_x = drag_y = drag_z = 0.0
        else:
            ax, ay, az = airspeed.tolist()
            magnitude = 0.5 * self.environment.air_density * cda * speed * speed
            drag_x = -magnitude * ax / speed
            drag_y = -magnitude * ay / speed
            drag_z = -magnitude * az / speed

        mass = self.mass_kg
        vx = vx + (thrust_x + drag_x) / mass * dt
        vy = vy + (thrust_y + drag_y) / mass * dt
        vz = vz + (thrust_z + drag_z) / mass * dt
        px = px + vx * dt
        py = py + vy * dt
        pz = pz + vz * dt
        # Ground plane: the drone cannot fall through the floor.
        if pz < 0.0:
            pz = 0.0
            if vz < 0.0:
                vz = 0.0

        # Euler's equation on a diagonal inertia.  The matvec I @ omega
        # returns +0.0 where the product is -0.0, hence the + 0.0.
        wx, wy, wz = state.angular_velocity_rad_s.tolist()
        ixx, iyy, izz = self._inertia_diag
        hx = ixx * wx + 0.0
        hy = iyy * wy + 0.0
        hz = izz * wz + 0.0
        rx = roll - (wy * hz - wz * hy)
        ry = pitch - (wz * hx - wx * hz)
        rz = yaw - (wx * hy - wy * hx)
        if (rx == 0.0 and wx == 0.0) or (ry == 0.0 and wy == 0.0) or (
            rz == 0.0 and wz == 0.0
        ):
            # A zero rate plus a zero rate of change: its sign is the one
            # LAPACK's substitution gives (it can differ from rx / ixx).
            assert self.inertia_kg_m2 is not None  # materialized in __post_init__
            dx, dy, dz = np.linalg.solve(
                self.inertia_kg_m2, np.array([rx, ry, rz])
            ).tolist()
        else:
            dx = rx / ixx
            dy = ry / iyy
            dz = rz / izz
        wx = wx + dx * dt
        wy = wy + dy * dt
        wz = wz + dz * dt

        # q += 0.5 * (q * (0, omega)) * dt, renormalized below.
        qw = w + 0.5 * (((w * 0.0 - x * wx) - y * wy) - z * wz) * dt
        qx = x + 0.5 * (((w * wx + x * 0.0) + y * wz) - z * wy) * dt
        qy = y + 0.5 * (((w * wy - x * wz) + y * 0.0) + z * wx) * dt
        qz = z + 0.5 * (((w * wz + x * wy) - y * wx) + z * 0.0) * dt

        # The four state vectors are views of one fresh array: callers still
        # get new arrays every tick, for one construction instead of four.
        vectors = np.array([vx, vy, vz, px, py, pz, wx, wy, wz, qw, qx, qy, qz])
        quaternion = vectors[9:13]
        quaternion /= math.sqrt(quaternion.dot(quaternion))
        state.velocity_m_s = vectors[0:3]
        state.position_m = vectors[3:6]
        state.angular_velocity_rad_s = vectors[6:9]
        state.quaternion = quaternion
        return state

    def reset(self, state: Optional[QuadcopterState] = None) -> None:
        self.state = state.copy() if state is not None else QuadcopterState()
        if self.wind is not None:
            self.wind.reset()


# -- row kernels --------------------------------------------------------------
#
# The batched twins of the functions above, over (N, k) rows of N vehicles,
# bit for bit per row (DESIGN.md §Performance).  ``np.linalg.norm`` is NOT
# bit-identical to an explicit sqrt-of-dot on this BLAS, but the matmul
# dot-trick below is: it reuses the fused reduction the scalar norm performs.

#: [0, 0, g]: gravity compensation, and the specific force of gravity the
#: IMU reads, broadcast over rows.
GRAVITY_ROW = np.array([0.0, 0.0, constants.GRAVITY_M_S2])


def rows_norm(v: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm, bit-identical to ``np.linalg.norm(row)``."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def quaternion_to_rotation_rows(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(N,4) quaternions -> (N,3,3) rotations into ``out``; mirrors
    quaternion_to_rotation."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


#: Column orders of ``np.cross``'s three components: ``cp0 = a1*b2 - a2*b1``,
#: ``cp1 = a2*b0 - a0*b2``, ``cp2 = a0*b1 - a1*b0``.
_CROSS_LEFT = np.array([1, 2, 0])
_CROSS_RIGHT = np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``np.cross(a, b)`` in its own operation order, bit for bit,
    without its ``moveaxis`` bookkeeping."""
    return a[:, _CROSS_LEFT] * b[:, _CROSS_RIGHT] - a[:, _CROSS_RIGHT] * b[
        :, _CROSS_LEFT
    ]


def quaternion_multiply_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product; mirrors quaternion_multiply exactly.

    The full product is kept even when callers pass ``b[:, 0] == 0`` (the
    omega quaternion): the scalar path computes the ``aw*bw`` terms too, and
    signed zeros must match.
    """
    aw, ax, ay, az = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bw, bx, by, bz = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    out = np.empty_like(a)
    out[:, 0] = aw * bw - ax * bx - ay * by - az * bz
    out[:, 1] = aw * bx + ax * bw + ay * bz - az * by
    out[:, 2] = aw * by - ax * bz + ay * bw + az * bx
    out[:, 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quaternion_from_euler_rows(euler: np.ndarray) -> np.ndarray:
    """(N,3) ZYX Euler -> (N,4) quaternions; mirrors quaternion_from_euler.

    ``np.cos``/``np.sin`` agree bitwise with ``math.cos``/``math.sin`` on
    this platform, so the half-angle chain vectorizes directly.
    """
    cr, sr = np.cos(euler[:, 0] / 2), np.sin(euler[:, 0] / 2)
    cp, sp = np.cos(euler[:, 1] / 2), np.sin(euler[:, 1] / 2)
    cy, sy = np.cos(euler[:, 2] / 2), np.sin(euler[:, 2] / 2)
    out = np.empty((euler.shape[0], 4))
    out[:, 0] = cr * cp * cy + sr * sp * sy
    out[:, 1] = sr * cp * cy - cr * sp * sy
    out[:, 2] = cr * sp * cy + sr * cp * sy
    out[:, 3] = cr * cp * sy - sr * sp * cy
    return out


def euler_from_quaternion_rows(
    q: np.ndarray, indices: List[int], out: np.ndarray
) -> np.ndarray:
    """(N,4) quaternions -> (N,3) ZYX Euler into ``out``; mirrors
    euler_from_quaternion.

    Neither ``math.asin``/``np.arcsin`` nor ``math.atan2``/``np.arctan2``
    are bit-identical pairs on this platform, so all three angles run as a
    per-row Python loop over ``indices``, on floats read through
    ``.tolist()``; other rows are set to zero.  Only the operand arithmetic
    is vectorized.
    """
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    roll_y = (2 * (w * x + y * z)).tolist()
    roll_x = (1 - 2 * (x * x + y * y)).tolist()
    sin_pitch = (2 * (w * y - z * x)).tolist()
    yaw_y = (2 * (w * z + x * y)).tolist()
    yaw_x = (1 - 2 * (y * y + z * z)).tolist()
    n = q.shape[0]
    roll, pitch, yaw = [0.0] * n, [0.0] * n, [0.0] * n
    for i in indices:
        roll[i] = math.atan2(roll_y[i], roll_x[i])
        pitch[i] = math.asin(max(-1.0, min(1.0, sin_pitch[i])))
        yaw[i] = math.atan2(yaw_y[i], yaw_x[i])
    out[:, 0] = roll
    out[:, 1] = pitch
    out[:, 2] = yaw
    return out


class BodyRows:
    """The rigid-body registers of N vehicles and the batched twin of
    :meth:`QuadcopterBody.step`, reading mass, inertia and drag from the
    one ``body`` every row flies.  ``commit(dst, src, mask)`` writes a
    register's masked rows in place."""

    def __init__(self, body: QuadcopterBody, n: int,
                 commit: Callable[[np.ndarray, np.ndarray, np.ndarray], None]):
        self.body = body
        self._commit = commit
        self.pos = np.zeros((n, 3))
        self.vel = np.zeros((n, 3))
        self.quat = np.zeros((n, 4))
        self.quat[:, 0] = 1.0
        self.omega = np.zeros((n, 3))
        # Per-tick scratch: every step overwrites the same entries (the zero
        # columns of the thrust and omega-quaternion blocks stay zero), and
        # no reference to it outlives the step.
        self._rotation = np.empty((n, 3, 3))
        self._torque = np.empty((n, 3))
        self._thrust_col = np.zeros((n, 3, 1))
        self._omega_quat = np.zeros((n, 4))
        # The body's float constants as the rows the kernel broadcasts.
        self._arm_x = np.array(body._arm_x)
        self._arm_y = np.array(body._arm_y)
        self._principal_inertia = np.array(body._inertia_diag)
        self._gravity = np.array([0.0, 0.0, body._gravity_z])

    def rotation(self) -> np.ndarray:
        """World-from-body rotations of the current quaternions (scratch)."""
        return quaternion_to_rotation_rows(self.quat, self._rotation)

    def step(
        self, thrusts: np.ndarray, rotation: np.ndarray, airspeed: np.ndarray,
        dt: float, live: np.ndarray,
    ) -> None:
        """Advance the ``live`` rows by ``dt`` under ``thrusts``."""
        body = self.body
        total_thrust = np.sum(thrusts, axis=1)
        torque = self._torque
        torque[:, 0] = np.sum(self._arm_y * thrusts, axis=1)
        torque[:, 1] = -np.sum(self._arm_x * thrusts, axis=1)
        torque[:, 2] = np.sum(ROTOR_SPIN * thrusts, axis=1) * TORQUE_THRUST_RATIO_M

        thrust_col = self._thrust_col
        thrust_col[:, 2, 0] = total_thrust
        thrust_world = np.matmul(rotation, thrust_col)[:, :, 0]

        speed = rows_norm(airspeed)
        magnitude = (
            0.5 * body.environment.air_density * body.drag_coefficient_area
            * speed * speed
        )
        drag = (-magnitude[:, None] * airspeed) / speed[:, None]
        drag = np.where((speed == 0.0)[:, None], 0.0, drag)

        acceleration = (thrust_world + self._gravity + drag) / body.mass_kg
        new_vel = self.vel + acceleration * dt
        new_pos = self.pos + new_vel * dt
        below = new_pos[:, 2] < 0.0
        if below.any():
            new_pos[:, 2] = np.where(below, 0.0, new_pos[:, 2])
            new_vel[:, 2] = np.where(
                below & (new_vel[:, 2] < 0.0), 0.0, new_vel[:, 2]
            )

        omega = self.omega
        assert body.inertia_kg_m2 is not None  # materialized in __post_init__
        inertia_omega = np.matmul(body.inertia_kg_m2, omega[:, :, None])[:, :, 0]
        rhs = torque - cross_rows(omega, inertia_omega)
        # np.linalg.solve on the diagonal inertia, bit for bit up to the sign
        # of a zero, which never reaches omega: rates start at +0.0.
        omega_dot = rhs / self._principal_inertia
        new_omega = omega + omega_dot * dt

        omega_quat = self._omega_quat
        omega_quat[:, 1:4] = new_omega
        q_dot = 0.5 * quaternion_multiply_rows(self.quat, omega_quat)
        new_quat = self.quat + q_dot * dt
        new_quat = new_quat / rows_norm(new_quat)[:, None]
        commit = self._commit
        commit(self.vel, new_vel, live)
        commit(self.pos, new_pos, live)
        commit(self.omega, new_omega, live)
        commit(self.quat, new_quat, live)
