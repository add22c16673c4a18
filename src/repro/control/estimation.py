"""State estimation: extended Kalman filter and complementary filter.

The inner loop's compute is "filter computations such as EKF for data fusion
and updating PIDs, and algebraic functions for state estimation" over the
measurable state x = (zeta, zeta_dot, Omega, R) (Section 2.1.3-D).

:class:`InsEkf` is a 9-state (position, velocity, attitude) EKF predicted by
IMU mechanization and corrected by GPS/barometer/magnetometer.  It counts
floating-point operations so the inner-loop compute-budget bench (does this
fit a 100 MHz Cortex-M?) can account its cost honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path, hot_path_safe
from repro.physics import constants

STATE_SIZE = 9  # [px py pz vx vy vz roll pitch yaw]

# Read-only constants of the correction path, hoisted out of the
# 100-200 Hz update loop (each was rebuilt per call before).
_IDENTITY = np.eye(STATE_SIZE)
_IDENTITY.setflags(write=False)
_H_GPS = np.zeros((2, STATE_SIZE))
_H_GPS[0, 0] = 1.0
_H_GPS[1, 1] = 1.0
_H_GPS.setflags(write=False)
_H_BARO = np.zeros((1, STATE_SIZE))
_H_BARO[0, 2] = 1.0
_H_BARO.setflags(write=False)
_H_MAG = np.zeros((1, STATE_SIZE))
_H_MAG[0, 8] = 1.0
_H_MAG.setflags(write=False)


@dataclass
class InsEkf:
    """Loosely coupled INS EKF: IMU prediction, position/altitude/heading updates."""

    accel_noise: float = 0.35
    gyro_noise: float = 0.02
    gps_noise_m: float = 1.5
    baro_noise_m: float = 0.5
    mag_noise_rad: float = 0.05
    state: np.ndarray = field(default_factory=lambda: np.zeros(STATE_SIZE))
    covariance: np.ndarray = field(
        default_factory=lambda: np.eye(STATE_SIZE) * 0.1
    )
    #: FLOPs executed so far (approximate, counted per matrix op).
    flops: int = field(default=0)
    predictions: int = field(default=0)
    corrections: int = field(default=0)

    def __post_init__(self) -> None:
        # Keyed caches for the prediction jacobian/process matrices and the
        # measurement-noise matrices: the noise densities are fixed in
        # flight and the IMU interval takes a few values (2 or 3 ticks of
        # 500 Hz physics), so these build once instead of every filter tick.
        self._predict_matrices: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._gps_noise_key: Optional[float] = None
        self._gps_r = np.empty(0)
        self._baro_noise_key: Optional[float] = None
        self._baro_r = np.empty(0)
        self._mag_noise_key: Optional[float] = None
        self._mag_r = np.empty(0)

    @property
    def position_m(self) -> np.ndarray:
        return self.state[0:3]

    @property
    def velocity_m_s(self) -> np.ndarray:
        return self.state[3:6]

    @property
    def attitude_rad(self) -> np.ndarray:
        """[roll, pitch, yaw] estimate."""
        return self.state[6:9]

    @hot_path
    def predict(
        self,
        accel_body_m_s2: np.ndarray,
        gyro_rad_s: np.ndarray,
        dt: float,
    ) -> None:
        """IMU mechanization step (runs at the IMU's 100-200 Hz, Table 2a)."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        accel = np.asarray(accel_body_m_s2, dtype=float)
        gyro = np.asarray(gyro_rad_s, dtype=float)
        if accel.shape != (3,) or gyro.shape != (3,):
            raise ValueError("accel and gyro must be 3-vectors")

        # The state update runs on floats in the order of the NumPy
        # expressions it replaced, bit for bit (DESIGN.md §Performance);
        # the two matvecs stay in NumPy, whose BLAS rounds them with FMAs.
        px, py, pz, vx, vy, vz, roll, pitch, yaw = self.state.tolist()
        rotation = _rotation_from_euler(roll, pitch, yaw)
        ax, ay, az = (rotation @ accel).tolist()
        az = az - constants.GRAVITY_M_S2
        rate_roll, rate_pitch, rate_yaw = _euler_rates(roll, pitch, gyro).tolist()
        self.state[:] = (
            px + (vx * dt + 0.5 * ax * dt * dt),
            py + (vy * dt + 0.5 * ay * dt * dt),
            pz + (vz * dt + 0.5 * az * dt * dt),
            vx + ax * dt,
            vy + ay * dt,
            vz + az * dt,
            roll + rate_roll * dt,
            pitch + rate_pitch * dt,
            _wrap_angle(yaw + rate_yaw * dt),
        )

        key = (dt, self.accel_noise, self.gyro_noise)
        matrices = self._predict_matrices.get(key)
        if matrices is None:
            jacobian = np.eye(STATE_SIZE)
            jacobian[0:3, 3:6] = np.eye(3) * dt
            process = np.zeros((STATE_SIZE, STATE_SIZE))
            process[3:6, 3:6] = np.eye(3) * (self.accel_noise * dt) ** 2
            process[6:9, 6:9] = np.eye(3) * (self.gyro_noise * dt) ** 2
            process[0:3, 0:3] = np.eye(3) * (0.5 * self.accel_noise * dt * dt) ** 2
            matrices = self._predict_matrices[key] = (jacobian, process)
        jacobian, process = matrices
        self.covariance = jacobian @ self.covariance @ jacobian.T + process
        if not all(map(math.isfinite, self.state.tolist())):
            raise FloatingPointError("EKF state non-finite after prediction")
        self.flops += 2 * STATE_SIZE**3 + 60
        self.predictions += 1

    @hot_path
    def update_gps(self, position_m: np.ndarray) -> None:
        """Horizontal position correction (GPS runs at 1-40 Hz, Table 2a)."""
        measurement = np.asarray(position_m, dtype=float)
        if measurement.shape != (3,):
            raise ValueError("GPS measurement must be a 3-vector")
        if self._gps_noise_key != self.gps_noise_m:
            self._gps_r = np.eye(2) * self.gps_noise_m**2
            self._gps_noise_key = self.gps_noise_m
        self._correct(measurement[0:2], _H_GPS, self._gps_r)

    @hot_path
    def update_barometer(self, altitude_m: float) -> None:
        """Altitude correction (barometer runs at 10-20 Hz, Table 2a)."""
        if self._baro_noise_key != self.baro_noise_m:
            self._baro_r = np.array([[self.baro_noise_m**2]])
            self._baro_noise_key = self.baro_noise_m
        self._correct(np.array([altitude_m]), _H_BARO, self._baro_r)

    @hot_path
    def update_magnetometer(self, yaw_rad: float) -> None:
        """Heading correction (magnetometer runs at 10 Hz, Table 2a)."""
        if self._mag_noise_key != self.mag_noise_rad:
            self._mag_r = np.array([[self.mag_noise_rad**2]])
            self._mag_noise_key = self.mag_noise_rad
        innovation_wrap = _wrap_angle(yaw_rad - self.state[8]) + self.state[8]
        self._correct(np.array([innovation_wrap]), _H_MAG, self._mag_r)

    @hot_path
    def _correct(
        self, measurement: np.ndarray, h: np.ndarray, noise: np.ndarray
    ) -> None:
        innovation = measurement - h @ self.state
        s = h @ self.covariance @ h.T + noise
        gain = self.covariance @ h.T @ np.linalg.inv(s)
        self.state = self.state + gain @ innovation
        self.state[8] = _wrap_angle(self.state[8])
        self.covariance = (_IDENTITY - gain @ h) @ self.covariance
        if not np.all(np.isfinite(self.state)):
            raise FloatingPointError("EKF state non-finite after correction")
        m = h.shape[0]
        self.flops += 2 * STATE_SIZE**2 * m + STATE_SIZE**3 + m**3 + 40
        self.corrections += 1

    @hot_path_safe  # rarely-taken numerical-fault recovery; allocates
    def reset(self, state: Optional[np.ndarray] = None) -> None:
        self.state = (
            np.zeros(STATE_SIZE) if state is None else np.asarray(state, dtype=float)
        )
        self.covariance = np.eye(STATE_SIZE) * 0.1
        self.flops = 0
        self.predictions = 0
        self.corrections = 0


@dataclass
class ComplementaryFilter:
    """Cheap attitude filter: gyro integration pulled toward the accel vector.

    This is what the 'basic' Table 4 flight controllers run when a full EKF
    is unnecessary; it costs ~30 FLOPs per update.
    """

    time_constant_s: float = 0.5
    roll: float = 0.0
    pitch: float = 0.0
    updates: int = 0

    def __post_init__(self) -> None:
        if self.time_constant_s <= 0:
            raise ValueError("time constant must be positive")

    @hot_path
    def update(
        self, accel_body_m_s2: np.ndarray, gyro_rad_s: np.ndarray, dt: float
    ) -> np.ndarray:
        """Return the fused [roll, pitch] estimate."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        accel = np.asarray(accel_body_m_s2, dtype=float)
        gyro = np.asarray(gyro_rad_s, dtype=float)
        alpha = self.time_constant_s / (self.time_constant_s + dt)
        accel_norm = float(np.linalg.norm(accel))
        if accel_norm > 1e-6:
            accel_roll = math.atan2(accel[1], accel[2])
            accel_pitch = math.atan2(-accel[0], math.hypot(accel[1], accel[2]))
        else:
            accel_roll, accel_pitch = self.roll, self.pitch
        self.roll = alpha * (self.roll + gyro[0] * dt) + (1 - alpha) * accel_roll
        self.pitch = alpha * (self.pitch + gyro[1] * dt) + (1 - alpha) * accel_pitch
        self.updates += 1
        return np.array([self.roll, self.pitch])

    @property
    def flops_per_update(self) -> int:
        return 30


@hot_path
def _rotation_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


@hot_path
def _euler_rates(roll: float, pitch: float, gyro: np.ndarray) -> np.ndarray:
    """Body rates -> Euler angle rates (standard kinematic transform)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp = math.cos(pitch)
    tp = math.tan(pitch)
    if abs(cp) < 1e-6:
        cp = math.copysign(1e-6, cp)
    transform = np.array(
        [
            [1.0, sr * tp, cr * tp],
            [0.0, cr, -sr],
            [0.0, sr / cp, cr / cp],
        ]
    )
    return transform @ gyro


@hot_path
def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi
