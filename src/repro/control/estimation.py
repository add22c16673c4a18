"""State estimation: the extended Kalman filter.

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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path, hot_path_safe
from repro.physics import constants

if TYPE_CHECKING:
    from repro.sensors.suite import RowReadings

STATE_SIZE = 9  # [px py pz vx vy vz roll pitch yaw]

# Read-only constants of the correction path, hoisted out of the
# 100-200 Hz update loop (each was rebuilt per call before).
_IDENTITY = np.eye(STATE_SIZE)
# Measurement matrices: GPS observes x and y, the barometer z, the
# magnetometer yaw.
_H_GPS = _IDENTITY[0:2].copy()
_H_BARO = _IDENTITY[2:3].copy()
_H_MAG = _IDENTITY[8:9].copy()
for _matrix in (_IDENTITY, _H_GPS, _H_BARO, _H_MAG):
    _matrix.setflags(write=False)


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
        self._noise_matrices: Dict[Tuple[int, float], np.ndarray] = {}

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

        jacobian, process = self.prediction_matrices(dt)
        self.covariance = jacobian @ self.covariance @ jacobian.T + process
        if not all(map(math.isfinite, self.state.tolist())):
            raise FloatingPointError("EKF state non-finite after prediction")
        self.flops += 2 * STATE_SIZE**3 + 60
        self.predictions += 1

    @hot_path
    def prediction_matrices(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """The (jacobian, process noise) of a prediction over ``dt``,
        memoized by interval and noise densities."""
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
        return matrices

    @hot_path
    def noise_matrix(self, size: int, density: float) -> np.ndarray:
        """A correction's R, ``eye(size) * density**2``, memoized by both
        (``inject_position_fix`` swaps the GPS density for one update)."""
        key = (size, density)
        matrix = self._noise_matrices.get(key)
        if matrix is None:
            matrix = self._noise_matrices[key] = np.eye(size) * density**2
        return matrix

    @hot_path
    def update_gps(self, position_m: np.ndarray) -> None:
        """Horizontal position correction (GPS runs at 1-40 Hz, Table 2a)."""
        measurement = np.asarray(position_m, dtype=float)
        if measurement.shape != (3,):
            raise ValueError("GPS measurement must be a 3-vector")
        self._correct(measurement[0:2], _H_GPS, self.noise_matrix(2, self.gps_noise_m))

    @hot_path
    def update_barometer(self, altitude_m: float) -> None:
        """Altitude correction (barometer runs at 10-20 Hz, Table 2a)."""
        noise = self.noise_matrix(1, self.baro_noise_m)
        self._correct(np.array([altitude_m]), _H_BARO, noise)

    @hot_path
    def update_magnetometer(self, yaw_rad: float) -> None:
        """Heading correction (magnetometer runs at 10 Hz, Table 2a)."""
        innovation_wrap = _wrap_angle(yaw_rad - self.state[8]) + self.state[8]
        noise = self.noise_matrix(1, self.mag_noise_rad)
        self._correct(np.array([innovation_wrap]), _H_MAG, noise)

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


# -- row kernels --------------------------------------------------------------
#
# The batched twins of the filter above over N vehicles' rows, bit for bit
# per row: ufunc rows equal per-row scalar evaluation for ``+ - * / sqrt
# sin cos``, and ``math.tan`` (which ``np.tan`` misses by an ulp) runs per
# row.


def rotation_from_euler_rows(
    roll: np.ndarray, pitch: np.ndarray, yaw: np.ndarray
) -> np.ndarray:
    """Mirrors _rotation_from_euler row-wise."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    out = np.empty((roll.shape[0], 3, 3))
    out[:, 0, 0] = cy * cp
    out[:, 0, 1] = cy * sp * sr - sy * cr
    out[:, 0, 2] = cy * sp * cr + sy * sr
    out[:, 1, 0] = sy * cp
    out[:, 1, 1] = sy * sp * sr + cy * cr
    out[:, 1, 2] = sy * sp * cr - cy * sr
    out[:, 2, 0] = -sp
    out[:, 2, 1] = cp * sr
    out[:, 2, 2] = cp * cr
    return out


def euler_rates_rows(
    roll: np.ndarray, pitch: np.ndarray, gyro: np.ndarray, indices: List[int]
) -> np.ndarray:
    """Mirrors _euler_rates row-wise over the ``indices`` rows (the tangent
    of the others is 0.0); the ``cos(pitch)`` clamp vectorizes."""
    n = roll.shape[0]
    cr, sr = np.cos(roll), np.sin(roll)
    cp = np.cos(pitch)
    pitches = pitch.tolist()
    tangents = [0.0] * n
    for i in indices:
        tangents[i] = math.tan(pitches[i])
    tp = np.array(tangents)
    cp = np.where(np.abs(cp) < 1e-6, np.copysign(1e-6, cp), cp)
    transform = np.zeros((n, 3, 3))
    transform[:, 0, 0] = 1.0
    transform[:, 0, 1] = sr * tp
    transform[:, 0, 2] = cr * tp
    transform[:, 1, 1] = cr
    transform[:, 1, 2] = -sr
    transform[:, 2, 1] = sr / cp
    transform[:, 2, 2] = cr / cp
    return np.matmul(transform, gyro[:, :, None])[:, :, 0]


def wrap_rows(angle: np.ndarray) -> np.ndarray:
    """Mirrors _wrap_angle elementwise."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


class EkfRows:
    """The EKF registers of N vehicles and the batched twin of the
    :class:`InsEkf` tick: predict, the three corrections, and the reset to
    the pre-tick state when a row goes non-finite.  Noise densities and
    matrices come from ``ekf``, the filter every row runs.
    ``commit(dst, src, mask)`` writes a register's masked rows in place.
    """

    def __init__(self, ekf: InsEkf, n: int,
                 commit: Callable[[np.ndarray, np.ndarray, np.ndarray], None]):
        self.ekf = ekf
        self._commit = commit
        self.state = np.zeros((n, STATE_SIZE))
        self.cov = np.tile(np.eye(STATE_SIZE) * 0.1, (n, 1, 1))
        self.flops = np.zeros(n, dtype=np.int64)
        self.predictions = np.zeros(n, dtype=np.int64)
        self.corrections = np.zeros(n, dtype=np.int64)
        self.resets = np.zeros(n, dtype=np.int64)

    def predict(self, accel: np.ndarray, gyro: np.ndarray, dt: float,
                ok: np.ndarray, failed: np.ndarray) -> None:
        """:meth:`InsEkf.predict` on the ``ok`` rows; a row that goes
        non-finite moves from ``ok`` to ``failed``."""
        state = self.state
        roll, pitch, yaw = state[:, 6], state[:, 7], state[:, 8]
        rotation = rotation_from_euler_rows(roll, pitch, yaw)
        accel_world = np.matmul(rotation, accel[:, :, None])[:, :, 0]
        accel_world[:, 2] -= constants.GRAVITY_M_S2

        new_state = state.copy()
        new_state[:, 0:3] += state[:, 3:6] * dt + 0.5 * accel_world * dt * dt
        new_state[:, 3:6] += accel_world * dt
        lanes = np.flatnonzero(ok).tolist()
        new_state[:, 6:9] += euler_rates_rows(roll, pitch, gyro, lanes) * dt
        new_state[:, 8] = wrap_rows(new_state[:, 8])

        jacobian, process = self.ekf.prediction_matrices(dt)
        new_cov = np.matmul(np.matmul(jacobian, self.cov), jacobian.T) + process
        # The scalar EKF commits state and covariance before the finite
        # check (the raise happens after mutation); failed rows are fully
        # reset at end of tick, so committing them here is equivalent.
        self._commit(self.state, new_state, ok)
        self._commit(self.cov, new_cov, ok)
        bad = ok & ~np.all(np.isfinite(new_state), axis=1)
        failed |= bad
        ok &= ~bad
        self.flops[ok] += 2 * STATE_SIZE**3 + 60
        self.predictions[ok] += 1

    def correct(self, measurement: np.ndarray, h: np.ndarray, noise: np.ndarray,
                mask: np.ndarray, ok: np.ndarray, failed: np.ndarray) -> None:
        """:meth:`InsEkf._correct` on the ``mask`` rows."""
        state = self.state
        cov = self.cov
        m = h.shape[0]
        innovation = measurement - np.matmul(h, state[:, :, None])[:, :, 0]
        s = np.matmul(np.matmul(h, cov), h.T) + noise
        # Identity-fill rows outside the mask so batched inv cannot choke
        # on dead/garbage rows (their results are discarded anyway).
        s = np.where(mask[:, None, None], s, _IDENTITY[:m, :m])
        gain = np.matmul(np.matmul(cov, h.T), np.linalg.inv(s))
        new_state = state + np.matmul(gain, innovation[:, :, None])[:, :, 0]
        new_state[:, 8] = wrap_rows(new_state[:, 8])
        new_cov = np.matmul(_IDENTITY - np.matmul(gain, h), cov)
        self._commit(self.state, new_state, mask)
        self._commit(self.cov, new_cov, mask)
        bad = mask & ~np.all(np.isfinite(new_state), axis=1)
        failed |= bad
        ok &= ~bad
        good = mask & ~bad
        self.flops[good] += 2 * STATE_SIZE**2 * m + STATE_SIZE**3 + m**3 + 40
        self.corrections[good] += 1

    def tick(self, readings: "RowReadings", live: np.ndarray) -> None:
        """One filter tick of the ``live`` rows on what fired, as
        ``FlightSimulator.step`` runs it, reset included."""
        checkpoint = self.state.copy()
        ok = live.copy()
        failed = np.zeros(live.shape[0], dtype=bool)
        ekf = self.ekf
        if readings.accel is not None:
            assert readings.gyro is not None
            self.predict(readings.accel, readings.gyro, readings.imu_dt, ok, failed)
        if readings.gps_fix is not None:
            assert readings.gps_has_fix is not None
            mask = ok & readings.gps_has_fix
            if mask.any():
                noise = ekf.noise_matrix(2, ekf.gps_noise_m)
                self.correct(readings.gps_fix[:, 0:2], _H_GPS, noise, mask, ok, failed)
        if readings.baro is not None and ok.any():
            noise = ekf.noise_matrix(1, ekf.baro_noise_m)
            self.correct(readings.baro[:, None], _H_BARO, noise, ok.copy(), ok, failed)
        if readings.mag is not None and ok.any():
            yaw = self.state[:, 8]
            wrapped = wrap_rows(readings.mag - yaw) + yaw
            noise = ekf.noise_matrix(1, ekf.mag_noise_rad)
            self.correct(wrapped[:, None], _H_MAG, noise, ok.copy(), ok, failed)
        if failed.any():
            # InsEkf.reset(checkpoint): pre-tick state, fresh covariance,
            # and zeroed op counters.
            self._commit(self.state, checkpoint, failed)
            self._commit(self.cov, np.eye(STATE_SIZE) * 0.1, failed)
            self.flops[failed] = 0
            self.predictions[failed] = 0
            self.corrections[failed] = 0
            self.resets[failed] += 1
