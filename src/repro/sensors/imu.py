"""Inertial measurement unit model (accelerometer + gyroscope).

Table 2a: accelerometer and gyroscope stream at 100-200 Hz.  The model adds
bias, white noise, and gravity/specific-force physics so the EKF has
something honest to fuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.physics import constants
from repro.physics.rigid_body import GRAVITY_ROW, QuadcopterState

IMU_RATE_RANGE_HZ = (100.0, 200.0)


@dataclass
class Imu:
    """6-axis IMU producing body-frame specific force and angular rate."""

    rate_hz: float = 200.0
    accel_noise_m_s2: float = 0.10
    gyro_noise_rad_s: float = 0.005
    accel_bias_m_s2: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    gyro_bias_rad_s: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 1
    samples: int = field(default=0)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _last_velocity: Optional[List[float]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 1.0 <= self.rate_hz <= 10_000.0:
            raise ValueError(f"IMU rate out of range: {self.rate_hz} Hz")
        if self.accel_noise_m_s2 < 0 or self.gyro_noise_rad_s < 0:
            raise ValueError("noise densities cannot be negative")
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        self._last_velocity = None
        # Per-fire scratch for the noise draws and the specific force the
        # matvec reads, instead of fresh arrays every fire.
        self._noise = np.zeros(3)
        self._specific_force = np.zeros(3)

    @property
    def period_s(self) -> float:
        return 1.0 / self.rate_hz

    @hot_path
    def sample(self, state: QuadcopterState, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Return (accel_body m/s^2, gyro_body rad/s) for the current state.

        The accelerometer measures specific force: world acceleration minus
        gravity, rotated into the body frame.  World acceleration is
        differentiated from consecutive velocities.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        assert self._rng is not None  # seeded in __post_init__
        # Floats in the order of the NumPy expressions they replaced, bit
        # for bit (DESIGN.md §Performance); the body-frame rotation
        # rotation.T @ f stays in NumPy, whose BLAS rounds it with FMAs, and
        # its fresh output carries the noisy reading out.
        velocity = state.velocity_m_s.tolist()
        if self._last_velocity is None:
            accel_x = accel_y = accel_z = 0.0
        else:
            last_x, last_y, last_z = self._last_velocity
            vel_x, vel_y, vel_z = velocity
            accel_x = (vel_x - last_x) / dt
            accel_y = (vel_y - last_y) / dt
            accel_z = (vel_z - last_z) / dt
        self._last_velocity = velocity

        # Specific force: world acceleration plus gravity's [0, 0, g].
        force = self._specific_force
        force[0] = accel_x + 0.0
        force[1] = accel_y + 0.0
        force[2] = accel_z + constants.GRAVITY_M_S2
        accel_body = state.rotation.T @ force
        gyro_body = state.angular_velocity_rad_s.copy()

        # Each fresh vector gets bias + noise, summed before it is added;
        # standard_normal(out=...) draws what normal(0, sigma, 3) would.
        noise = self._noise
        for vector, sigma, bias in (
            (accel_body, self.accel_noise_m_s2, self.accel_bias_m_s2),
            (gyro_body, self.gyro_noise_rad_s, self.gyro_bias_rad_s),
        ):
            self._rng.standard_normal(out=noise)
            noise_x, noise_y, noise_z = noise.tolist()
            bias_x, bias_y, bias_z = bias
            x, y, z = vector.tolist()
            vector[0] = x + (bias_x + noise_x * sigma)
            vector[1] = y + (bias_y + noise_y * sigma)
            vector[2] = z + (bias_z + noise_z * sigma)
        self.samples += 1
        return accel_body, gyro_body

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._last_velocity = None
        self.samples = 0


def sample_imu_rows(
    imu: Imu, rotation: np.ndarray, velocity: np.ndarray,
    last_velocity: Optional[np.ndarray], omega: np.ndarray,
    accel_bias: np.ndarray, gyro_bias: np.ndarray,
    gens: Sequence[np.random.Generator], lanes: List[int], noise: np.ndarray,
    dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The batched twin of :meth:`Imu.sample` over N rows, noise constants
    from ``imu``: row *i* draws from ``gens[i]`` for each of the ``lanes``.

    ``last_velocity`` is None before the first fire.  One draw of six per
    row into ``noise`` equals the scalar's two draws of three (accel, then
    gyro), in values and in generator state.
    """
    if last_velocity is None:
        accel_world = np.zeros(velocity.shape)
    else:
        accel_world = (velocity - last_velocity) / dt
    specific_force = accel_world + GRAVITY_ROW
    accel_body = np.matmul(
        rotation.transpose(0, 2, 1), specific_force[:, :, None]
    )[:, :, 0]
    gyro_body = omega.copy()
    for i in lanes:
        gens[i].standard_normal(out=noise[i])
    accel_body += accel_bias + noise[:, 0:3] * imu.accel_noise_m_s2
    gyro_body += gyro_bias + noise[:, 3:6] * imu.gyro_noise_rad_s
    return accel_body, gyro_body
