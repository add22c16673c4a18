"""The full on-board sensor suite, scheduled at Table 2a data rates.

:class:`SensorSuite` owns one of each on-board sensor and exposes a single
``poll`` that fires each sensor when its period elapses — mirroring how the
flight controller's acquisition code services sensors at different rates.
:func:`sensor_seeds` maps one vehicle's ``sensor_seed`` to the seeds of its
four noise streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.sensors.barometer import Barometer, sample_barometer_rows
from repro.sensors.gps import Gps, GpsUnavailableError, sample_gps_rows
from repro.sensors.imu import Imu, sample_imu_rows
from repro.sensors.magnetometer import Magnetometer, sample_magnetometer_rows
from repro.physics.rigid_body import QuadcopterState

#: Table 2a — common data frequencies of on-board sensors.
TABLE2A_SENSOR_RATES_HZ = {
    "accelerometer": (100.0, 200.0),
    "gyroscope": (100.0, 200.0),
    "magnetometer": (10.0, 10.0),
    "barometer": (10.0, 20.0),
    "gps": (1.0, 40.0),
}

#: IMU, barometer, GPS and magnetometer seeds of a suite without a
#: ``sensor_seed``: the sensors' own defaults.
DEFAULT_SENSOR_SEEDS = (1, 2, 3, 4)


def sensor_seeds(sensor_seed: Optional[int]) -> Tuple[int, int, int, int]:
    """The IMU, barometer, GPS and magnetometer seeds of one vehicle.

    ``None`` gives :data:`DEFAULT_SENSOR_SEEDS`; an int gives four seeds
    drawn from its :class:`numpy.random.SeedSequence`, so distinct
    ``sensor_seed`` values fly distinct, independent noise.
    """
    if sensor_seed is None:
        return DEFAULT_SENSOR_SEEDS
    state = np.random.SeedSequence(sensor_seed).generate_state(4)
    imu, baro, gps, mag = state.tolist()
    return imu, baro, gps, mag


@dataclass
class SensorReadings:
    """Whatever fired during one poll; None means that sensor was not due."""

    accel_body_m_s2: Optional[np.ndarray] = None
    gyro_rad_s: Optional[np.ndarray] = None
    baro_altitude_m: Optional[float] = None
    gps_position_m: Optional[np.ndarray] = None
    mag_yaw_rad: Optional[float] = None
    #: Tick time summed since the IMU's previous fire (0.0 when it did not
    #: fire): the interval its reading differentiates over and the EKF
    #: integrates over.
    imu_dt_s: float = 0.0

    @property
    def imu_fired(self) -> bool:
        return self.accel_body_m_s2 is not None


@dataclass
class SensorSuite:
    """All on-board sensors with per-sensor scheduling."""

    imu: Imu = field(default_factory=Imu)
    barometer: Barometer = field(default_factory=Barometer)
    gps: Gps = field(default_factory=Gps)
    magnetometer: Magnetometer = field(default_factory=Magnetometer)
    _time_s: float = field(default=0.0)
    _due: Dict[str, float] = field(default_factory=dict)
    _last_gps_fix_s: float = field(default=0.0)
    _imu_elapsed_s: float = field(default=0.0)

    def __post_init__(self) -> None:
        self._due = {"imu": 0.0, "baro": 0.0, "gps": 0.0, "mag": 0.0}

    @classmethod
    def seeded(cls, sensor_seed: Optional[int] = None) -> "SensorSuite":
        """Default sensors on the streams :func:`sensor_seeds` derives."""
        imu, baro, gps, mag = sensor_seeds(sensor_seed)
        return cls(
            imu=Imu(seed=imu),
            barometer=Barometer(seed=baro),
            gps=Gps(seed=gps),
            magnetometer=Magnetometer(seed=mag),
        )

    def gps_fix_age_s(self) -> float:
        """Seconds since the last successful GPS fix (0 before any polling).

        This is the signal the autopilot's GPS-loss failsafe watches: a
        denied/indoor receiver keeps getting polled but produces no fix, so
        the age keeps growing.
        """
        return self._time_s - self._last_gps_fix_s

    @hot_path
    def _advance(self, dt: float) -> Tuple[float, bool, bool, bool]:
        """Advance the schedule by ``dt``: the IMU's interval (0.0 unless it
        fires) and whether the barometer, GPS and magnetometer fire.

        Deadlines advance by whole periods from the previous deadline (not
        from "now"), so floating-point grid beating cannot stretch the
        effective period.  The IMU's interval sums the tick dts since its
        last fire (not now - last), so it takes only a few distinct values.
        """
        self._time_s += dt
        now = self._time_s
        due = self._due
        self._imu_elapsed_s += dt
        imu_dt = 0.0
        if now + 1e-12 >= due["imu"]:
            due["imu"] = max(due["imu"] + self.imu.period_s, now)
            imu_dt = self._imu_elapsed_s
            self._imu_elapsed_s = 0.0
        baro = now + 1e-12 >= due["baro"]
        if baro:
            due["baro"] = max(due["baro"] + self.barometer.period_s, now)
        gps = now + 1e-12 >= due["gps"]
        if gps:
            due["gps"] = max(due["gps"] + self.gps.period_s, now)
        mag = now + 1e-12 >= due["mag"]
        if mag:
            due["mag"] = max(due["mag"] + self.magnetometer.period_s, now)
        return imu_dt, baro, gps, mag

    @hot_path
    def poll(self, state: QuadcopterState, dt: float) -> SensorReadings:
        """Advance time by ``dt`` and fire every sensor whose period elapsed."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        imu_dt, baro, gps, mag = self._advance(dt)
        readings = SensorReadings(imu_dt_s=imu_dt)
        if imu_dt > 0.0:
            readings.accel_body_m_s2, readings.gyro_rad_s = self.imu.sample(
                state, imu_dt
            )
        if baro:
            readings.baro_altitude_m = self.barometer.sample(state)
        if gps:
            try:
                readings.gps_position_m = self.gps.sample(state)
                self._last_gps_fix_s = self._time_s
            except GpsUnavailableError:
                readings.gps_position_m = None
        if mag:
            readings.mag_yaw_rad = self.magnetometer.sample(state)
        return readings

    def sample_counts(self) -> Dict[str, int]:
        """Per-sensor sample counts — used to verify Table 2a rates."""
        return {
            "imu": self.imu.samples,
            "barometer": self.barometer.samples,
            "gps": self.gps.samples,
            "magnetometer": self.magnetometer.samples,
        }

    def reset(self) -> None:
        self.imu.reset()
        self.barometer.reset()
        self.gps.reset()
        self.magnetometer.reset()
        self._time_s = 0.0
        self._due = {"imu": 0.0, "baro": 0.0, "gps": 0.0, "mag": 0.0}
        self._last_gps_fix_s = 0.0
        self._imu_elapsed_s = 0.0


@dataclass
class RowReadings:
    """What fired during one :meth:`SensorRows.poll`: the
    :class:`SensorReadings` twin, one row per vehicle.  ``gps_fix`` is None
    unless some row got a fix; ``gps_has_fix`` says which rows did."""

    imu_dt: float = 0.0
    accel: Optional[np.ndarray] = None
    gyro: Optional[np.ndarray] = None
    baro: Optional[np.ndarray] = None
    gps_fix: Optional[np.ndarray] = None
    gps_has_fix: Optional[np.ndarray] = None
    mag: Optional[np.ndarray] = None


class SensorRows:
    """The sensor registers of N vehicles and the batched twin of
    :meth:`SensorSuite.poll`.  ``suite`` supplies the noise constants and
    keeps the one schedule (``_advance``) every row fires on.

    Row *i* owns the generators of ``SensorSuite.seeded(seeds[i])`` and
    draws what that suite draws, when it draws: IMU and magnetometer on
    every fire, the barometer unless frozen, the GPS unless denied.
    ``commit(dst, src, mask)`` writes a register's masked rows in place.
    """

    def __init__(self, suite: SensorSuite, seeds: Sequence[Optional[int]],
                 commit: Callable[[np.ndarray, np.ndarray, np.ndarray], None]):
        n = len(seeds)
        self.suite = suite
        self.seeds = list(seeds)
        self._commit = commit
        streams = [sensor_seeds(seed) for seed in seeds]
        self.imu_gens = [np.random.default_rng(row[0]) for row in streams]
        self.baro_gens = [np.random.default_rng(row[1]) for row in streams]
        self.gps_gens = [np.random.default_rng(row[2]) for row in streams]
        self.mag_gens = [np.random.default_rng(row[3]) for row in streams]
        self.imu_samples = np.zeros(n, dtype=np.int64)
        self.imu_last_vel = np.zeros((n, 3))
        self.imu_has_last = False
        self.accel_bias = np.zeros((n, 3))
        self.gyro_bias = np.zeros((n, 3))
        self.baro_samples = np.zeros(n, dtype=np.int64)
        self.baro_last_alt = np.zeros(n)
        self.baro_frozen = np.zeros(n, dtype=bool)
        self.gps_samples = np.zeros(n, dtype=np.int64)
        self.gps_available = np.ones(n, dtype=bool)
        self.last_gps_fix = np.zeros(n)
        self.mag_samples = np.zeros(n, dtype=np.int64)
        # Per-fire draw scratch: the IMU's six (accel, then gyro) and the
        # magnetometer's one.
        self._imu_noise = np.zeros((n, 6))
        self._mag_noise = np.zeros(n)

    def poll(self, dt: float, live: np.ndarray, lanes: List[int], pos: np.ndarray,
             vel: np.ndarray, quat: np.ndarray, omega: np.ndarray,
             rotation: np.ndarray) -> RowReadings:
        """Advance the schedule by ``dt`` and fire the due sensors on the
        ``live`` rows (``lanes`` lists them) of the rigid-body rows."""
        suite = self.suite
        imu_dt, baro, gps, mag = suite._advance(dt)
        readings = RowReadings(imu_dt)
        if imu_dt > 0.0:
            readings.accel, readings.gyro = sample_imu_rows(
                suite.imu, rotation, vel,
                self.imu_last_vel if self.imu_has_last else None,
                omega, self.accel_bias, self.gyro_bias,
                self.imu_gens, lanes, self._imu_noise, imu_dt,
            )
            self._commit(self.imu_last_vel, vel, live)
            self.imu_has_last = True
            self.imu_samples[live] += 1
        if baro:
            self.baro_samples[live] += 1
            readings.baro = sample_barometer_rows(
                suite.barometer, pos[:, 2], self.baro_frozen, self.baro_gens,
                lanes, self.baro_last_alt,
            )
        if gps:
            fix = live & self.gps_available
            readings.gps_has_fix = fix
            fixed = np.flatnonzero(fix).tolist()
            if fixed:
                readings.gps_fix = sample_gps_rows(suite.gps, pos, self.gps_gens, fixed)
                self.gps_samples[fix] += 1
            self.last_gps_fix[fix] = suite._time_s
        if mag:
            readings.mag = sample_magnetometer_rows(
                suite.magnetometer, quat, self.mag_gens, lanes, self._mag_noise
            )
            self.mag_samples[live] += 1
        return readings
