"""The full on-board sensor suite, scheduled at Table 2a data rates.

:class:`SensorSuite` owns one of each on-board sensor and exposes a single
``poll`` that fires each sensor when its period elapses — mirroring how the
flight controller's acquisition code services sensors at different rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.markers import hot_path
from repro.sensors.barometer import Barometer
from repro.sensors.gps import Gps, GpsUnavailableError
from repro.sensors.imu import Imu
from repro.sensors.magnetometer import Magnetometer
from repro.physics.rigid_body import QuadcopterState

#: Table 2a — common data frequencies of on-board sensors.
TABLE2A_SENSOR_RATES_HZ = {
    "accelerometer": (100.0, 200.0),
    "gyroscope": (100.0, 200.0),
    "magnetometer": (10.0, 10.0),
    "barometer": (10.0, 20.0),
    "gps": (1.0, 40.0),
}


@dataclass
class SensorReadings:
    """Whatever fired during one poll; None means that sensor was not due."""

    accel_body_m_s2: Optional[np.ndarray] = None
    gyro_rad_s: Optional[np.ndarray] = None
    baro_altitude_m: Optional[float] = None
    gps_position_m: Optional[np.ndarray] = None
    mag_yaw_rad: Optional[float] = None

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

    def __post_init__(self) -> None:
        self._due = {"imu": 0.0, "baro": 0.0, "gps": 0.0, "mag": 0.0}

    def gps_fix_age_s(self) -> float:
        """Seconds since the last successful GPS fix (0 before any polling).

        This is the signal the autopilot's GPS-loss failsafe watches: a
        denied/indoor receiver keeps getting polled but produces no fix, so
        the age keeps growing.
        """
        return self._time_s - self._last_gps_fix_s

    @hot_path
    def poll(self, state: QuadcopterState, dt: float) -> SensorReadings:
        """Advance time by ``dt`` and fire every sensor whose period elapsed."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._time_s += dt
        now = self._time_s
        due = self._due
        readings = SensorReadings()
        # Deadlines advance by whole periods from the previous deadline (not
        # from "now"), so floating-point grid beating cannot stretch the
        # effective period.
        if now + 1e-12 >= due["imu"]:
            period = self.imu.period_s
            due["imu"] = max(due["imu"] + period, now)
            readings.accel_body_m_s2, readings.gyro_rad_s = self.imu.sample(
                state, period
            )
        if now + 1e-12 >= due["baro"]:
            due["baro"] = max(due["baro"] + self.barometer.period_s, now)
            readings.baro_altitude_m = self.barometer.sample(state)
        if now + 1e-12 >= due["gps"]:
            due["gps"] = max(due["gps"] + self.gps.period_s, now)
            try:
                readings.gps_position_m = self.gps.sample(state)
                self._last_gps_fix_s = now
            except GpsUnavailableError:
                readings.gps_position_m = None
        if now + 1e-12 >= due["mag"]:
            due["mag"] = max(due["mag"] + self.magnetometer.period_s, now)
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
