"""Unit tests: sensor models and the Table 2a-rate sensor suite."""

import numpy as np
import pytest

from repro.physics import constants
from repro.physics.rigid_body import QuadcopterState, quaternion_from_euler
from repro.sensors.barometer import Barometer
from repro.sensors.gps import Gps, GpsUnavailableError
from repro.sensors.imu import Imu
from repro.sensors.magnetometer import Magnetometer
from repro.sensors.suite import TABLE2A_SENSOR_RATES_HZ, SensorSuite


def static_state(altitude: float = 0.0) -> QuadcopterState:
    state = QuadcopterState()
    state.position_m = np.array([0.0, 0.0, altitude])
    return state


class TestImu:
    def test_static_reads_gravity(self):
        imu = Imu(accel_noise_m_s2=0.0, gyro_noise_rad_s=0.0)
        state = static_state()
        accel, gyro = imu.sample(state, 0.005)
        accel, gyro = imu.sample(state, 0.005)  # second sample has velocity diff
        assert accel[2] == pytest.approx(constants.GRAVITY_M_S2)
        assert np.allclose(gyro, 0.0)

    def test_tilted_gravity_projection(self):
        imu = Imu(accel_noise_m_s2=0.0, gyro_noise_rad_s=0.0)
        state = static_state()
        state.quaternion = quaternion_from_euler(0.3, 0.0, 0.0)
        imu.sample(state, 0.005)
        accel, _ = imu.sample(state, 0.005)
        assert accel[1] == pytest.approx(np.sin(0.3) * constants.GRAVITY_M_S2, abs=1e-6)

    def test_bias_applied(self):
        imu = Imu(accel_noise_m_s2=0.0, gyro_bias_rad_s=(0.01, 0, 0),
                  gyro_noise_rad_s=0.0)
        _, gyro = imu.sample(static_state(), 0.005)
        assert gyro[0] == pytest.approx(0.01)

    def test_noise_is_deterministic_per_seed(self):
        a = Imu(seed=5)
        b = Imu(seed=5)
        sa, _ = a.sample(static_state(), 0.005)
        sb, _ = b.sample(static_state(), 0.005)
        assert np.allclose(sa, sb)

    def test_rate_in_table2a_band(self):
        low, high = TABLE2A_SENSOR_RATES_HZ["accelerometer"]
        assert low <= Imu().rate_hz <= high


class TestBarometer:
    def test_reads_altitude(self):
        baro = Barometer(noise_m=0.0)
        assert baro.sample(static_state(12.0)) == pytest.approx(12.0)

    def test_pressure_decreases_with_altitude(self):
        baro = Barometer(noise_m=0.0)
        p_low = baro.pressure_pa(static_state(0.0))
        p_high = baro.pressure_pa(static_state(100.0))
        assert p_high < p_low

    def test_rate_in_table2a_band(self):
        low, high = TABLE2A_SENSOR_RATES_HZ["barometer"]
        assert low <= Barometer().rate_hz <= high


class TestGps:
    def test_fix_near_truth(self):
        gps = Gps(horizontal_noise_m=0.0, vertical_noise_m=0.0)
        fix = gps.sample(static_state(5.0))
        assert np.allclose(fix, [0, 0, 5.0])

    def test_denied_environment_raises(self):
        gps = Gps(available=False)
        with pytest.raises(GpsUnavailableError):
            gps.sample(static_state())

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Gps(rate_hz=100.0)  # above the 40 Hz Table 2a ceiling


class TestMagnetometer:
    def test_reads_yaw(self):
        mag = Magnetometer(noise_rad=0.0)
        state = static_state()
        state.quaternion = quaternion_from_euler(0.0, 0.0, 1.0)
        assert mag.sample(state) == pytest.approx(1.0)

    def test_wraps_to_pi(self):
        mag = Magnetometer(noise_rad=0.0, hard_iron_bias_rad=3.0)
        state = static_state()
        state.quaternion = quaternion_from_euler(0.0, 0.0, 3.0)
        measured = mag.sample(state)
        assert -np.pi < measured <= np.pi


class TestSensorSuite:
    def test_rates_match_table2a(self):
        """Polling at 1 kHz for 5 s gives each sensor its Table 2a count."""
        suite = SensorSuite()
        state = static_state()
        for _ in range(5000):
            suite.poll(state, 1e-3)
        counts = suite.sample_counts()
        assert counts["imu"] == pytest.approx(5 * suite.imu.rate_hz, rel=0.02)
        assert counts["barometer"] == pytest.approx(
            5 * suite.barometer.rate_hz, rel=0.02
        )
        assert counts["gps"] == pytest.approx(5 * suite.gps.rate_hz, rel=0.05)
        assert counts["magnetometer"] == pytest.approx(50, rel=0.05)

    def test_imu_is_fastest_sensor(self):
        suite = SensorSuite()
        state = static_state()
        for _ in range(2000):
            suite.poll(state, 1e-3)
        counts = suite.sample_counts()
        assert counts["imu"] == max(counts.values())

    def test_gps_denied_yields_none(self):
        suite = SensorSuite()
        suite.gps.available = False
        readings = suite.poll(static_state(), 1e-3)
        assert readings.gps_position_m is None
        # Other sensors unaffected.
        assert readings.baro_altitude_m is not None

    def test_reset(self):
        suite = SensorSuite()
        for _ in range(100):
            suite.poll(static_state(), 1e-3)
        suite.reset()
        assert all(v == 0 for v in suite.sample_counts().values())

    def test_poll_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            SensorSuite().poll(static_state(), 0.0)
