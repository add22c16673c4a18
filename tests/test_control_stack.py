"""Unit tests: PID, mixer, estimation, and the controller levels."""

import math

import numpy as np
import pytest

from repro.control.attitude import AttitudeController
from repro.control.estimation import InsEkf
from repro.control.mixer import MotorMixer
from repro.control.pid import PidController
from repro.control.position import (
    PositionController,
    VelocityController,
    acceleration_to_attitude_thrust,
)
from repro.control.thrust import ThrustController
from repro.physics import constants


class TestPid:
    def test_proportional_action(self):
        pid = PidController(kp=2.0)
        assert pid.update(setpoint=1.0, measurement=0.0, dt=0.01) == pytest.approx(2.0)

    def test_integral_accumulates(self):
        pid = PidController(kp=0.0, ki=1.0)
        for _ in range(100):
            output = pid.update(1.0, 0.0, 0.01)
        assert output == pytest.approx(1.0, rel=1e-6)

    def test_integral_antiwindup_clamps(self):
        pid = PidController(kp=0.0, ki=1.0, integral_limit=0.5)
        for _ in range(1000):
            output = pid.update(1.0, 0.0, 0.01)
        assert output == pytest.approx(0.5)

    def test_derivative_on_measurement_no_setpoint_kick(self):
        pid = PidController(kp=0.0, kd=1.0)
        pid.update(0.0, 0.0, 0.01)
        # A setpoint jump with constant measurement must not spike D.
        assert pid.update(10.0, 0.0, 0.01) == pytest.approx(0.0)

    def test_derivative_damps_measurement_motion(self):
        pid = PidController(kp=0.0, kd=1.0)
        pid.update(0.0, 0.0, 0.01)
        output = pid.update(0.0, 0.1, 0.01)
        assert output < 0.0

    def test_output_limits(self):
        pid = PidController(kp=100.0, output_limits=(-1.0, 1.0))
        assert pid.update(10.0, 0.0, 0.01) == 1.0
        assert pid.update(-10.0, 0.0, 0.01) == -1.0

    def test_reset(self):
        pid = PidController(kp=1.0, ki=1.0)
        pid.update(1.0, 0.0, 0.1)
        pid.reset()
        assert pid.updates == 0
        assert pid.update(0.0, 0.0, 0.1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PidController(kp=-1.0)
        with pytest.raises(ValueError):
            PidController(kp=1.0, output_limits=(1.0, -1.0))
        pid = PidController(kp=1.0)
        with pytest.raises(ValueError):
            pid.update(0.0, 0.0, 0.0)


class TestMixer:
    def make(self) -> MotorMixer:
        return MotorMixer(arm_length_m=0.225, max_thrust_per_motor_n=8.0)

    def test_pure_collective_is_even(self):
        thrusts = self.make().mix(8.0, np.zeros(3))
        assert np.allclose(thrusts, 2.0)

    def test_mix_inverts_wrench(self):
        """mix() composed with the rigid-body wrench map is identity."""
        from repro.physics.rigid_body import QuadcopterBody

        mixer = self.make()
        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        wrench_in = (6.0, np.array([0.05, -0.03, 0.004]))
        thrusts = mixer.mix(*wrench_in)
        total, torque = body.wrench_from_motor_thrusts(
            thrusts, torque_thrust_ratio_m=mixer.torque_thrust_ratio_m
        )
        assert total == pytest.approx(wrench_in[0], rel=1e-6)
        assert np.allclose(torque, wrench_in[1], atol=1e-9)

    def test_saturation_never_negative(self):
        thrusts = self.make().mix(0.5, np.array([2.0, 2.0, 0.5]))
        assert np.all(thrusts >= 0.0)
        assert np.all(thrusts <= 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MotorMixer(arm_length_m=0.0)
        with pytest.raises(ValueError):
            self.make().mix(-1.0, np.zeros(3))
        with pytest.raises(ValueError):
            self.make().mix(1.0, np.zeros(2))


class TestEkf:
    def test_static_prediction_stays_put(self):
        ekf = InsEkf()
        gravity_only = np.array([0.0, 0.0, constants.GRAVITY_M_S2])
        for _ in range(200):
            ekf.predict(gravity_only, np.zeros(3), 0.005)
        assert np.allclose(ekf.position_m, 0.0, atol=1e-6)
        assert np.allclose(ekf.attitude_rad, 0.0, atol=1e-9)

    def test_gps_pulls_position(self):
        ekf = InsEkf()
        gravity_only = np.array([0.0, 0.0, constants.GRAVITY_M_S2])
        for _ in range(120):
            ekf.predict(gravity_only, np.zeros(3), 0.01)
            ekf.update_gps(np.array([5.0, -2.0, 0.0]))
        assert ekf.position_m[0] == pytest.approx(5.0, abs=0.5)
        assert ekf.position_m[1] == pytest.approx(-2.0, abs=0.5)

    def test_barometer_pulls_altitude(self):
        ekf = InsEkf()
        gravity_only = np.array([0.0, 0.0, constants.GRAVITY_M_S2])
        for _ in range(120):
            ekf.predict(gravity_only, np.zeros(3), 0.01)
            ekf.update_barometer(10.0)
        assert ekf.position_m[2] == pytest.approx(10.0, abs=0.5)

    def test_magnetometer_pulls_yaw(self):
        ekf = InsEkf()
        for _ in range(50):
            ekf.update_magnetometer(0.8)
        assert ekf.attitude_rad[2] == pytest.approx(0.8, abs=0.05)

    def test_covariance_shrinks_with_updates(self):
        ekf = InsEkf()
        ekf.predict(np.array([0, 0, 9.80665]), np.zeros(3), 0.01)
        before = ekf.covariance[0, 0]
        ekf.update_gps(np.zeros(3))
        assert ekf.covariance[0, 0] < before

    def test_flop_accounting_grows(self):
        ekf = InsEkf()
        ekf.predict(np.array([0, 0, 9.80665]), np.zeros(3), 0.01)
        after_predict = ekf.flops
        ekf.update_barometer(0.0)
        assert ekf.flops > after_predict > 0

    def test_validation(self):
        ekf = InsEkf()
        with pytest.raises(ValueError):
            ekf.predict(np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            ekf.predict(np.zeros(2), np.zeros(3), 0.01)


class TestControllerLevels:
    def test_attitude_controller_torque_direction(self):
        controller = AttitudeController(inertia_kg_m2=np.eye(3) * 0.01)
        torque = controller.update(
            np.array([0.2, 0.0, 0.0]), np.zeros(3), np.zeros(3), 0.005
        )
        assert torque[0] > 0.0  # roll toward the target

    def test_attitude_yaw_error_wraps(self):
        controller = AttitudeController(inertia_kg_m2=np.eye(3) * 0.01)
        torque = controller.update(
            np.array([0.0, 0.0, 3.0]),
            np.array([0.0, 0.0, -3.0]),
            np.zeros(3),
            0.005,
        )
        # Shortest path from -3 rad to +3 rad is negative (through pi).
        assert torque[2] < 0.0

    @pytest.mark.parametrize("max_rate", [0.0, -1.0, float("nan")])
    def test_attitude_rate_limit_must_be_positive(self, max_rate):
        with pytest.raises(ValueError, match="max body rate"):
            AttitudeController(inertia_kg_m2=np.eye(3) * 0.01,
                               max_rate_rad_s=max_rate)

    def test_velocity_controller_accelerates_toward_target(self):
        controller = VelocityController()
        accel = controller.update(np.array([2.0, 0, 0]), np.zeros(3), 0.025)
        assert accel[0] > 0.0
        assert np.linalg.norm(accel) <= controller.max_acceleration_m_s2 + 1e-9

    def test_position_controller_caps_velocity(self):
        controller = PositionController(max_velocity_m_s=2.0)
        accel = controller.update(
            np.array([100.0, 0, 0]), np.zeros(3), np.zeros(3), 0.025
        )
        # The commanded velocity is capped, so acceleration is finite.
        assert np.linalg.norm(accel) <= controller.velocity.max_acceleration_m_s2

    def test_acceleration_to_attitude_hover(self):
        attitude, thrust = acceleration_to_attitude_thrust(
            np.zeros(3), 0.0, mass_kg=1.0
        )
        assert np.allclose(attitude, 0.0, atol=1e-9)
        assert thrust == pytest.approx(constants.GRAVITY_M_S2)

    def test_acceleration_to_attitude_tilts_forward(self):
        attitude, thrust = acceleration_to_attitude_thrust(
            np.array([2.0, 0.0, 0.0]), 0.0, mass_kg=1.0
        )
        assert attitude[1] > 0.0 or attitude[1] < 0.0  # pitched
        assert thrust > constants.GRAVITY_M_S2

    def test_tilt_limit_enforced(self):
        attitude, _ = acceleration_to_attitude_thrust(
            np.array([50.0, 0.0, 0.0]), 0.0, mass_kg=1.0,
            max_tilt_rad=math.radians(30.0),
        )
        tilt = np.linalg.norm(attitude[0:2])
        assert tilt <= math.radians(31.0)

    def test_thrust_controller_lag(self):
        mixer = MotorMixer(arm_length_m=0.225, max_thrust_per_motor_n=8.0)
        controller = ThrustController(mixer=mixer, motor_time_constant_s=0.05)
        first = controller.update(8.0, np.zeros(3), 0.001)
        assert np.all(first < 2.0)  # lag prevents instant response
        for _ in range(1000):
            settled = controller.update(8.0, np.zeros(3), 0.001)
        assert np.allclose(settled, 2.0, atol=0.01)
