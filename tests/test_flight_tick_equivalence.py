"""The scalar flight tick on floats against its golden vectors.

The per-tick layers of ``FlightSimulator`` (rigid body, wind, mixer,
cascade controller, EKF prediction, sensors, battery and the simulator's
own bookkeeping) run on Python floats.  Their NumPy form is not kept as a
second body: every case here replays seeded inputs and holds the result
``bitwise`` (states, thrusts, counters, gust state, raised errors) to the
bit patterns recorded from the NumPy form under
``tests/fixtures/flight_tick/``.  Each case names the host features its
bits depend on (``uses=``, see ``tests.equivalence.golden``); a case that
names none is checked on every host.
"""

import math

import numpy as np
import pytest

from repro.control.attitude import AttitudeController
from repro.control.cascade import HierarchicalController
from repro.control.estimation import InsEkf
from repro.control.mixer import MotorMixer
from repro.control.pid import clip
from repro.control.position import (
    PositionController,
    VelocityController,
    acceleration_to_attitude_thrust,
)
from repro.control.thrust import ThrustController
from repro.physics import constants
from repro.physics.battery_model import BatteryDepletedError, LipoBattery
from repro.physics.environment import Environment, Wind
from repro.physics.rigid_body import (
    QuadcopterBody,
    QuadcopterState,
    euler_from_quaternion,
    quaternion_from_euler,
    quaternion_to_rotation,
)
from repro.sensors.suite import SensorSuite
from repro.sim.simulator import DroneModel, FlightSimulator
from tests.equivalence import BITWISE, BLAS, LIBM, assert_tier, golden

GROUP = "flight_tick"
#: Cases whose bits depend on both BLAS and libm rounding.
BOTH = (BLAS, LIBM)


def ticks(body, thrust_rows, dt):
    """A body stepped through a thrust schedule: every state it passes
    through, and the gust state its wind is left in."""
    states = [body.step(thrusts, dt).copy() for thrusts in thrust_rows]
    gust = None if body.wind is None else np.array(body.wind._state, dtype=float)
    return {"states": states, "gust": gust}


#: Per-motor thrust that balances the ``body()`` airframe's weight.
HOVER_N = 1.071 * constants.GRAVITY_M_S2 / 4.0


def body(**state_kwargs) -> QuadcopterBody:
    wind = state_kwargs.pop("wind", None)
    return QuadcopterBody(
        mass_kg=1.071, arm_length_m=0.159, wind=wind,
        state=QuadcopterState(**state_kwargs),
    )


def schedule(rng, hover, rows=40) -> np.ndarray:
    """Thrusts around hover, with a differential part that spins the body."""
    return hover * (1.0 + 0.3 * rng.standard_normal((rows, 4))).clip(0.0)


def random_state(rng) -> QuadcopterState:
    return QuadcopterState(
        position_m=rng.uniform(-5.0, 5.0, 3),
        velocity_m_s=rng.standard_normal(3) * 2.0,
        quaternion=quaternion_from_euler(*rng.uniform(-0.6, 0.6, 3)),
        angular_velocity_rad_s=rng.standard_normal(3),
    )


EDGES = [-0.0, 0.0, 1.0, -1.0, 6.0, -6.0, 7.5, -7.5, math.inf, -math.inf,
         math.nan]


class TestFloatRules:
    """NumPy semantics the float code reproduces, checked against NumPy."""

    @pytest.mark.parametrize(
        "low, high", [(0.0, 6.0), (-6.0, 6.0), (0.0, 0.0), (-0.0, 0.0)]
    )
    def test_clip_is_np_clip_with_array_bounds(self, low, high):
        for value in EDGES:
            clipped = np.clip(np.array([value]), np.array([low]), np.array([high]))
            assert_tier(clip(value, low, high), float(clipped[0]), BITWISE,
                        path=f"clip({value}, {low}, {high})")
            if low != 0.0 and high != 0.0:
                # Scalar bounds agree away from a signed-zero bound.
                assert_tier(clip(value, low, high),
                            float(np.clip(value, low, high)), BITWISE)

    def test_norm_is_sqrt_of_dot(self):
        rng = np.random.default_rng(111)
        for vector in rng.standard_normal((500, 3)) * rng.uniform(0.0, 50.0,
                                                                   (500, 1)):
            assert_tier(math.sqrt(vector.dot(vector)),
                        float(np.linalg.norm(vector)), BITWISE)


class TestBodyStep:
    def test_random_states_and_thrusts(self):
        rng = np.random.default_rng(11)
        runs = []
        for _ in range(50):
            quad = body(
                position_m=rng.uniform(0.0, 5.0, 3),
                velocity_m_s=rng.standard_normal(3) * 3.0,
                quaternion=quaternion_from_euler(*rng.uniform(-0.5, 0.5, 3)),
                angular_velocity_rad_s=rng.standard_normal(3),
            )
            runs.append(ticks(quad, schedule(rng, HOVER_N, rows=5), 2e-3))
        golden(f"{GROUP}/body/random", lambda: runs, uses=BOTH)

    def test_ground_contact(self):
        # z drops below the floor with vz < 0: both are clamped.
        quad = body(position_m=np.array([0.3, -0.2, 1e-4]),
                    velocity_m_s=np.array([0.5, 0.1, -2.0]))
        result = golden(f"{GROUP}/body/ground", ticks, quad, np.zeros((3, 4)), 1e-3,
                        uses=BOTH)
        first = result["states"][0]
        assert first.position_m[2] == 0.0
        assert first.velocity_m_s[2] == 0.0

    def test_zero_airspeed(self):
        # No wind and no velocity: the drag branch for speed == 0.
        quad = body()
        golden(f"{GROUP}/body/zero_airspeed", quad.step, np.full(4, HOVER_N), 1e-3,
               uses=BOTH)

    def test_gusty_wind(self):
        rng = np.random.default_rng(5)
        wind = Wind(mean_m_s=(2.0, -1.0, 0.0), gust_speed_m_s=1.5, seed=9)
        quad = body(wind=wind, velocity_m_s=np.array([1.0, 0.5, 0.0]))
        result = golden(
            f"{GROUP}/body/gusty", ticks, quad,
            schedule(rng, HOVER_N, rows=200), 2e-3,
            uses=BOTH,
        )
        assert np.any(result["gust"] != 0.0)

    @pytest.mark.parametrize(
        "rates", [(-0.0, 0.0, -0.0), (0.0, -0.0, -0.0), (1.0, -0.0, -0.0)]
    )
    def test_signed_zero_rates(self, rates):
        # I @ omega turns a -0.0 product into +0.0, and the cross product
        # carries that sign on.
        def run():
            return [
                ticks(body(angular_velocity_rad_s=np.array(rates)), rows, 1e-3)
                for rows in (np.zeros((2, 4)), np.full((2, 4), 2.0))
            ]

        golden(f"{GROUP}/body/signed_zero_{rates}", run, uses=BOTH)

    def test_zero_residual_on_zero_rate_follows_lapack(self):
        # Rotors 1 and 3 whose pitch torque cancels to exactly zero while
        # yaw is negative: LAPACK returns +0.0 for the pitch rate change
        # where the division gives -0.0, and a -0.0 rate keeps that sign.
        quad = QuadcopterBody(
            mass_kg=1.0, arm_length_m=0.2,
            state=QuadcopterState(angular_velocity_rad_s=np.array([0.0, -0.0, 0.0])),
        )
        third = 1.0
        for _ in range(8):
            third = np.nextafter(third, 2.0)
            thrusts = np.array([1.0, 0.0, third, 0.0])
            _, torque = quad.wrench_from_motor_thrusts(thrusts)
            if torque[1] == 0.0 and torque[2] < 0.0:
                break
        else:
            pytest.fail("no pitch-cancelling thrusts near 1 N")
        state = golden(f"{GROUP}/body/lapack_zero", quad.step, thrusts, 1e-3, uses=BOTH)
        assert not np.signbit(state.angular_velocity_rad_s[1])

    def test_thin_air(self):
        quad = body(velocity_m_s=np.array([4.0, 0.0, 1.0]))
        quad.environment = Environment(altitude_m=3000.0)
        golden(f"{GROUP}/body/thin_air", quad.step, np.full(4, 3.0), 1e-3, uses=BOTH)

    @pytest.mark.parametrize(
        "thrusts, dt, message",
        [
            (np.array([1.0, 1.0, 1.0, -0.5]), 1e-3, "negative"),
            (np.ones(3), 1e-3, "4 motor thrusts"),
            (np.ones(4), 0.0, "dt must be positive"),
        ],
    )
    def test_errors_match(self, thrusts, dt, message):
        with pytest.raises(ValueError, match=message):
            golden(f"{GROUP}/body/error_{message}", body().step, thrusts, dt)

    def test_drag_error_after_mutation_matches(self):
        quad = body(velocity_m_s=np.ones(3))
        quad.drag_coefficient_area = -0.1
        with pytest.raises(ValueError, match="Cd\\*A"):
            golden(f"{GROUP}/body/error_drag", quad.step, np.ones(4), 1e-3)


class TestWrench:
    def test_random_thrusts(self):
        rng = np.random.default_rng(2)
        quad = body()
        rows = rng.uniform(0.0, 8.0, (200, 4))
        golden(f"{GROUP}/body/wrench_random",
               lambda: [quad.wrench_from_motor_thrusts(t) for t in rows]
               + [quad.wrench_from_motor_thrusts(rows[-1], 0.03)], uses=(LIBM,))

    def test_zero_thrusts_signed_zero(self):
        quad = body()
        result = golden(f"{GROUP}/body/wrench_zero",
                        lambda: [quad.wrench_from_motor_thrusts(t)
                                 for t in (np.zeros(4), -np.zeros(4))], uses=(LIBM,))
        assert result[-1][0] == 0.0


def mixes(mixer, wrenches):
    """Every mix's thrusts, then the allocation counters they bump."""
    thrusts = [mixer.mix(total, torque) for total, torque in wrenches]
    return {"thrusts": thrusts, "mixes": mixer.mixes,
            "saturations": mixer.saturations}


class TestMixer:
    def make(self, health=None) -> MotorMixer:
        return MotorMixer(arm_length_m=0.159, max_thrust_per_motor_n=6.0,
                          motor_health=health)

    def test_random_wrenches(self):
        rng = np.random.default_rng(7)
        wrenches = [
            (float(rng.uniform(0.0, 30.0)), rng.standard_normal(3) * 0.5)
            for _ in range(300)
        ]
        golden(f"{GROUP}/mixer/random", mixes, self.make(), wrenches, uses=BOTH)

    @pytest.mark.parametrize(
        "health", [[1.0, 0.6, 1.0, 0.3], [1.0, 0.0, 1.0, 1.0], [0.0] * 4]
    )
    def test_saturated_derated_and_dead_rotors(self, health):
        rng = np.random.default_rng(3)
        wrenches = [
            (float(rng.uniform(5.0, 30.0)), rng.standard_normal(3) * 0.8)
            for _ in range(100)
        ]
        result = golden(f"{GROUP}/mixer/health_{health}", mixes,
                        self.make(np.array(health)), wrenches, uses=BOTH)
        assert result["saturations"] > 0

    def test_nan_torque_passes_through(self):
        result = golden(f"{GROUP}/mixer/nan", mixes, self.make(),
                        [(10.0, [np.nan, 0.0, 0.0])], uses=BOTH)
        assert np.all(np.isnan(result["thrusts"][0]))

    def test_zero_and_int_collective(self):
        golden(f"{GROUP}/mixer/zero_int", mixes, self.make(), [
            (0, np.zeros(3)),
            (-0.0, np.array([0.01, -0.02, 0.0])),
            (12, [0.1, 0.0, -0.05]),
        ], uses=BOTH)

    @pytest.mark.parametrize(
        "thrust, torque, message",
        [
            (-1.0, np.zeros(3), "thrust cannot be negative, got -1.0"),
            (5.0, np.zeros(2), "3-vector"),
        ],
    )
    def test_errors_match(self, thrust, torque, message):
        with pytest.raises(ValueError, match=message):
            golden(f"{GROUP}/mixer/error_{message}", self.make().mix, thrust, torque)


def attitude_run(controller, rows, dt):
    """Torques of a sequence of updates, then the update count."""
    torques = [controller.update(t, a, r, dt) for t, a, r in rows]
    return {"torques": torques, "updates": controller.updates}


class TestAttitudeController:
    def make(self) -> AttitudeController:
        return AttitudeController(inertia_kg_m2=np.diag([0.009, 0.009, 0.017]))

    def test_random_sequence(self):
        rng = np.random.default_rng(21)
        scale = np.array([1.0, 1.0, 5.0])
        rows = [
            (rng.uniform(-0.6, 0.6, 3) * scale, rng.uniform(-0.6, 0.6, 3) * scale,
             rng.standard_normal(3))
            for _ in range(200)
        ]
        golden(f"{GROUP}/controller/attitude_random", attitude_run, self.make(),
               rows, 5e-3, uses=(BLAS,))

    def test_signed_zeros_and_nan(self):
        zero, nzero = np.zeros(3), -np.zeros(3)
        rows = [
            (zero, nzero, nzero), (nzero, zero, zero), (nzero, nzero, nzero),
            (np.array([np.nan, 0.0, 0.0]), zero, zero),
            (zero, np.array([0.0, 0.0, np.nan]), zero),
            (zero, zero, np.array([0.0, np.nan, 0.0])),
        ]
        # Each row on a fresh controller: a NaN poisons the PID integral.
        golden(f"{GROUP}/controller/attitude_zeros_nan",
               lambda: [attitude_run(self.make(), [row], 5e-3) for row in rows],
               uses=(BLAS,))

    def test_clip_bounds_and_yaw_wrap(self):
        pi = math.pi
        rows = [
            (np.array([2.0, -2.0, 0.0]), np.zeros(3), np.zeros(3)),
            (np.array([-2.0, 2.0, 3.0]), np.zeros(3), np.zeros(3)),
            (np.array([0.0, 0.0, pi]), np.array([0.0, 0.0, -pi]), np.zeros(3)),
            (np.array([0.0, 0.0, -pi]), np.array([0.0, 0.0, pi]), np.zeros(3)),
            (np.array([0.0, 0.0, pi]), np.zeros(3), np.zeros(3)),
            (np.array([0.0, 0.0, -pi]), np.zeros(3), np.zeros(3)),
            (np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, -3.0]), np.zeros(3)),
            (np.array([6.0 / 9.0, -6.0 / 9.0, 0.0]), np.zeros(3), np.ones(3)),
        ]
        golden(f"{GROUP}/controller/attitude_clip_wrap",
               lambda: [attitude_run(self.make(), [row], 5e-3) for row in rows],
               uses=(BLAS,))

    @pytest.mark.parametrize("case", ["dt", "shape"])
    def test_errors_match(self, case):
        dt, target = (0.0, np.zeros(3)) if case == "dt" else (5e-3, np.zeros(2))
        with pytest.raises(ValueError):
            golden(f"{GROUP}/controller/attitude_error_{case}", self.make().update,
                   target, np.zeros(3), np.zeros(3), dt)


class TestPositionLevel:
    def test_position_and_velocity_sequences(self):
        rng = np.random.default_rng(31)
        position, velocity = PositionController(), VelocityController()

        def run():
            out = []
            for _ in range(120):
                scale = rng.choice([0.1, 1.0, 20.0])
                out.append(position.update(rng.standard_normal(3) * scale,
                                           rng.standard_normal(3),
                                           rng.standard_normal(3), 0.025))
                out.append(velocity.update(rng.standard_normal(3) * scale,
                                           rng.standard_normal(3), 0.025))
            return {"accelerations": out, "updates": (position.updates,
                                                      velocity.updates)}

        golden(f"{GROUP}/controller/position_sequences", run, uses=(BLAS,))

    def test_signed_zeros_and_nan(self):
        zero, nzero = np.zeros(3), -np.zeros(3)
        nan = np.array([np.nan, 1.0, 0.0])

        def run():
            return [
                PositionController().update(zero, nzero, nzero, 0.025),
                PositionController().update(nzero, zero, zero, 0.025),
                PositionController().update(nan, zero, zero, 0.025),
                VelocityController().update(nzero, zero, 0.025),
                VelocityController().update(zero, nan, 0.025),
            ]

        golden(f"{GROUP}/controller/position_zeros_nan", run, uses=(BLAS,))

    def test_errors_match(self):
        with pytest.raises(ValueError):
            golden(f"{GROUP}/controller/position_error_dt", PositionController().update,
                   np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            golden(f"{GROUP}/controller/velocity_error_dt", VelocityController().update,
                   np.zeros(3), np.zeros(3), -1.0)


class TestAccelerationToAttitude:
    def test_random_accelerations_and_tilt_cone(self):
        rng = np.random.default_rng(41)
        rows = [(rng.standard_normal(3) * rng.choice([0.5, 4.0, 30.0]),
                 float(rng.uniform(-math.pi, math.pi))) for _ in range(300)]
        golden(f"{GROUP}/controller/accel_random",
               lambda: [acceleration_to_attitude_thrust(a, yaw, 1.071)
                        for a, yaw in rows], uses=BOTH)

    def test_edges(self):
        g = constants.GRAVITY_M_S2
        rows = [
            (np.array([0.0, 0.0, -g]), 0.3),  # zero thrust: early return
            (np.array([-0.0, 0.0, 0.0]), -0.0),
            (np.array([0.0, -0.0, -0.0]), 0.0),
            (np.array([50.0, 0.0, -g]), 0.0),  # far outside the cone
            (np.array([0.0, 0.0, -40.0]), 1.0),  # thrust axis pointing down
            (np.array([np.nan, 0.0, 0.0]), 0.0),
            (np.array([3.0, 4.0, 0.0]), math.pi),
        ]
        golden(f"{GROUP}/controller/accel_edges",
               lambda: [acceleration_to_attitude_thrust(a, yaw, 2.0)
                        for a, yaw in rows], uses=BOTH)

    @pytest.mark.parametrize("case", ["heading", "mass", "tilt", "shape"])
    def test_errors_match(self, case):
        g = constants.GRAVITY_M_S2
        args = {
            # A horizontal thrust axis along the heading, on a cone opened
            # to just under pi/2: the roll axis degenerates.
            "heading": ([50.0, 0.0, -g], 0.0, 1.0, math.pi / 2 - 1e-12),
            "mass": ([0.0, 0.0, 0.0], 0.0, 0.0),
            "tilt": ([0.0, 0.0, 0.0], 0.0, 1.0, math.pi / 2),
            "shape": ([0.0, 0.0], 0.0, 1.0),
        }[case]
        with pytest.raises(ValueError):
            golden(f"{GROUP}/controller/accel_error_{case}",
                   acceleration_to_attitude_thrust, np.array(args[0]), *args[1:],
                   uses=BOTH if case == "heading" else ())


class TestThrustController:
    def test_lag_sequence(self):
        rng = np.random.default_rng(51)
        controller = ThrustController(
            mixer=MotorMixer(arm_length_m=0.159, max_thrust_per_motor_n=6.0)
        )

        def run():
            out = [controller.update(float(rng.uniform(0.0, 30.0)),
                                     rng.standard_normal(3) * 0.3, 2e-3)
                   for _ in range(200)]
            out.append(controller.update(0.0, -np.zeros(3), 1e-3))
            out.append(controller.motor_thrusts_n)
            return {"thrusts": out, "updates": controller.updates}

        golden(f"{GROUP}/controller/thrust_lag", run, uses=BOTH)


def cascade_run(controller, rng, count, dt):
    thrusts = [controller.tick(random_state(rng), dt) for _ in range(count)]
    return {"thrusts": thrusts, "counts": controller.update_counts()}


class TestCascade:
    def make(self) -> HierarchicalController:
        return HierarchicalController(
            mass_kg=1.071, arm_length_m=0.159,
            inertia_kg_m2=np.diag([0.009, 0.009, 0.017]),
            max_thrust_per_motor_n=6.0,
        )

    @pytest.mark.parametrize("mode", ["position", "velocity"])
    def test_modes(self, mode):
        rng = np.random.default_rng(61)
        controller = self.make()
        if mode == "position":
            controller.set_position_target([2.0, -1.0, 3.0], yaw_rad=0.4)
        else:
            controller.set_velocity_target([1.0, 0.5, -0.2], yaw_rad=-0.3)
        first = golden(f"{GROUP}/controller/cascade_{mode}", cascade_run,
                       controller, rng, 150, 2e-3, uses=BOTH)
        controller.reset()
        second = golden(f"{GROUP}/controller/cascade_{mode}_after_reset", cascade_run,
                        controller, rng, 20, 1e-3, uses=BOTH)
        assert first["counts"]["thrust"] == 150 and second["counts"]["thrust"] == 20

    def test_error_matches(self):
        with pytest.raises(ValueError):
            golden(f"{GROUP}/controller/cascade_error_dt", self.make().tick,
                   QuadcopterState(), 0.0)


class TestEkfPredict:
    def test_random_sequence(self):
        rng = np.random.default_rng(71)
        ekf = InsEkf()

        def run():
            states = []
            for _ in range(100):
                ekf.predict(rng.standard_normal(3) + [0.0, 0.0, 9.8],
                            rng.standard_normal(3) * 0.5, 5e-3)
                states.append(ekf.state.copy())
            return {"states": states, "covariance": ekf.covariance,
                    "counters": (ekf.flops, ekf.predictions)}

        golden(f"{GROUP}/ekf/predict_random", run, uses=BOTH)

    def test_signed_zeros_and_gimbal_lock(self):
        def run():
            out = []
            for attitude in ([-0.0, 0.0, -0.0], [0.3, math.pi / 2, 3.1],
                             [0.0, -math.pi / 2, -math.pi]):
                ekf = InsEkf()
                ekf.state[6:9] = attitude
                ekf.predict(-np.zeros(3), np.array([-0.0, 0.0, 0.2]), 5e-3)
                out.append(ekf.state)
            return out

        golden(f"{GROUP}/ekf/predict_edges", run, uses=BOTH)

    def test_overflow_raises(self):
        ekf = InsEkf()
        ekf.state[0] = 1.7976931348623157e308
        ekf.state[3] = 1e308
        with pytest.raises(FloatingPointError):
            golden(f"{GROUP}/ekf/predict_overflow", ekf.predict, np.zeros(3),
                   np.zeros(3), 0.5, uses=BOTH)

    @pytest.mark.parametrize("case", ["dt", "shape"])
    def test_errors_match(self, case):
        dt, accel = (0.0, np.zeros(3)) if case == "dt" else (5e-3, np.zeros(4))
        with pytest.raises(ValueError):
            golden(f"{GROUP}/ekf/predict_error_{case}", InsEkf().predict,
                   accel, np.zeros(3), dt)


def sensor_poll_run(suite, rng, count, dt):
    readings = [suite.poll(random_state(rng), dt) for _ in range(count)]
    return {"readings": readings, "counts": suite.sample_counts(),
            "fix_age": suite.gps_fix_age_s()}


class TestSensors:
    @pytest.mark.parametrize(
        "case", ["nominal", "gps_denied", "frozen_baro", "imu_biased"]
    )
    def test_poll(self, case):
        rng = np.random.default_rng(81)
        suite = SensorSuite()
        if case == "gps_denied":
            suite.gps.available = False
        elif case == "frozen_baro":
            suite.barometer.frozen = True
        elif case == "imu_biased":
            suite.imu.accel_bias_m_s2 = (0.3, -0.2, 0.1)
            suite.imu.gyro_bias_rad_s = (0.01, -0.02, 0.005)
        golden(f"{GROUP}/sensors/poll_{case}", sensor_poll_run, suite, rng,
               100, 5e-3, uses=BOTH)

    def test_poll_error_matches(self):
        with pytest.raises(ValueError):
            golden(f"{GROUP}/sensors/poll_error", SensorSuite().poll,
                   QuadcopterState(), 0.0)

    def test_quaternion_to_rotation(self):
        # Unit quaternions normalized on floats, not by quaternion_from_euler:
        # no libm in the inputs, so every host checks this case.
        rng = np.random.default_rng(92)
        quats = []
        for w, x, y, z in rng.standard_normal((100, 4)).tolist():
            norm = math.sqrt(w * w + x * x + y * y + z * z)
            quats.append(np.array([w / norm, x / norm, y / norm, z / norm]))
        quats += [np.array(q, dtype=float) for q in (
            [1.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0],
            [np.nan, 0.0, 0.0, 0.0], [2.0, 1.0, -1.0, 0.5],
        )]
        golden(f"{GROUP}/sensors/quaternion_rotation",
               lambda: [quaternion_to_rotation(q) for q in quats])

    def test_quaternion_conversions(self):
        rng = np.random.default_rng(91)
        quats = [quaternion_from_euler(*rng.uniform(-3.0, 3.0, 3))
                 for _ in range(100)]
        quats += [np.array(q, dtype=float) for q in (
            [1.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0],
            [math.sqrt(0.5), 0.0, math.sqrt(0.5) + 1e-12, 0.0],
            [math.sqrt(0.5), 0.0, -math.sqrt(0.5) - 1e-12, 0.0],
            [np.nan, 0.0, 0.0, 0.0], [2.0, 1.0, -1.0, 0.5],
        )]
        golden(f"{GROUP}/sensors/quaternion_conversions",
               lambda: [(quaternion_to_rotation(q), euler_from_quaternion(q))
                        for q in quats], uses=(LIBM,))


class TestWind:
    def test_gust_steps(self):
        def run():
            out = []
            for wind in (Wind(mean_m_s=(2.0, -1.0, 0.5), gust_speed_m_s=1.5,
                              seed=9),
                         Wind(mean_m_s=(-0.0, 0.0, 1.0))):
                out.append([wind.step(dt) for dt in (2e-3, 1e-3, 0.5) * 20])
            return out

        golden(f"{GROUP}/body/wind_steps", run, uses=(LIBM,))

    def test_error_matches(self):
        with pytest.raises(ValueError):
            golden(f"{GROUP}/body/wind_error_dt", Wind(gust_speed_m_s=1.0).step, 0.0)


class TestBattery:
    def test_discharge_curve(self):
        battery = LipoBattery(cells=3, capacity_mah=3000.0, c_rating=40.0,
                              drain_limit=1.0, fault_resistance_ohm=0.01)

        def run():
            out = []
            for used in (0.0, 150.0, 300.0, 301.0, 1500.0, 2549.0, 2550.0,
                         2700.0, 2999.0, 3000.0):
                battery.used_mah = used
                out.append((battery.open_circuit_voltage_v(),
                            battery.terminal_voltage_v(0.0),
                            battery.terminal_voltage_v(35.0),
                            battery.terminal_voltage_v(1e6),
                            battery.state_of_charge))
            return out

        golden(f"{GROUP}/sim/battery_curve", run)

    def test_draws(self):
        battery = LipoBattery(cells=4, capacity_mah=1500.0, c_rating=40.0)

        def run():
            out = [battery.draw(current, 0.002) for current in
                   (0.0, 12.5, 60.0, 65.9)]
            out.append(battery.draw(20.0, 30.0))
            return {"energies": out, "used_mah": battery.used_mah}

        golden(f"{GROUP}/sim/battery_draws", run)

    @pytest.mark.parametrize("case", ["negative", "c_rating", "depleted"])
    def test_draw_errors_match(self, case):
        battery = LipoBattery(cells=3, capacity_mah=3000.0, c_rating=40.0)
        battery.used_mah = 2549.0
        current, duration, error = {
            "negative": (-1.0, 0.002, ValueError),
            "c_rating": (200.0, 0.002, ValueError),
            "depleted": (100.0, 60.0, BatteryDepletedError),
        }[case]
        with pytest.raises(error):
            golden(f"{GROUP}/sim/battery_draw_error_{case}", battery.draw,
                   current, duration)


def model_450(**kwargs) -> DroneModel:
    return DroneModel(mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
                      battery_capacity_mah=3000.0, **kwargs)


def flight_result(sim):
    mixer = sim.controller.thrust_controller.mixer
    return {
        "samples": sim.samples, "state": sim.body.state, "time": sim.time_s,
        "ekf": sim.ekf.state, "covariance": sim.ekf.covariance,
        "ekf_counters": (sim.ekf.flops, sim.ekf.predictions,
                         sim.ekf.corrections, sim.ekf_resets),
        "used_mah": sim.battery.used_mah, "depleted": sim.depleted,
        "mixer": (mixer.mixes, mixer.saturations),
        "controller": sim.controller.update_counts(),
        "sensors": sim.sensors.sample_counts(),
    }


def fly(seconds=2.0, use_ekf=True, setup=None, rate_hz=500.0):
    wind = Wind(mean_m_s=(1.5, -1.0, 0.0), gust_speed_m_s=1.5, seed=4)
    sim = FlightSimulator(model_450(), physics_rate_hz=rate_hz,
                          use_ekf=use_ekf, wind=wind)
    sim.goto((2.0, 1.0, 3.0))
    if setup is not None:
        setup(sim)
    sim.run_for(seconds)
    return flight_result(sim)


def test_closed_loop_flight_matches_reference():
    """A takeoff-and-goto EKF flight in gusts."""
    golden(f"{GROUP}/sim/flight_ekf_gusts", fly, uses=BOTH)


def _gps_denied(sim):
    sim.sensors.gps.available = False


def _frozen_baro(sim):
    sim.sensors.barometer.frozen = True


def _velocity_mode(sim):
    sim.set_velocity((1.0, -0.5, 0.8), yaw_rad=0.5)


def _low_battery(sim):
    # Below the 15% knee of the discharge curve, drain limit lifted.
    sim.battery.drain_limit = 1.0
    sim.battery.used_mah = 0.88 * sim.battery.capacity_mah


def _depleting_battery(sim):
    sim.battery.used_mah = sim.battery.usable_mah - 0.2


def _ekf_rollback(sim):
    # A NaN barometer: every altitude correction goes non-finite and the
    # filter rolls back to its pre-tick state.
    sim.sensors.barometer.bias_m = float("nan")


def _low_rate(sim):
    sim.goto((1.0, 0.0, 1.0), yaw_rad=-0.5)


def _nan_target(sim):
    # NaN thrust commands pass the thrust ceiling and reach the body.
    sim.goto((float("nan"), 0.0, 1.0))


@pytest.mark.parametrize(
    "case, use_ekf, setup, rate_hz",
    [
        ("gps_denied", True, _gps_denied, 500.0),
        ("frozen_baro", True, _frozen_baro, 500.0),
        ("velocity_mode", False, _velocity_mode, 500.0),
        ("low_battery", False, _low_battery, 500.0),
        ("depleting_battery", False, _depleting_battery, 500.0),
        ("ekf_rollback", True, _ekf_rollback, 500.0),
        ("truth_200hz", False, _low_rate, 200.0),
        ("nan_target", False, _nan_target, 500.0),
    ],
)
def test_golden_flights(case, use_ekf, setup, rate_hz):
    result = golden(f"{GROUP}/sim/flight_{case}", fly, 0.5, use_ekf, setup, rate_hz,
                    uses=BOTH, nan_sign=case != "nan_target")
    if case == "ekf_rollback":
        assert result["ekf_counters"][3] > 0
    if case == "depleting_battery":
        assert result["depleted"]
    if case == "nan_target":
        assert np.isnan(result["samples"][-1].motor_thrusts_n).all()


def test_electrical_power():
    sim = FlightSimulator(model_450())
    rng = np.random.default_rng(101)
    rows = [rng.uniform(-1.0, 8.0, 4) for _ in range(50)]
    rows += [np.zeros(4), -np.zeros(4), np.array([np.nan, 1.0, 2.0, 3.0]),
             [1, 2, 3, 4], np.array([np.inf, 0.0, 0.0, 0.0])]
    golden(f"{GROUP}/sim/electrical_power",
           lambda: [sim.electrical_power_w(t) for t in rows])
