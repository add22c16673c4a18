"""The scalar flight tick on floats against its NumPy-vector reference.

``QuadcopterBody.step``, ``wrench_from_motor_thrusts`` and
``MotorMixer.mix`` run on Python floats; ``repro.oracles`` keeps their NumPy
form.  Every pair here is ``bitwise``: states, thrusts, counters, gust
state, and raised errors.
"""

import numpy as np
import pytest

from repro import oracles
from repro.control.mixer import MotorMixer
from repro.physics.environment import Environment, Wind
from repro.physics.rigid_body import (
    QuadcopterBody,
    QuadcopterState,
    quaternion_from_euler,
)
from repro.sim.simulator import DroneModel, FlightSimulator
from tests.equivalence import (
    BITWISE,
    BODY_STEP,
    MOTOR_MIXER_MIX,
    WRENCH_FROM_MOTOR_THRUSTS,
    assert_tier,
    ticks,
)

BODY_TICKS = BODY_STEP.lift(ticks, "QuadcopterBody.step x n")


def body(**state_kwargs) -> QuadcopterBody:
    wind = state_kwargs.pop("wind", None)
    return QuadcopterBody(
        mass_kg=1.071, arm_length_m=0.159, wind=wind,
        state=QuadcopterState(**state_kwargs),
    )


def schedule(rng, hover, rows=40) -> np.ndarray:
    """Thrusts around hover, with a differential part that spins the body."""
    return hover * (1.0 + 0.3 * rng.standard_normal((rows, 4))).clip(0.0)


class TestBodyStep:
    def test_random_states_and_thrusts(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            quad = body(
                position_m=rng.uniform(0.0, 5.0, 3),
                velocity_m_s=rng.standard_normal(3) * 3.0,
                quaternion=quaternion_from_euler(*rng.uniform(-0.5, 0.5, 3)),
                angular_velocity_rad_s=rng.standard_normal(3),
            )
            hover = quad.hover_thrust_per_motor_n
            BODY_TICKS.check(quad, schedule(rng, hover, rows=5), 2e-3)

    def test_ground_contact(self):
        # z drops below the floor with vz < 0: both are clamped.
        quad = body(position_m=np.array([0.3, -0.2, 1e-4]),
                    velocity_m_s=np.array([0.5, 0.1, -2.0]))
        fast, _ = BODY_TICKS.check(quad, np.zeros((3, 4)), 1e-3)
        first = fast["states"][0]
        assert first.position_m[2] == 0.0
        assert first.velocity_m_s[2] == 0.0

    def test_zero_airspeed(self):
        # No wind and no velocity: the drag branch for speed == 0.
        quad = body()
        hover = quad.hover_thrust_per_motor_n
        BODY_STEP.check(quad, np.full(4, hover), 1e-3)

    def test_gusty_wind(self):
        rng = np.random.default_rng(5)
        wind = Wind(mean_m_s=(2.0, -1.0, 0.0), gust_speed_m_s=1.5, seed=9)
        quad = body(wind=wind, velocity_m_s=np.array([1.0, 0.5, 0.0]))
        fast, _ = BODY_TICKS.check(
            quad, schedule(rng, quad.hover_thrust_per_motor_n, rows=200), 2e-3
        )
        assert np.any(fast["gust"] != 0.0)

    @pytest.mark.parametrize(
        "rates", [(-0.0, 0.0, -0.0), (0.0, -0.0, -0.0), (1.0, -0.0, -0.0)]
    )
    def test_signed_zero_rates(self, rates):
        # I @ omega turns a -0.0 product into +0.0, and the cross product
        # carries that sign on.
        quad = body(angular_velocity_rad_s=np.array(rates))
        BODY_TICKS.check(quad, np.zeros((2, 4)), 1e-3)
        BODY_TICKS.check(quad, np.full((2, 4), 2.0), 1e-3)

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
        fast, _ = BODY_STEP.check(quad, thrusts, 1e-3)
        assert not np.signbit(fast.angular_velocity_rad_s[1])

    def test_thin_air(self):
        quad = body(velocity_m_s=np.array([4.0, 0.0, 1.0]))
        quad.environment = Environment(altitude_m=3000.0)
        BODY_STEP.check(quad, np.full(4, 3.0), 1e-3)

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
            BODY_STEP.check(body(), thrusts, dt)

    def test_drag_error_after_mutation_matches(self):
        quad = body(velocity_m_s=np.ones(3))
        quad.drag_coefficient_area = -0.1
        with pytest.raises(ValueError, match="Cd\\*A"):
            BODY_STEP.check(quad, np.ones(4), 1e-3)


class TestWrench:
    def test_random_thrusts(self):
        rng = np.random.default_rng(2)
        quad = body()
        for thrusts in rng.uniform(0.0, 8.0, (200, 4)):
            WRENCH_FROM_MOTOR_THRUSTS.check(quad, thrusts)
        WRENCH_FROM_MOTOR_THRUSTS.check(quad, thrusts, 0.03)

    def test_zero_thrusts_signed_zero(self):
        quad = body()
        for thrusts in (np.zeros(4), -np.zeros(4)):
            fast, _ = WRENCH_FROM_MOTOR_THRUSTS.check(quad, thrusts)
        assert fast[0] == 0.0


class TestMixer:
    def make(self, health=None) -> MotorMixer:
        return MotorMixer(arm_length_m=0.159, max_thrust_per_motor_n=6.0,
                          motor_health=health)

    def test_random_wrenches(self):
        rng = np.random.default_rng(7)
        mixer = self.make()
        for _ in range(300):
            MOTOR_MIXER_MIX.check(
                mixer, float(rng.uniform(0.0, 30.0)), rng.standard_normal(3) * 0.5
            )

    @pytest.mark.parametrize(
        "health", [[1.0, 0.6, 1.0, 0.3], [1.0, 0.0, 1.0, 1.0], [0.0] * 4]
    )
    def test_saturated_derated_and_dead_rotors(self, health):
        rng = np.random.default_rng(3)
        mixer = self.make(np.array(health))
        saturated = 0
        for _ in range(100):
            fast, _ = MOTOR_MIXER_MIX.check(
                mixer, float(rng.uniform(5.0, 30.0)), rng.standard_normal(3) * 0.8
            )
            saturated += fast["saturations"]
        assert saturated > 0

    def test_nan_torque_passes_through(self):
        fast, _ = MOTOR_MIXER_MIX.check(self.make(), 10.0, [np.nan, 0.0, 0.0])
        assert np.all(np.isnan(fast["thrusts"]))

    def test_zero_and_int_collective(self):
        mixer = self.make()
        MOTOR_MIXER_MIX.check(mixer, 0, np.zeros(3))
        MOTOR_MIXER_MIX.check(mixer, -0.0, np.array([0.01, -0.02, 0.0]))
        MOTOR_MIXER_MIX.check(mixer, 12, [0.1, 0.0, -0.05])

    @pytest.mark.parametrize(
        "thrust, torque, message",
        [
            (-1.0, np.zeros(3), "thrust cannot be negative, got -1.0"),
            (5.0, np.zeros(2), "3-vector"),
        ],
    )
    def test_errors_match(self, thrust, torque, message):
        with pytest.raises(ValueError, match=message):
            MOTOR_MIXER_MIX.check(self.make(), thrust, torque)


def fly(seconds=2.0):
    wind = Wind(mean_m_s=(1.5, -1.0, 0.0), gust_speed_m_s=1.5, seed=4)
    sim = FlightSimulator(
        DroneModel(mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
                   battery_capacity_mah=3000.0),
        physics_rate_hz=500.0, use_ekf=True, wind=wind,
    )
    sim.goto((2.0, 1.0, 3.0))
    sim.run_for(seconds)
    mixer = sim.controller.thrust_controller.mixer
    return {"samples": sim.samples, "state": sim.body.state,
            "ekf": sim.ekf.state, "mixes": mixer.mixes,
            "saturations": mixer.saturations}


def test_closed_loop_flight_matches_reference(monkeypatch):
    """A takeoff-and-goto EKF flight in gusts, float tick vs NumPy tick."""
    fast = fly()
    monkeypatch.setattr(QuadcopterBody, "step", oracles.quadcopter_body_step)
    monkeypatch.setattr(MotorMixer, "mix", oracles.motor_mixer_mix)
    reference = fly()
    assert_tier(fast, reference, BITWISE)
