"""Unit tests: the hierarchical cascade and Table 2's time-scale separation."""

import numpy as np
import pytest

from repro.control.cascade import ControlRates, HierarchicalController
from repro.physics import constants
from repro.physics.rigid_body import QuadcopterBody, QuadcopterState


def make_controller(mass_kg: float = 1.0) -> HierarchicalController:
    body = QuadcopterBody(mass_kg=mass_kg, arm_length_m=0.225)
    return HierarchicalController(
        mass_kg=mass_kg,
        arm_length_m=0.225,
        inertia_kg_m2=body.inertia_kg_m2,
        max_thrust_per_motor_n=mass_kg * constants.GRAVITY_M_S2 / 2.0,
    )


class TestRates:
    def test_default_rates_match_table2(self):
        rates = ControlRates()
        assert rates.thrust_hz == 1000.0
        assert rates.attitude_hz == 200.0
        assert rates.position_hz == 40.0

    def test_time_scale_separation_enforced(self):
        with pytest.raises(ValueError):
            ControlRates(position_hz=500.0, attitude_hz=200.0, thrust_hz=1000.0)


class TestCascadeExecution:
    def test_update_counts_follow_table2_ratios(self):
        """Running 1 second at 1 kHz must produce ~1000/200/40 updates."""
        controller = make_controller()
        controller.set_position_target(np.array([0.0, 0.0, 2.0]))
        state = QuadcopterState()
        for _ in range(1000):
            controller.tick(state, 1e-3)
        counts = controller.update_counts()
        assert counts["thrust"] == 1000
        assert counts["attitude"] == pytest.approx(200, abs=3)
        assert counts["position"] == pytest.approx(40, abs=2)

    def test_closed_loop_reaches_position_target(self):
        controller = make_controller()
        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        controller.set_position_target(np.array([0.0, 0.0, 3.0]))
        for _ in range(6000):
            thrusts = controller.tick(body.state, 1e-3)
            body.step(thrusts, 1e-3)
        assert body.state.position_m[2] == pytest.approx(3.0, abs=0.2)

    def test_velocity_mode(self):
        controller = make_controller()
        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        body.state.position_m[2] = 5.0
        controller.set_velocity_target(np.array([1.0, 0.0, 0.0]))
        for _ in range(4000):
            thrusts = controller.tick(body.state, 1e-3)
            body.step(thrusts, 1e-3)
        assert body.state.velocity_m_s[0] == pytest.approx(1.0, abs=0.3)

    def test_reset_clears_state(self):
        controller = make_controller()
        controller.set_position_target(np.array([1.0, 0, 2.0]))
        state = QuadcopterState()
        for _ in range(100):
            controller.tick(state, 1e-3)
        controller.reset()
        assert controller.update_counts() == {
            "position": 0, "attitude": 0, "thrust": 0,
        }


class TestTable2ResponseTimes:
    """Table 2b: response times — thrust ~50 ms, attitude ~100 ms,
    position ~1 s, measured as closed-loop step responses."""

    @staticmethod
    def settle_time(times, values, target, tolerance):
        for t, v in zip(times, values):
            remaining = [
                x for tt, x in zip(times, values) if tt >= t
            ]
            if all(abs(x - target) <= tolerance for x in remaining):
                return t
        return float("inf")

    def test_attitude_response_order_100ms(self):
        """The cascade's attitude level at 200 Hz over its thrust level at
        1 kHz, holding hover thrust through a roll step."""
        controller = make_controller()
        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        hover = constants.GRAVITY_M_S2
        target = np.array([0.2, 0.0, 0.0])
        rates = controller.rates
        attitude_dt, thrust_dt = 1.0 / rates.attitude_hz, 1.0 / rates.thrust_hz
        ticks_per_attitude_update = round(rates.thrust_hz / rates.attitude_hz)
        torque = np.zeros(3)
        times, rolls = [], []
        for step in range(1000):
            if step % ticks_per_attitude_update == 0:
                torque = controller.attitude_controller.update(
                    target, body.state.euler_rad,
                    body.state.angular_velocity_rad_s, attitude_dt,
                )
            thrusts = controller.thrust_controller.update(hover, torque, thrust_dt)
            body.step(thrusts, thrust_dt)
            times.append(step * 1e-3)
            rolls.append(float(body.state.euler_rad[0]))
        settle = self.settle_time(times, rolls, 0.2, 0.04)
        assert 0.01 < settle < 0.5  # order of 100 ms

    def test_position_response_order_1s(self):
        controller = make_controller()
        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        body.state.position_m = np.array([0.0, 0.0, 5.0])
        controller.set_position_target(np.array([1.0, 0.0, 5.0]))
        times, xs = [], []
        for step in range(6000):
            thrusts = controller.tick(body.state, 1e-3)
            body.step(thrusts, 1e-3)
            times.append(step * 1e-3)
            xs.append(float(body.state.position_m[0]))
        settle = self.settle_time(times, xs, 1.0, 0.15)
        assert 0.3 < settle < 4.0  # order of 1 s

    def test_inner_loop_flops_fit_cortex_m(self):
        """Section 2.1.3-D: the whole inner loop is well under what a
        100 MHz Cortex-M sustains (~tens of MFLOPS)."""
        controller = make_controller()
        flops = controller.flops_per_second()
        assert flops < 10e6
        assert flops > 10e3
