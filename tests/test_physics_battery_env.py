"""Unit tests: LiPo battery dynamics and the environment model."""

import numpy as np
import pytest

from repro.physics import constants
from repro.physics.battery_model import BatteryDepletedError, LipoBattery
from repro.physics.environment import Environment, Wind


class TestLipoBattery:
    def make(self, **kwargs) -> LipoBattery:
        defaults = dict(cells=3, capacity_mah=3000.0, c_rating=25.0)
        defaults.update(kwargs)
        return LipoBattery(**defaults)

    def test_nominal_voltage(self):
        assert self.make().nominal_voltage_v == pytest.approx(11.1)

    def test_c_rating_current_limit(self):
        assert self.make().max_continuous_current_a == pytest.approx(75.0)

    def test_drain_limit_caps_usable_capacity(self):
        battery = self.make()
        assert battery.usable_mah == pytest.approx(3000.0 * 0.85)

    def test_draw_consumes_capacity(self):
        battery = self.make()
        battery.draw(10.0, 36.0)  # 100 mAh
        assert battery.used_mah == pytest.approx(100.0)
        assert battery.remaining_mah == pytest.approx(2550.0 - 100.0)

    def test_draw_returns_energy(self):
        battery = self.make()
        energy = battery.draw(10.0, 1.0)
        assert energy == pytest.approx(battery.terminal_voltage_v(10.0) * 10.0, rel=0.05)

    def test_draw_past_drain_limit_raises(self):
        battery = self.make(capacity_mah=100.0, c_rating=200.0)
        with pytest.raises(BatteryDepletedError):
            battery.draw(10.0, 3600.0)

    def test_overcurrent_raises(self):
        battery = self.make(capacity_mah=1000.0, c_rating=10.0)
        with pytest.raises(ValueError):
            battery.draw(50.0, 1.0)

    def test_voltage_sags_under_load(self):
        battery = self.make()
        assert battery.terminal_voltage_v(40.0) < battery.terminal_voltage_v(0.0)

    def test_voltage_drops_across_discharge(self):
        battery = self.make()
        full = battery.open_circuit_voltage_v()
        battery.used_mah = battery.usable_mah * 0.95
        nearly_empty = battery.open_circuit_voltage_v()
        assert nearly_empty < full

    def test_open_circuit_voltage_follows_every_input(self):
        # The voltage is memoized per (used_mah, capacity_mah, cells): a
        # change to any of them must recompute it.
        battery = self.make()
        readings = [battery.open_circuit_voltage_v()]
        battery.used_mah = 1500.0
        readings.append(battery.open_circuit_voltage_v())
        battery.capacity_mah = 6000.0
        readings.append(battery.open_circuit_voltage_v())
        battery.cells = 4
        readings.append(battery.open_circuit_voltage_v())
        fresh = LipoBattery(cells=4, capacity_mah=6000.0, used_mah=1500.0)
        assert len(set(readings)) == 4
        assert readings[-1] == fresh.open_circuit_voltage_v()

    def test_full_charge_is_4p2_per_cell(self):
        battery = self.make()
        assert battery.open_circuit_voltage_v() == pytest.approx(3 * 4.2, rel=1e-6)

    def test_reset_restores_full(self):
        battery = self.make()
        battery.draw(10.0, 36.0)
        battery.reset()
        assert battery.used_mah == 0.0
        assert not battery.depleted

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            LipoBattery(cells=0, capacity_mah=1000.0)
        with pytest.raises(ValueError):
            LipoBattery(cells=3, capacity_mah=-5.0)
        with pytest.raises(ValueError):
            LipoBattery(cells=3, capacity_mah=1000.0, drain_limit=1.5)

    def test_soc_never_negative(self):
        battery = self.make(capacity_mah=100.0, c_rating=200.0)
        battery.draw(1.0, 300.0)
        assert 0.0 <= battery.state_of_charge <= 1.0


class TestWind:
    def test_no_gust_returns_mean(self):
        wind = Wind(mean_m_s=(2.0, 0.0, 0.0), gust_speed_m_s=0.0)
        assert np.allclose(wind.step(0.01), [2.0, 0.0, 0.0])

    def test_gusts_are_bounded_and_nonconstant(self):
        wind = Wind(gust_speed_m_s=3.0, seed=1)
        samples = np.array([wind.step(0.02) for _ in range(500)])
        assert samples.std() > 0.1
        assert np.abs(samples).max() < 5 * 3.0

    def test_deterministic_given_seed(self):
        a = Wind(gust_speed_m_s=2.0, seed=7)
        b = Wind(gust_speed_m_s=2.0, seed=7)
        for _ in range(10):
            assert np.allclose(a.step(0.01), b.step(0.01))

    def test_reset_restores_sequence(self):
        wind = Wind(gust_speed_m_s=2.0, seed=3)
        first = [wind.step(0.01).copy() for _ in range(5)]
        wind.reset()
        second = [wind.step(0.01).copy() for _ in range(5)]
        assert all(np.allclose(x, y) for x, y in zip(first, second))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Wind(gust_speed_m_s=-1.0)
        wind = Wind()
        with pytest.raises(ValueError):
            wind.step(0.0)


class TestEnvironment:
    def test_drag_opposes_motion(self):
        env = Environment()
        velocity = np.array([3.0, 0.0, 0.0])
        drag = env.drag_force_n(velocity, 0.02)
        assert drag[0] < 0.0
        assert drag[1] == drag[2] == 0.0

    def test_drag_quadratic_in_speed(self):
        env = Environment()
        d1 = env.drag_force_n(np.array([1.0, 0, 0]), 0.02)
        d2 = env.drag_force_n(np.array([2.0, 0, 0]), 0.02)
        assert d2[0] / d1[0] == pytest.approx(4.0)

    def test_zero_velocity_zero_drag(self):
        env = Environment()
        assert np.allclose(env.drag_force_n(np.zeros(3), 0.02), 0.0)

    def test_altitude_reduces_density(self):
        assert Environment(altitude_m=3000.0).air_density < Environment().air_density

    def test_negative_cda_rejected(self):
        with pytest.raises(ValueError):
            Environment().drag_force_n(np.ones(3), -0.1)
