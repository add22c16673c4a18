"""Unit tests: Equations 1-7."""

import pytest

from repro.core import equations
from repro.core.equations import InfeasibleDesignError, close_weight
from repro.physics import constants


class TestEquation2MotorCurrent:
    def test_more_weight_more_current(self):
        light = equations.motor_max_current_a(800.0, 10.0, 11.1)
        heavy = equations.motor_max_current_a(1600.0, 10.0, 11.1)
        assert heavy > light
        # Current scales as weight^1.5 in momentum theory.
        assert heavy / light == pytest.approx(2.0 ** 1.5, rel=1e-6)

    def test_higher_voltage_less_current(self):
        low_v = equations.motor_max_current_a(1000.0, 10.0, 11.1)
        high_v = equations.motor_max_current_a(1000.0, 10.0, 22.2)
        assert high_v == pytest.approx(low_v / 2.0)

    def test_bigger_props_less_current(self):
        small = equations.motor_max_current_a(1000.0, 5.0, 11.1)
        large = equations.motor_max_current_a(1000.0, 10.0, 11.1)
        assert large < small


class TestEquation1WeightClosure:
    def test_closure_converges(self):
        breakdown = close_weight(450.0, 3, 3000.0)
        assert breakdown.total_g > 0
        assert breakdown.motors_g > 0
        assert breakdown.escs_g > 0

    def test_total_is_sum_of_parts(self):
        breakdown = close_weight(450.0, 3, 3000.0)
        assert breakdown.total_g == pytest.approx(
            sum(breakdown.as_dict().values())
        )

    def test_basic_weight_excludes_battery_escs_motors(self):
        """Figure 9's x-axis definition."""
        breakdown = close_weight(450.0, 3, 3000.0)
        assert breakdown.basic_weight_g == pytest.approx(
            breakdown.total_g
            - breakdown.battery_g
            - breakdown.escs_g
            - breakdown.motors_g
        )

    def test_bigger_battery_heavier_drone(self):
        small = close_weight(450.0, 3, 2000.0)
        large = close_weight(450.0, 3, 6000.0)
        assert large.total_g > small.total_g
        assert large.motors_g > small.motors_g  # induced weight growth

    def test_higher_twr_heavier_propulsion(self):
        low = close_weight(450.0, 3, 3000.0, twr=2.0)
        high = close_weight(450.0, 3, 3000.0, twr=4.0)
        assert high.motors_g > low.motors_g
        assert high.escs_g > low.escs_g

    def test_payload_propagates_to_motors(self):
        empty = close_weight(450.0, 3, 3000.0, payload_g=0.0)
        loaded = close_weight(450.0, 3, 3000.0, payload_g=500.0)
        assert loaded.motors_g > empty.motors_g

    def test_extremely_high_kv_region_infeasible(self):
        """Figure 10a's exclusion: a heavy 1S drone on tiny props."""
        with pytest.raises(InfeasibleDesignError):
            close_weight(50.0, 1, 8000.0, payload_g=800.0)

    def test_drone_weight_about_4x_frame_weight(self):
        """Figure 12's rule of thumb for a basic build."""
        breakdown = close_weight(450.0, 3, 4000.0)
        ratio = breakdown.total_g / breakdown.frame_g
        assert 2.0 < ratio < 5.0


class TestEquations3Through7:
    def test_average_power_composition(self):
        power = equations.average_power_w(
            10.0, 11.1, flying_load=0.25, compute_power_w=3.0,
            sensors_power_w=2.0,
        )
        assert power == pytest.approx(4 * 10.0 * 0.25 * 11.1 + 5.0)

    def test_load_band_ordering(self):
        hover = equations.average_power_w(10.0, 11.1, flying_load=0.25)
        maneuver = equations.average_power_w(10.0, 11.1, flying_load=0.65)
        assert maneuver / hover == pytest.approx(0.65 / 0.25)

    def test_usable_energy(self):
        energy = equations.usable_battery_energy_wh(3000.0, 3)
        assert energy == pytest.approx(3.0 * 11.1 * 0.85)

    def test_flight_time(self):
        assert equations.flight_time_min(30.0, 60.0) == pytest.approx(30.0)

    def test_compute_share(self):
        assert equations.computation_power_share(100.0, 10.0) == 0.1
        with pytest.raises(ValueError):
            equations.computation_power_share(10.0, 20.0)

    def test_gained_flight_time_eq7(self):
        # 10% share on a 18-minute flight -> 2 minutes recoverable.
        gained = equations.gained_flight_time_min(0.10, 18.0)
        assert gained == pytest.approx(2.0)

    def test_gained_time_zero_share(self):
        assert equations.gained_flight_time_min(0.0, 20.0) == 0.0

    def test_delta_power_arithmetic(self):
        """The Section 5.2 example: saving 10 W at 140 W, 15 min -> ~+1 min."""
        gained = equations.flight_time_delta_for_power_change_min(
            -10.0, 140.0, 15.0
        )
        assert gained == pytest.approx(10.0 / 130.0 * 15.0)
        lost = equations.flight_time_delta_for_power_change_min(8.0, 50.0, 15.0)
        assert lost < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            equations.average_power_w(-1.0, 11.1)
        with pytest.raises(ValueError):
            equations.average_power_w(10.0, 11.1, flying_load=1.5)
        with pytest.raises(ValueError):
            equations.usable_battery_energy_wh(1000.0, 3, power_efficiency=0.0)
        with pytest.raises(ValueError):
            equations.gained_flight_time_min(1.0, 10.0)
        with pytest.raises(ValueError):
            equations.flight_time_delta_for_power_change_min(-200.0, 100.0, 15.0)
