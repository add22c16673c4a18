"""Unit tests: propeller momentum theory and the BLDC motor model."""

import math

import pytest

from repro.physics import constants
from repro.physics.motor import (
    BldcMotor,
    MotorSaturationError,
    kt_from_kv,
    motor_mass_g_for,
    required_kv_for,
)
from repro.physics.propeller import (
    PropellerModel,
    hover_electrical_power_w,
    ideal_hover_power_w,
    max_propeller_inch_for_wheelbase,
    typical_propeller_for,
)


class TestConstants:
    def test_disk_area_of_10_inch_prop(self):
        area = constants.propeller_disk_area_m2(10.0)
        assert area == pytest.approx(math.pi * (0.127) ** 2, rel=1e-6)

    def test_disk_area_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            constants.propeller_disk_area_m2(0.0)

    def test_air_density_decreases_with_altitude(self):
        assert constants.air_density_kg_m3(2000.0) < constants.air_density_kg_m3(0.0)

    def test_air_density_sea_level(self):
        assert constants.air_density_kg_m3(0.0) == pytest.approx(1.225, rel=0.01)

    def test_air_density_rejects_stratosphere(self):
        with pytest.raises(ValueError):
            constants.air_density_kg_m3(20_000.0)

    def test_grams_newtons_roundtrip(self):
        assert constants.newtons_to_grams(
            constants.grams_to_newtons(512.0)
        ) == pytest.approx(512.0)

    def test_hover_band_below_maneuver_band(self):
        assert constants.HOVER_LOAD_FRACTION[1] < constants.MANEUVER_LOAD_FRACTION[0]


class TestMomentumTheory:
    def test_power_scales_as_thrust_1p5(self):
        area = constants.propeller_disk_area_m2(10.0)
        p1 = ideal_hover_power_w(4.0, area)
        p2 = ideal_hover_power_w(8.0, area)
        assert p2 / p1 == pytest.approx(2.0 ** 1.5, rel=1e-9)

    def test_larger_disk_needs_less_power(self):
        small = ideal_hover_power_w(5.0, constants.propeller_disk_area_m2(5.0))
        large = ideal_hover_power_w(5.0, constants.propeller_disk_area_m2(10.0))
        assert large < small

    def test_zero_thrust_zero_power(self):
        assert ideal_hover_power_w(0.0, 0.05) == 0.0

    def test_negative_thrust_rejected(self):
        with pytest.raises(ValueError):
            ideal_hover_power_w(-1.0, 0.05)

    def test_electrical_power_exceeds_ideal(self):
        thrust = constants.grams_to_newtons(500.0)
        ideal = ideal_hover_power_w(thrust, constants.propeller_disk_area_m2(10.0))
        electrical = hover_electrical_power_w(thrust, 10.0)
        assert electrical > ideal

    def test_electrical_power_validates_efficiencies(self):
        with pytest.raises(ValueError):
            hover_electrical_power_w(5.0, 10.0, figure_of_merit=1.5)
        with pytest.raises(ValueError):
            hover_electrical_power_w(5.0, 10.0, drive_efficiency=0.0)

    def test_phantom4_class_hover_power(self):
        """Validation anchor: a Phantom-4-class drone implies ~144 W."""
        per_motor = constants.grams_to_newtons(1380.0 / 4.0)
        power = 4 * hover_electrical_power_w(
            per_motor, 9.4,
            figure_of_merit=constants.HOVER_OVERALL_EFFICIENCY,
            drive_efficiency=1.0,
        )
        assert power == pytest.approx(144.0, rel=0.12)


class TestPropellerSizing:
    @pytest.mark.parametrize(
        "wheelbase,expected",
        [(50.0, 1.0), (100.0, 2.0), (200.0, 5.0), (450.0, 10.0), (800.0, 20.0)],
    )
    def test_paper_wheelbase_pairings(self, wheelbase, expected):
        assert max_propeller_inch_for_wheelbase(wheelbase) == expected

    def test_interpolated_wheelbase_monotone(self):
        sizes = [max_propeller_inch_for_wheelbase(w) for w in (150, 300, 600, 900)]
        assert sizes == sorted(sizes)

    def test_rejects_nonpositive_wheelbase(self):
        with pytest.raises(ValueError):
            max_propeller_inch_for_wheelbase(0.0)


class TestPropellerModel:
    def test_thrust_quadratic_in_speed(self):
        prop = typical_propeller_for(10.0)
        assert prop.thrust_n(200.0) / prop.thrust_n(100.0) == pytest.approx(4.0)

    def test_speed_for_thrust_inverts_thrust(self):
        prop = typical_propeller_for(10.0)
        n = prop.rev_per_s_for_thrust(5.0)
        assert prop.thrust_n(n) == pytest.approx(5.0, rel=1e-9)

    def test_1045_mass_realistic(self):
        prop = typical_propeller_for(10.0)
        assert 6.0 < prop.mass_g < 16.0

    def test_shaft_power_positive_when_spinning(self):
        prop = typical_propeller_for(5.0)
        assert prop.shaft_power_w(100.0) > 0.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            PropellerModel(diameter_inch=-1.0, pitch_inch=4.5)
        with pytest.raises(ValueError):
            PropellerModel(diameter_inch=10.0, pitch_inch=4.5, ct=0.0)

    def test_negative_speed_rejected(self):
        prop = typical_propeller_for(10.0)
        with pytest.raises(ValueError):
            prop.thrust_n(-5.0)


class TestBldcMotor:
    def test_kt_kv_duality(self):
        # Kv=1000 RPM/V -> Kt ~ 0.00955 N*m/A.
        assert kt_from_kv(1000.0) == pytest.approx(0.009549, rel=1e-3)

    def test_operating_point_solves_consistently(self):
        prop = typical_propeller_for(10.0)
        # A 3S motor for this prop with 800 g of peak thrust.
        motor = BldcMotor(kv_rpm_per_v=735.0, resistance_ohm=0.2,
                          no_load_current_a=0.35, mass_g=53.0,
                          max_current_a=12.7)
        point = motor.operating_point(
            prop, constants.grams_to_newtons(400.0), 11.1
        )
        assert point.voltage_v <= 11.1
        assert point.current_a <= motor.max_current_a
        assert point.electrical_power_w == pytest.approx(
            point.voltage_v * point.current_a
        )

    def test_saturation_raises(self):
        prop = typical_propeller_for(10.0)
        # A 3S motor for this prop with only 400 g of peak thrust.
        motor = BldcMotor(kv_rpm_per_v=520.0, resistance_ohm=0.5,
                          no_load_current_a=0.2, mass_g=36.0,
                          max_current_a=4.8)
        with pytest.raises(MotorSaturationError):
            motor.operating_point(prop, constants.grams_to_newtons(2000.0), 11.1)

    def test_required_kv_decreases_with_voltage(self):
        prop = typical_propeller_for(10.0)
        kv_3s = required_kv_for(prop, 800.0, 11.1)
        kv_6s = required_kv_for(prop, 800.0, 22.2)
        assert kv_6s == pytest.approx(kv_3s / 2.0, rel=1e-9)

    def test_small_props_need_huge_kv(self):
        """Figure 9a: 1-2 inch props on 1S need five-digit Kv ratings."""
        tiny = typical_propeller_for(1.0)
        kv = required_kv_for(tiny, 60.0, 3.7)
        assert kv > 20_000.0

    def test_motor_mass_spans_paper_range(self):
        """~5 g/motor on 100 mm frames up to ~100+ g on large frames."""
        small_kv = required_kv_for(typical_propeller_for(2.0), 120.0, 11.1)
        large_kv = required_kv_for(typical_propeller_for(20.0), 2500.0, 22.2)
        small = motor_mass_g_for(small_kv, 120.0)
        large = motor_mass_g_for(large_kv, 2500.0)
        assert 2.0 < small < 15.0
        assert 80.0 < large < 350.0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            BldcMotor(kv_rpm_per_v=0.0)
        with pytest.raises(ValueError):
            kt_from_kv(-100.0)
        with pytest.raises(ValueError):
            motor_mass_g_for(1000.0, -5.0)
