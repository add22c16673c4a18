"""Unit tests: component spec classes (battery, ESC, frame, motor,
propeller, compute boards, external sensors)."""

import pytest

from repro.components.battery import (
    FIG7_WEIGHT_FITS,
    BatterySpec,
    battery_weight_g,
    make_battery,
)
from repro.components.compute import (
    ADVANCED_CHIP_POWER_W,
    BASIC_CHIP_POWER_W,
    BoardClass,
    boards_by_class,
    find_board,
    table4_flight_controllers,
)
from repro.components.esc import (
    EscClass,
    esc_set_weight_g,
    esc_unit_weight_g,
    make_esc,
)
from repro.components.frame import (
    FrameSpec,
    frame_weight_g,
    make_frame,
)
from repro.components.motor import design_motor_product
from repro.components.propeller import propeller_set_weight_g
from repro.components.sensors import (
    SensorKind,
    find_sensor,
    table4_external_sensors,
)


class TestBatterySpecs:
    def test_fig7_fit_coefficients_match_paper(self):
        assert FIG7_WEIGHT_FITS[6].slope == pytest.approx(0.116)
        assert FIG7_WEIGHT_FITS[6].intercept == pytest.approx(159.117)
        assert FIG7_WEIGHT_FITS[1].slope == pytest.approx(0.019)

    def test_weight_model_3s_5000(self):
        assert battery_weight_g(3, 5000.0) == pytest.approx(
            0.074 * 5000.0 + 16.935
        )

    def test_more_cells_heavier_at_same_capacity(self):
        assert battery_weight_g(6, 4000.0) > battery_weight_g(3, 4000.0)

    def test_unsupported_cells_raise(self):
        with pytest.raises(ValueError):
            battery_weight_g(8, 1000.0)

    def test_spec_derived_quantities(self):
        battery = make_battery(3, 3000.0, c_rating=30.0)
        assert battery.configuration == "3S1P"
        assert battery.nominal_voltage_v == pytest.approx(11.1)
        assert battery.stored_energy_wh == pytest.approx(33.3)
        assert battery.usable_energy_wh == pytest.approx(33.3 * 0.85)
        assert battery.max_continuous_current_a == pytest.approx(90.0)

    def test_energy_density_realistic(self):
        """Real LiPo packs land around 120-200 Wh/kg."""
        battery = make_battery(4, 5000.0)
        energy_density = battery.stored_energy_wh / (battery.weight_g / 1000.0)
        assert 80.0 < energy_density < 250.0

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BatterySpec(name="x", manufacturer="m", weight_g=100.0,
                        cells=3, capacity_mah=-1.0)


class TestEscSpecs:
    def test_long_flight_heavier_than_short(self):
        """Figure 8a: long-flight ESCs out-weigh racing ESCs above ~5 A."""
        assert esc_set_weight_g(40.0, EscClass.LONG_FLIGHT) > esc_set_weight_g(
            40.0, EscClass.SHORT_FLIGHT
        )

    def test_set_weight_matches_fit(self):
        assert esc_set_weight_g(30.0, EscClass.LONG_FLIGHT) == pytest.approx(
            4.9678 * 30.0 - 15.757
        )

    def test_unit_weight_is_quarter_of_set(self):
        assert esc_unit_weight_g(30.0) == pytest.approx(
            esc_set_weight_g(30.0) / 4.0
        )

    def test_burst_exceeds_continuous(self):
        esc = make_esc(25.0)
        assert esc.burst_current_a > esc.max_continuous_current_a

    def test_invalid_current(self):
        with pytest.raises(ValueError):
            esc_set_weight_g(-5.0)


class TestFrameSpecs:
    def test_large_fit_matches_paper(self):
        assert frame_weight_g(450.0) == pytest.approx(1.2767 * 450.0 - 167.6)

    def test_small_frames_in_paper_band(self):
        """Paper: sub-200 mm frames weigh 50-200 g."""
        for wheelbase in (90.0, 130.0, 180.0):
            assert 20.0 <= frame_weight_g(wheelbase) <= 200.0

    def test_piecewise_fit_continuous_at_200mm(self):
        below = frame_weight_g(199.99)
        above = frame_weight_g(200.01)
        assert abs(above - below) < 1.0

    def test_arm_length(self):
        assert make_frame(450.0).arm_length_m == pytest.approx(0.225)

    def test_out_of_range_wheelbase(self):
        with pytest.raises(ValueError):
            frame_weight_g(2000.0)
        with pytest.raises(ValueError):
            FrameSpec(name="x", manufacturer="m", weight_g=100.0,
                      wheelbase_mm=10.0)


class TestMotorProducts:
    def test_product_reaches_design_thrust(self):
        product = design_motor_product(
            propeller_inch=10.0, max_thrust_g=800.0, cells=3
        )
        from repro.physics.propeller import typical_propeller_for

        thrust = product.max_thrust_g(3, typical_propeller_for(10.0))
        assert thrust >= 700.0  # headroom margins make this approximate

    def test_kv_in_figure9_range_for_450mm(self):
        product = design_motor_product(
            propeller_inch=10.0, max_thrust_g=1000.0, cells=3
        )
        assert 300.0 < product.kv_rpm_per_v < 3000.0

    def test_physics_model_roundtrip(self):
        product = design_motor_product(
            propeller_inch=10.0, max_thrust_g=800.0, cells=3
        )
        motor = product.to_physics_model()
        assert motor.kv_rpm_per_v == product.kv_rpm_per_v
        assert motor.mass_g == product.weight_g


class TestPropellerProducts:
    def test_set_weight_scales_with_count(self):
        assert propeller_set_weight_g(10.0, count=8) == pytest.approx(
            2 * propeller_set_weight_g(10.0, count=4)
        )

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            propeller_set_weight_g(10.0, count=0)


class TestComputeBoards:
    def test_table4_census_size(self):
        assert len(table4_flight_controllers()) == 10

    def test_power_levels_match_table4(self):
        navio = find_board("Navio2")
        assert navio.power_w == pytest.approx(0.15 * 5.0)
        tx2 = find_board("Jetson TX2")
        assert tx2.power_w == pytest.approx(10.0)
        assert tx2.weight_g == pytest.approx(85.0)

    def test_class_partition(self):
        basic = boards_by_class(BoardClass.BASIC)
        improved = boards_by_class(BoardClass.IMPROVED)
        assert len(basic) + len(improved) == 10
        assert all(not b.supports_outer_loop for b in basic)

    def test_chip_power_abstractions(self):
        """Section 3.2 abstracts boards to 3 W and 20 W levels."""
        assert BASIC_CHIP_POWER_W == 3.0
        assert ADVANCED_CHIP_POWER_W == 20.0
        powers = [b.power_w for b in table4_flight_controllers()]
        assert min(powers) < BASIC_CHIP_POWER_W
        assert max(powers) >= ADVANCED_CHIP_POWER_W

    def test_unknown_board_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="Navio2"):
            find_board("definitely-not-a-board")


class TestExternalSensors:
    def test_lidars_are_self_powered_kg_class(self):
        """Paper: drone LiDARs are ~1 kg, self-powered, 10-50 W."""
        lidars = [sensor for sensor in table4_external_sensors()
                  if sensor.kind is SensorKind.LIDAR]
        assert len(lidars) == 3
        for lidar in lidars:
            assert lidar.self_powered
            assert lidar.weight_g >= 900.0
            assert lidar.bus_power_w == 0.0

    def test_fpv_cameras_under_1w(self):
        cameras = [sensor for sensor in table4_external_sensors()
                   if sensor.kind is SensorKind.FPV_CAMERA]
        assert cameras
        for camera in cameras:
            assert camera.power_w <= 1.0

    def test_find_sensor(self):
        hovermap = find_sensor("HoverMap")
        assert hovermap.weight_g == pytest.approx(1800.0)
        with pytest.raises(KeyError):
            find_sensor("nope")

    def test_hd_camera_self_powered_100g(self):
        hd = find_sensor("HD Action Camera")
        assert hd.self_powered
        assert hd.weight_g == pytest.approx(100.0)
