"""Gap-filling tests: smaller behaviours not covered elsewhere."""

import numpy as np
import pytest

from repro.components.base import LinearFit
from repro.components.catalog import generate_catalog
from repro.control.cascade import HierarchicalController
from repro.core.design import DroneDesign
from repro.core.tradeoffs import FitComparison
from repro.physics.rigid_body import QuadcopterBody
from repro.platforms.accelerator import navion_asic, zynq_ba_accelerator
from repro.sim.missions import PhaseKind, figure16_mission
from repro.slam.features import OrbExtractor
from repro.slam.dataset import Frame, load_sequence


class TestLinearFitDisplay:
    def test_str_shows_equation(self):
        fit = LinearFit(slope=1.5, intercept=2.0, r_squared=0.99)
        text = str(fit)
        assert "1.5" in text and "2.0" in text and "0.99" in text

    def test_fit_comparison_slope_error(self):
        comparison = FitComparison(
            label="x",
            recovered=LinearFit(slope=1.1, intercept=0.0),
            published=LinearFit(slope=1.0, intercept=0.0),
        )
        assert comparison.slope_error == pytest.approx(0.1)

    def test_zero_published_slope_rejected(self):
        comparison = FitComparison(
            label="x",
            recovered=LinearFit(slope=1.0, intercept=0.0),
            published=LinearFit(slope=0.0, intercept=0.0),
        )
        with pytest.raises(ValueError):
            comparison.slope_error


class TestCatalogDerived:
    def test_catalog_size_property(self):
        catalog = generate_catalog(seed=7)
        assert catalog.size == (
            len(catalog.batteries) + len(catalog.escs)
            + len(catalog.frames) + len(catalog.motors)
        )


class TestControllerMisc:
    def test_flops_per_second_scales_with_rates(self):
        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        from repro.control.cascade import ControlRates

        slow = HierarchicalController(
            mass_kg=1.0, arm_length_m=0.225,
            inertia_kg_m2=body.inertia_kg_m2, max_thrust_per_motor_n=5.0,
            rates=ControlRates(position_hz=10.0, attitude_hz=50.0,
                               thrust_hz=100.0),
        )
        fast = HierarchicalController(
            mass_kg=1.0, arm_length_m=0.225,
            inertia_kg_m2=body.inertia_kg_m2, max_thrust_per_motor_n=5.0,
        )
        assert fast.flops_per_second() > slow.flops_per_second()

    def test_invalid_mass_rejected(self):
        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        with pytest.raises(ValueError):
            HierarchicalController(
                mass_kg=0.0, arm_length_m=0.225,
                inertia_kg_m2=body.inertia_kg_m2, max_thrust_per_motor_n=5.0,
            )


class TestAcceleratorComparison:
    def test_fpga_outpaces_asic_in_throughput(self):
        """Table 5's subtlety: the FPGA is *faster* (30.7x vs 23.53x) while
        the ASIC is far more efficient — throughput vs power."""
        fpga = zynq_ba_accelerator()
        asic = navion_asic()
        assert (
            fpga.blocks["ba_matrix_engine"].throughput_ops_s
            > asic.blocks["ba_matrix_engine"].throughput_ops_s
        )
        assert asic.total_power_w < fpga.total_power_w / 10.0

    def test_energy_per_op_favors_asic(self):
        fpga = zynq_ba_accelerator()
        asic = navion_asic()
        fpga_j_per_op = fpga.total_power_w / fpga.blocks[
            "ba_matrix_engine"
        ].throughput_ops_s
        asic_j_per_op = asic.total_power_w / asic.blocks[
            "ba_matrix_engine"
        ].throughput_ops_s
        assert asic_j_per_op < fpga_j_per_op


class TestMissionPhases:
    def test_phase_kinds_cover_flight_envelope(self):
        kinds = {p.kind for p in figure16_mission().phases}
        assert PhaseKind.TAKEOFF in kinds
        assert PhaseKind.LAND in kinds

    def test_mission_duration_sums_phases(self):
        mission = figure16_mission()
        assert mission.duration_s == pytest.approx(
            sum(p.duration_s for p in mission.phases)
        )


class TestFeatureExtractionEmptyFrame:
    def test_empty_frame_yields_empty_set_with_base_cost(self):
        frame = Frame(
            index=0, timestamp_s=0.0,
            true_position_m=np.zeros(3), true_yaw_rad=0.0,
            landmark_ids=np.empty(0, dtype=np.int64),
            keypoints_px=np.empty((0, 2)),
            descriptors=np.empty((0, 32), dtype=np.uint8),
        )
        features = OrbExtractor().extract(frame)
        assert features.count == 0
        assert features.operations > 0  # the pyramid still gets built


class TestDesignEvaluationConsistency:
    def test_maneuver_time_shorter(self):
        evaluation = DroneDesign(
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=4000.0,
        ).evaluate()
        ratio = evaluation.flight_time_min / evaluation.maneuver_flight_time_min
        # Hover at 25% load vs maneuvering at 65%: ~2.5x (minus the fixed
        # compute/sensor power terms).
        assert 2.0 < ratio < 2.7

    def test_required_c_rating_scales_inverse_capacity(self):
        small = DroneDesign(
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=1500.0,
        ).evaluate()
        large = DroneDesign(
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=6000.0,
        ).evaluate()
        assert small.required_battery_c_rating > large.required_battery_c_rating


class TestSequenceEnvironments:
    def test_machine_hall_larger_than_vicon_room(self):
        hall = load_sequence("MH01")
        room = load_sequence("V101")
        hall_extent = np.ptp(hall.landmarks_m, axis=0)
        room_extent = np.ptp(room.landmarks_m, axis=0)
        assert hall_extent[0] > room_extent[0]
        assert hall_extent[1] > room_extent[1]
