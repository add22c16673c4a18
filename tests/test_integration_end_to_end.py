"""End-to-end integration: the full paper pipeline in one flow.

Design a drone with the Equations 1-7 engine, fly it in the closed-loop
simulator via the DroneKit API while SLAM runs, then quantify the FPGA
offloading decision — the complete Section 3 -> Section 4 -> Section 5 story.
"""

import numpy as np
import pytest

from repro.autopilot.arducopter import Autopilot
from repro.autopilot.dronekit import Vehicle
from repro.core.design import DroneDesign
from repro.core.wizard import DesignWizard
from repro.platforms.profiles import figure17_study, fpga_profile, rpi4_profile, table5
from repro.sim.simulator import DroneModel, FlightSimulator
from repro.sim.telemetry import TelemetryLog


class TestDesignToFlight:
    @pytest.fixture(scope="class")
    def designed_drone(self):
        design = DroneDesign(
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=3000.0,
            compute_power_w=4.56,  # RPi running autopilot + SLAM
        )
        return design.evaluate()

    def test_designed_drone_flies_in_simulator(self, designed_drone):
        model = DroneModel(
            mass_kg=designed_drone.total_weight_g / 1000.0,
            wheelbase_mm=450.0,
            battery_cells=3,
            battery_capacity_mah=3000.0,
            compute_power_w=designed_drone.compute_power_w,
        )
        sim = FlightSimulator(model, physics_rate_hz=400.0)
        vehicle = Vehicle(Autopilot(sim))
        vehicle.armed = True
        vehicle.simple_takeoff(5.0, wait_s=8.0)
        assert vehicle.location.altitude == pytest.approx(5.0, abs=0.5)

        # Simulated hover power must agree with the design equations.
        measured = sim.average_power_w(since_s=6.0)
        assert measured == pytest.approx(designed_drone.hover_power_w, rel=0.3)

    def test_flight_time_prediction_consistent_with_battery_drain(
        self, designed_drone
    ):
        """Extrapolating the simulator's drain must land near Equation 5."""
        model = DroneModel(
            mass_kg=designed_drone.total_weight_g / 1000.0,
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=3000.0,
            compute_power_w=designed_drone.compute_power_w,
        )
        sim = FlightSimulator(model, physics_rate_hz=400.0)
        sim.goto([0.0, 0.0, 5.0])
        sim.run_for(30.0)
        drained = sim.battery.used_mah
        usable = sim.battery.usable_mah
        # Ignore the takeoff transient by scaling from the last 20 s.
        extrapolated_min = usable / (drained / 30.0) / 60.0
        assert extrapolated_min == pytest.approx(
            designed_drone.flight_time_min, rel=0.35
        )


class TestSlamOffloadDecision:
    def test_wizard_quantifies_fpga_offload(self, slam_mh01):
        """The Figure 12 procedure wired to real Section 5 artifacts."""
        wizard = DesignWizard(wheelbase_mm=450.0)
        wizard.add_compute(power_w=10.0, weight_g=85.0)  # TX2-class
        wizard.select_battery(3, 3000.0)
        fpga = fpga_profile()
        outcome = wizard.quantify_optimization(
            power_saved_w=10.0 - fpga.power_overhead_w,
            weight_delta_g=fpga.weight_overhead_g - 85.0,
        )
        assert outcome.gained_flight_time_min > 0.5

    def test_speedup_and_flight_gain_together(self, slam_mh01):
        study = figure17_study([slam_mh01])
        rows = {row.platform: row for row in table5(study)}
        # FPGA: both faster and flight-positive; TX2: faster but
        # flight-negative — the paper's central tension.
        assert rows["FPGA"].slam_speedup > 10.0
        assert rows["FPGA"].gained_flight_time_small_min > 0.0
        assert rows["TX2"].slam_speedup > 1.5
        assert rows["TX2"].gained_flight_time_small_min < 0.0

    def test_rpi_meets_camera_rate_but_degrades_autopilot(
        self, slam_mh01, interference
    ):
        """Section 5.1's conclusion in one assertion pair."""
        rpi = rpi4_profile()
        slam_fps = slam_mh01.frames_processed / rpi.total_time_s(
            slam_mh01.breakdown
        )
        assert slam_fps > 20.0  # meets the sensor rate
        assert interference.ipc_degradation > 1.3  # but hurts the autopilot


class TestTelemetryPipeline:
    def test_mission_with_telemetry_downlink(self):
        model = DroneModel(
            mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
            battery_capacity_mah=3000.0,
        )
        sim = FlightSimulator(model, physics_rate_hz=400.0)
        from repro.sim.missions import Mission, MissionPhase, PhaseKind

        Mission(phases=[
            MissionPhase(PhaseKind.TAKEOFF, duration_s=6.0,
                         target_m=np.array([0.0, 0.0, 5.0])),
            MissionPhase(PhaseKind.GOTO, duration_s=5.0,
                         target_m=np.array([3.0, 0.0, 4.0])),
            MissionPhase(PhaseKind.GOTO, duration_s=5.0,
                         target_m=np.array([3.0, 3.0, 4.0])),
            MissionPhase(PhaseKind.LAND, duration_s=8.0),
        ]).run(sim)
        log = TelemetryLog(downlink_rate_hz=2.0)
        log.ingest_all(sim)
        summary = log.summary()
        assert summary["max_altitude_m"] > 3.0
        assert summary["final_soc"] < 1.0
        assert summary["records"] > 30
