"""Edge-case and failure-injection tests across modules."""

import numpy as np
import pytest

from repro.autopilot.arducopter import Autopilot, FailsafeState, FlightMode
from repro.autopilot.mavlink import Command, Link, MessageType
from repro.autopilot.offload import evaluate_offload
from repro.components.base import Component
from repro.core.explorer import SweepResult
from repro.platforms.profiles import PlatformProfile, rpi4_profile
from repro.sim.simulator import DroneModel, FlightSimulator
from repro.slam.dataset import load_sequence
from repro.slam.map import SlamMap
from repro.slam.pipeline import SlamPipeline, Stage


class TestComponentBase:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            Component(name="", manufacturer="m", weight_g=1.0)
        with pytest.raises(ValueError):
            Component(name="x", manufacturer="m", weight_g=-1.0)


class TestBatteryDepletionInFlight:
    def test_depletion_triggers_failsafe_landing(self):
        """Failure injection: near-empty battery mid-flight -> LAND."""
        model = DroneModel(
            mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
            battery_capacity_mah=3000.0,
        )
        autopilot = Autopilot(FlightSimulator(model, physics_rate_hz=400.0))
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(40):
            autopilot.update(0.1)
        battery = autopilot.sim.battery
        battery.used_mah = battery.usable_mah - 1.0  # one mAh left
        for _ in range(30):
            autopilot.update(0.1)
        assert autopilot.failsafe in (
            FailsafeState.FAILSAFE_RTL, FailsafeState.FAILSAFE_LAND,
        )
        assert autopilot.mode is FlightMode.LAND
        # And the simulator flags depletion rather than crashing.
        for _ in range(40):
            autopilot.update(0.1)
        assert autopilot.sim.depleted

    def test_simulator_survives_depleted_battery(self):
        model = DroneModel(
            mass_kg=1.0, wheelbase_mm=450.0, battery_cells=3,
            battery_capacity_mah=100.0,
        )
        sim = FlightSimulator(model, physics_rate_hz=400.0)
        sim.goto([0.0, 0.0, 3.0])
        # The C-rating caps draw at capacity*C, so a pack always lasts
        # ~0.85*3600/C s regardless of size: ~77 s at 40C.
        sim.run_for(80.0)
        assert sim.depleted


class TestGpsDeniedFlight:
    def test_ekf_flight_without_gps_drifts_but_flies(self):
        """Indoor (GPS-denied) flight: the EKF holds attitude/altitude from
        IMU+baro, horizontal position drifts — the reason SLAM exists."""
        model = DroneModel(
            mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
            battery_capacity_mah=3000.0,
        )
        sim = FlightSimulator(model, physics_rate_hz=400.0, use_ekf=True)
        sim.sensors.gps.available = False
        sim.goto([0.0, 0.0, 4.0])
        sim.run_for(10.0)
        # Altitude held by barometer fusion...
        assert sim.body.state.position_m[2] == pytest.approx(4.0, abs=1.0)
        # ...and the vehicle did not diverge wildly.
        assert np.linalg.norm(sim.body.state.position_m[0:2]) < 5.0


class TestAutopilotProtocolEdges:
    def make(self) -> Autopilot:
        model = DroneModel(
            mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
            battery_capacity_mah=3000.0,
        )
        return Autopilot(FlightSimulator(model, physics_rate_hz=400.0))

    def test_unknown_mode_id_raises(self):
        autopilot = self.make()
        autopilot.link.send(
            MessageType.COMMAND_LONG, (float(Command.SET_MODE), 99.0)
        )
        with pytest.raises(ValueError, match="unknown mode id"):
            autopilot.update(0.1)

    def test_position_target_ignored_when_disarmed(self):
        autopilot = self.make()
        autopilot.set_mode(FlightMode.GUIDED)
        autopilot.link.send(
            MessageType.SET_POSITION_TARGET, (5.0, 5.0, 5.0)
        )
        autopilot.update(0.5)
        assert np.linalg.norm(autopilot.sim.body.state.position_m) < 0.5

    def test_empty_command_payload_is_noop(self):
        autopilot = self.make()
        autopilot.link.send(MessageType.COMMAND_LONG, ())
        autopilot.update(0.1)  # must not raise

    def test_disarm_over_link(self):
        autopilot = self.make()
        autopilot.arm()
        autopilot.link.send(
            MessageType.COMMAND_LONG, (float(Command.ARM_DISARM), 0.0)
        )
        autopilot.update(0.1)
        assert not autopilot.armed


class TestSlamEdges:
    def test_pipeline_with_degraded_descriptors_still_tracks(self):
        """Heavy descriptor noise degrades but does not break tracking."""
        sequence = load_sequence("MH01")
        sequence.spec = type(sequence.spec)(
            name="MH01", environment="machine_hall",
            difficulty=sequence.spec.difficulty, duration_s=5.0,
            mean_speed_m_s=0.6, landmark_count=sequence.spec.landmark_count,
            pixel_noise=2.0,
        )
        pipeline = SlamPipeline(sequence)
        result = pipeline.run(max_frames=40)
        assert result.frames_processed == 40
        assert result.map_points > 20

    def test_empty_map_descriptor_matrix(self):
        descriptors, ids = SlamMap().descriptor_matrix()
        assert descriptors.shape == (0, 32)
        assert ids.size == 0

    def test_trajectory_of_empty_map_raises(self):
        with pytest.raises(ValueError):
            SlamMap().trajectory()

    def test_breakdown_rejects_negative_ops(self):
        from repro.slam.pipeline import StageBreakdown

        breakdown = StageBreakdown()
        with pytest.raises(ValueError):
            breakdown.add(Stage.TRACKING, -1)
        with pytest.raises(ValueError):
            breakdown.fraction(Stage.TRACKING)  # nothing recorded yet


class TestOffloadEdges:
    def test_total_link_loss_raises(self, slam_mh01):
        with pytest.raises(ValueError, match="no pose updates"):
            evaluate_offload(
                slam_mh01, rpi4_profile(), loss_probability=0.999999,
            )


class TestProfileValidation:
    def test_missing_stage_rejected(self):
        with pytest.raises(ValueError, match="missing stage"):
            PlatformProfile(
                name="bad",
                stage_throughput_ops_s={Stage.LOCAL_BA: 1e9},
                power_overhead_w=1.0,
                weight_overhead_g=1.0,
                integration_cost="Low",
                fabrication_cost="Low",
            )

    def test_nonpositive_throughput_rejected(self):
        throughputs = {stage: 1e9 for stage in Stage}
        throughputs[Stage.TRACKING] = 0.0
        with pytest.raises(ValueError):
            PlatformProfile(
                name="bad", stage_throughput_ops_s=throughputs,
                power_overhead_w=1.0, weight_overhead_g=1.0,
                integration_cost="Low", fabrication_cost="Low",
            )


class TestSweepResultEdges:
    def test_empty_sweep_weight_range_raises(self):
        with pytest.raises(ValueError):
            SweepResult(wheelbase_mm=450.0).weight_range_g()

    def test_empty_sweep_best_configuration_none(self):
        assert SweepResult(wheelbase_mm=450.0).best_configuration() is None


class TestLinkEdges:
    def test_heavy_traffic_preserves_order(self):
        link = Link()
        for index in range(50):
            link.send(MessageType.STATE_REPORT, (float(index),))
        values = [m.payload[0] for m in link.drain()]
        assert values == sorted(values)
