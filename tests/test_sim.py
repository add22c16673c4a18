"""Unit/integration tests: flight simulator, missions, power traces, and
telemetry."""

import numpy as np
import pytest

from repro.sim.missions import (
    Mission,
    MissionPhase,
    PhaseKind,
    figure16_mission,
    survey_mission,
)
from repro.sim.power_trace import (
    RPI_AUTOPILOT_SLAM_FLYING_W,
    RPI_AUTOPILOT_SLAM_IDLE_W,
    RPI_AUTOPILOT_W,
    PowerPhase,
    figure16a_trace,
    synthesize_phased_trace,
)
from repro.sim.simulator import DroneModel, FlightSimulator
from repro.sim.telemetry import TelemetryLog, TelemetryRecord


def model_450() -> DroneModel:
    return DroneModel(
        mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
        battery_capacity_mah=3000.0,
    )


class TestFlightSimulator:
    @pytest.fixture(scope="class")
    def hover_sim(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0)
        sim.goto([0.0, 0.0, 5.0])
        sim.run_for(10.0)
        return sim

    def test_reaches_hover_altitude(self, hover_sim):
        assert hover_sim.body.state.position_m[2] == pytest.approx(5.0, abs=0.3)

    def test_hover_error_small(self, hover_sim):
        error = hover_sim.hover_position_error_m(
            np.array([0.0, 0.0, 5.0]), since_s=8.0
        )
        assert error < 0.3

    def test_hover_power_near_design_equations(self, hover_sim):
        """Simulator power and Equations 1-7 agree by construction."""
        from repro.core.equations import (
            average_power_w,
            motor_max_current_a,
        )

        measured = hover_sim.average_power_w(since_s=8.0)
        current = motor_max_current_a(1071.0, 10.0, 11.1)
        predicted = average_power_w(
            current, 11.1, flying_load=0.25, compute_power_w=3.0,
            sensors_power_w=1.0,
        )
        assert measured == pytest.approx(predicted, rel=0.25)

    def test_battery_drains_during_flight(self, hover_sim):
        assert hover_sim.battery.used_mah > 0.0
        assert hover_sim.samples[-1].battery_soc < 1.0

    def test_ekf_flight_tracks_target(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0, use_ekf=True)
        sim.goto([0.0, 0.0, 4.0])
        sim.run_for(8.0)
        assert sim.body.state.position_m[2] == pytest.approx(4.0, abs=0.8)
        assert sim.ekf.predictions > 0
        assert sim.ekf.corrections > 0

    def test_wind_degrades_hover(self):
        from repro.physics.environment import Wind

        calm = FlightSimulator(model_450(), physics_rate_hz=400.0)
        calm.goto([0, 0, 5.0])
        calm.run_for(8.0)
        windy = FlightSimulator(
            model_450(), physics_rate_hz=400.0,
            wind=Wind(gust_speed_m_s=4.0, seed=2),
        )
        windy.goto([0, 0, 5.0])
        windy.run_for(8.0)
        target = np.array([0, 0, 5.0])
        assert windy.hover_position_error_m(target, 6.0) > calm.hover_position_error_m(
            target, 6.0
        )

    def test_rejects_too_slow_physics(self):
        with pytest.raises(ValueError):
            FlightSimulator(model_450(), physics_rate_hz=50.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DroneModel(mass_kg=0.0, wheelbase_mm=450, battery_cells=3,
                       battery_capacity_mah=3000)


class TestMissions:
    def test_hover_mission_holds_altitude(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0)
        target = np.array([0.0, 0.0, 4.0])
        Mission(phases=[
            MissionPhase(PhaseKind.TAKEOFF, duration_s=6.0, target_m=target),
            MissionPhase(PhaseKind.HOVER, duration_s=6.0, target_m=target),
        ]).run(sim)
        assert sim.body.state.position_m[2] == pytest.approx(4.0, abs=0.3)

    def test_waypoint_mission_visits_and_lands(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0)
        Mission(phases=[
            MissionPhase(PhaseKind.TAKEOFF, duration_s=6.0,
                         target_m=np.array([0.0, 0.0, 5.0])),
            MissionPhase(PhaseKind.GOTO, duration_s=7.0,
                         target_m=np.array([4.0, 0.0, 5.0])),
            MissionPhase(PhaseKind.LAND, duration_s=8.0),
        ]).run(sim)
        state = sim.body.state
        assert state.position_m[2] < 1.0  # landed

    def test_survey_mission_covers_lanes(self):
        mission = survey_mission(area_side_m=10.0, lane_spacing_m=5.0)
        goto_phases = [p for p in mission.phases if p.kind is PhaseKind.GOTO]
        ys = {float(p.target_m[1]) for p in goto_phases}
        assert len(ys) >= 3  # several lanes

    def test_figure16_mission_structure(self):
        mission = figure16_mission()
        kinds = [p.kind for p in mission.phases]
        assert kinds[0] is PhaseKind.TAKEOFF
        assert PhaseKind.AGGRESSIVE in kinds
        assert kinds[-1] is PhaseKind.LAND

    def test_empty_mission_rejected(self):
        with pytest.raises(ValueError):
            Mission().run(FlightSimulator(model_450(), physics_rate_hz=400.0))

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            MissionPhase(PhaseKind.HOVER, duration_s=0.0)


class TestPowerTraces:
    def test_figure16a_phase_means_match_paper(self):
        trace = figure16a_trace()
        assert trace.phase_mean_w("autopilot") == pytest.approx(
            RPI_AUTOPILOT_W, abs=0.1
        )
        assert trace.phase_mean_w("autopilot+slam-idle") == pytest.approx(
            RPI_AUTOPILOT_SLAM_IDLE_W, abs=0.1
        )
        assert trace.phase_mean_w("autopilot+slam-flying") == pytest.approx(
            RPI_AUTOPILOT_SLAM_FLYING_W, abs=0.1
        )

    def test_figure16a_disconnected_is_zero(self):
        trace = figure16a_trace()
        assert trace.phase_mean_w("disconnected") == pytest.approx(0.0, abs=0.02)

    def test_unknown_phase_raises(self):
        trace = figure16a_trace()
        with pytest.raises(KeyError):
            trace.phase_mean_w("warp-drive")

    def test_synthesize_validates(self):
        with pytest.raises(ValueError):
            synthesize_phased_trace([])
        with pytest.raises(ValueError):
            PowerPhase("x", duration_s=-1.0, mean_power_w=1.0)


class TestTelemetry:
    def test_record_roundtrip(self):
        record = TelemetryRecord(1.5, 10.0, 2.5, 0.8, 11.1, 120.0)
        decoded = TelemetryRecord.decode(record.encode())
        assert decoded.altitude_m == pytest.approx(10.0)
        assert decoded.power_w == pytest.approx(120.0)

    def test_decode_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            TelemetryRecord.decode(b"\x00" * 8)

    def test_downlink_rate_limits_records(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0)
        sim.goto([0, 0, 3.0])
        sim.run_for(5.0)
        log = TelemetryLog(downlink_rate_hz=4.0)
        sent = log.ingest_all(sim)
        assert sent == pytest.approx(20, abs=3)

    def test_summary_fields(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0)
        sim.goto([0, 0, 3.0])
        sim.run_for(5.0)
        log = TelemetryLog()
        log.ingest_all(sim)
        summary = log.summary()
        assert summary["max_altitude_m"] > 2.0
        assert summary["mean_power_w"] > 50.0
        assert 0.9 < summary["final_soc"] <= 1.0

    def test_empty_log_summary_raises(self):
        with pytest.raises(ValueError):
            TelemetryLog().summary()

    def test_maxlen_bounds_the_ring_buffer(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0)
        sim.goto([0, 0, 3.0])
        sim.run_for(5.0)
        unbounded = TelemetryLog(downlink_rate_hz=4.0)
        bounded = TelemetryLog(downlink_rate_hz=4.0, maxlen=5)
        sent_unbounded = unbounded.ingest_all(sim)
        sent_bounded = bounded.ingest_all(sim)
        # the downlink accepts the same traffic; only retention differs
        assert sent_bounded == sent_unbounded
        assert len(bounded.records) == 5
        assert len(unbounded.records) == sent_unbounded
        # the ring keeps the newest records, so summaries still work
        newest = list(unbounded.records)[-5:]
        assert [r.time_s for r in bounded.records] == [
            r.time_s for r in newest
        ]
        assert bounded.summary()["final_soc"] == unbounded.summary()["final_soc"]

    def test_maxlen_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryLog(maxlen=0)
