"""Fault-injection framework + failsafe layer tests.

Covers the fault schedule/injector machinery, the Gilbert-Elliott burst
channel, the link's latency/blackout behaviour, the frame-corruption error
paths, the autopilot's graceful-degradation state machine, and the reliable
(ACK + retry) command channel.
"""

import math

import numpy as np
import pytest

from repro.autopilot.arducopter import Autopilot, FailsafeState, FlightMode
from repro.autopilot.dronekit import ReliableCommander, Vehicle, connect
from repro.autopilot.mavlink import (
    ACK_ACCEPTED,
    MAGIC,
    Command,
    FrameError,
    GilbertElliott,
    Link,
    Message,
    MessageType,
    decode,
)
from repro.autopilot.offload import OffboardComputeNode, PoseStalenessWatchdog
from repro.faults import (
    CrashEnvelope,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    PerceptionFaultInjector,
    perception_scenarios,
)
from repro.sim.simulator import DroneModel, FlightSimulator
from repro.slam.dataset import load_sequence


def make_autopilot(use_ekf: bool = False, **autopilot_kwargs) -> Autopilot:
    model = DroneModel(
        mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
        battery_capacity_mah=3000.0,
    )
    sim = FlightSimulator(model, physics_rate_hz=400.0, use_ekf=use_ekf)
    return Autopilot(sim, **autopilot_kwargs)


def fly(autopilot: Autopilot, duration_s: float, step_s: float = 0.1) -> None:
    elapsed = 0.0
    while elapsed < duration_s - 1e-9:
        autopilot.update(step_s)
        elapsed += step_s


# -- schedule -------------------------------------------------------------------


class TestFaultSchedule:
    def test_event_window(self):
        event = FaultEvent.make(FaultKind.GPS_LOSS, start_s=2.0, end_s=5.0)
        assert not event.active(1.9)
        assert event.active(2.0)
        assert event.active(4.9)
        assert not event.active(5.0)

    def test_event_open_ended(self):
        event = FaultEvent.make(FaultKind.LINK_BLACKOUT, start_s=3.0)
        assert event.end_s == math.inf
        assert event.active(1e6)

    def test_event_params_frozen_and_hashable(self):
        event = FaultEvent.make(
            FaultKind.MOTOR_DEGRADATION, start_s=1.0, health=0.5, motor_index=2
        )
        assert event.param_dict == {"health": 0.5, "motor_index": 2.0}
        assert {event: "ok"}[event] == "ok"

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent.make(FaultKind.GPS_LOSS, start_s=5.0, end_s=2.0)

    def test_schedule_sorted_and_queryable(self):
        schedule = (
            FaultSchedule()
            .add(FaultKind.LINK_BLACKOUT, start_s=10.0, end_s=20.0)
            .add(FaultKind.GPS_LOSS, start_s=2.0, end_s=4.0)
        )
        assert [e.kind for e in schedule.events] == [
            FaultKind.GPS_LOSS, FaultKind.LINK_BLACKOUT,
        ]
        assert schedule.first_fault_s == 2.0
        assert [e.kind for e in schedule.active(3.0)] == [FaultKind.GPS_LOSS]
        assert len(schedule) == 2

    def test_compose_merges(self):
        a = FaultSchedule().add(FaultKind.GPS_LOSS, start_s=1.0, end_s=2.0)
        b = FaultSchedule().add(FaultKind.BARO_FREEZE, start_s=0.5, end_s=3.0)
        merged = a.compose(b)
        assert len(merged) == 2
        assert merged.first_fault_s == 0.5

    def test_offload_blocked(self):
        schedule = FaultSchedule().add(
            FaultKind.OFFLOAD_STALL, start_s=5.0, end_s=8.0
        )
        assert not schedule.offload_blocked(4.9)
        assert schedule.offload_blocked(6.0)
        assert not schedule.offload_blocked(8.0)


class TestFaultScheduleEdgeCases:
    def test_overlapping_windows_are_all_active(self):
        schedule = (
            FaultSchedule()
            .add(FaultKind.GPS_LOSS, start_s=2.0, end_s=10.0)
            .add(FaultKind.GPS_LOSS, start_s=5.0, end_s=7.0)
            .add(FaultKind.BATTERY_SAG, start_s=6.0, end_s=12.0)
        )
        assert len(schedule.active(6.5)) == 3
        assert schedule.windows(FaultKind.GPS_LOSS) == ((2.0, 10.0), (5.0, 7.0))
        # overlap ends are honoured per event, not merged
        assert [e.kind for e in schedule.active(8.0)] == [
            FaultKind.GPS_LOSS, FaultKind.BATTERY_SAG,
        ]

    def test_windows_preserve_infinite_end(self):
        schedule = FaultSchedule().add(FaultKind.LINK_BLACKOUT, start_s=4.0)
        assert schedule.windows(FaultKind.LINK_BLACKOUT) == ((4.0, math.inf),)
        assert schedule.active(1e9)
        assert schedule.windows(FaultKind.GPS_LOSS) == ()

    def test_compose_ordering_is_stable(self):
        a = (
            FaultSchedule()
            .add(FaultKind.LINK_BLACKOUT, start_s=3.0, end_s=6.0)
            .add(FaultKind.GPS_LOSS, start_s=3.0, end_s=6.0)
        )
        b = FaultSchedule().add(FaultKind.BARO_FREEZE, start_s=1.0, end_s=2.0)
        forward = a.compose(b)
        backward = b.compose(a)
        # composition is order-independent: events sort by (start, kind)
        assert forward.events == backward.events
        assert [e.kind for e in forward.events] == [
            FaultKind.BARO_FREEZE, FaultKind.GPS_LOSS, FaultKind.LINK_BLACKOUT,
        ]
        # and the operands are untouched
        assert len(a) == 2 and len(b) == 1

    def test_empty_schedule_queries(self):
        schedule = FaultSchedule()
        assert schedule.first_fault_s == math.inf
        assert schedule.active(0.0) == []
        assert schedule.windows(FaultKind.GPS_LOSS) == ()
        assert not schedule.offload_blocked(0.0)
        assert len(schedule) == 0

    def test_jsonable_roundtrip_preserves_params_and_inf(self):
        import json

        schedule = (
            FaultSchedule()
            .add(FaultKind.MOTOR_DEGRADATION, start_s=2.0, end_s=9.0,
                 health=0.6, motor_index=1)
            .add(FaultKind.LINK_BLACKOUT, start_s=5.0)
        )
        restored = FaultSchedule.from_jsonable(
            json.loads(json.dumps(schedule.to_jsonable()))
        )
        assert restored.events == schedule.events
        assert restored.events[1].end_s == math.inf
        assert restored.events[0].param_dict == {
            "health": 0.6, "motor_index": 1.0,
        }


# -- crash envelope -------------------------------------------------------------


class TestCrashEnvelope:
    """The crash invariants that read the envelope are tested with
    ``SafetyMonitor`` in ``test_chaos.py``."""

    def test_envelope_validation(self):
        with pytest.raises(ValueError):
            CrashEnvelope(tilt_limit_rad=0.0)
        with pytest.raises(ValueError):
            CrashEnvelope(hard_landing_speed_m_s=-1.0)
        with pytest.raises(ValueError):
            CrashEnvelope(touchdown_altitude_m=-0.5, impact_altitude_m=-0.3)


# -- burst-loss channel ------------------------------------------------------------


class TestGilbertElliott:
    def test_degenerates_to_iid(self):
        channel = GilbertElliott(
            p_good_to_bad=0.5, p_bad_to_good=0.5, loss_good=0.3, loss_bad=0.3
        )
        rng = np.random.default_rng(3)
        losses = sum(channel.step(rng) for _ in range(4000)) / 4000
        assert losses == pytest.approx(0.3, abs=0.05)
        assert channel.steady_state_loss == pytest.approx(0.3)

    def test_losses_are_bursty(self):
        """BAD-state dwelling makes consecutive losses far likelier than i.i.d."""
        channel = GilbertElliott(
            p_good_to_bad=0.02, p_bad_to_good=0.2, loss_good=0.0, loss_bad=1.0
        )
        rng = np.random.default_rng(11)
        drops = [channel.step(rng) for _ in range(8000)]
        loss_rate = sum(drops) / len(drops)
        pairs = sum(1 for a, b in zip(drops, drops[1:]) if a and b)
        conditional = pairs / max(1, sum(drops[:-1]))
        assert conditional > 2.0 * loss_rate  # bursts, not coin flips
        assert channel.steady_state_loss == pytest.approx(
            0.02 / (0.02 + 0.2), rel=1e-6
        )

    def test_deterministic_for_seed(self):
        def run():
            channel = GilbertElliott()
            rng = np.random.default_rng(5)
            return [channel.step(rng) for _ in range(500)]

        assert run() == run()

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_good_to_bad=1.5)


class TestLinkFaults:
    def test_blackout_drops_everything(self):
        link = Link()
        link.blackout = True
        for _ in range(5):
            link.send(MessageType.HEARTBEAT)
        assert link.drain() == []
        assert link.dropped == 5
        link.blackout = False
        link.send(MessageType.HEARTBEAT)
        assert len(link.drain()) == 1

    def test_latency_holds_frames_until_clock(self):
        link = Link(latency_s=0.4)
        link.send(MessageType.HEARTBEAT)
        assert link.receive() is None  # still in flight
        link.advance_to(0.39)
        assert link.receive() is None
        link.advance_to(0.4)
        assert link.receive().message_type is MessageType.HEARTBEAT

    def test_clock_never_rewinds(self):
        link = Link()
        link.advance_to(5.0)
        link.advance_to(1.0)
        assert link.time_s == 5.0

    def test_burst_model_drives_loss(self):
        link = Link(
            seed=2,
            burst_model=GilbertElliott(
                p_good_to_bad=1.0, p_bad_to_good=0.0, loss_bad=1.0
            ),
        )
        for _ in range(10):
            link.send(MessageType.HEARTBEAT)
        assert link.dropped == 10

    def test_identical_seeds_identical_deliveries(self):
        def run():
            link = Link(loss_probability=0.4, seed=21)
            for _ in range(200):
                link.send(MessageType.HEARTBEAT)
            return (link.delivered, link.dropped)

        assert run() == run()


class TestFrameErrors:
    """Every corruption class the decoder must refuse (satellite coverage)."""

    def test_truncated_frame(self):
        frame = Message(MessageType.STATE_REPORT, (1.0, 2.0)).encode()
        with pytest.raises(FrameError, match="too short"):
            decode(frame[:4])

    def test_corrupted_checksum(self):
        frame = bytearray(Message(MessageType.HEARTBEAT).encode())
        frame[-1] ^= 0x01
        with pytest.raises(FrameError, match="checksum"):
            decode(bytes(frame))

    def test_corrupted_payload_fails_checksum(self):
        frame = bytearray(Message(MessageType.STATE_REPORT, (1.0,)).encode())
        frame[6] ^= 0xA5
        with pytest.raises(FrameError, match="checksum"):
            decode(bytes(frame))

    def test_bad_magic_byte(self):
        import struct

        body = struct.pack("<BBHB", 0xFE, int(MessageType.HEARTBEAT), 0, 0)
        from repro.autopilot.mavlink import _checksum

        frame = body + struct.pack("<H", _checksum(body))
        with pytest.raises(FrameError, match="magic"):
            decode(frame)

    def test_payload_count_mismatch(self):
        import struct

        # Claims two floats but carries one; re-checksummed so only the
        # length check can catch it.
        body = struct.pack(
            "<BBHB1f", MAGIC, int(MessageType.STATE_REPORT), 0, 2, 1.0
        )
        from repro.autopilot.mavlink import _checksum

        frame = body + struct.pack("<H", _checksum(body))
        with pytest.raises(FrameError, match="length mismatch"):
            decode(frame)


# -- injectors ------------------------------------------------------------------


class TestFaultInjector:
    def test_gps_loss_applies_and_restores(self):
        autopilot = make_autopilot(use_ekf=True)
        schedule = FaultSchedule().add(FaultKind.GPS_LOSS, start_s=1.0, end_s=2.0)
        injector = FaultInjector(autopilot, schedule)
        gps = autopilot.sim.sensors.gps
        injector.apply(0.5)
        assert gps.available
        injector.apply(1.0)
        assert not gps.available
        injector.apply(2.0)
        assert gps.available
        assert injector.activations == ["1.0s +gps_loss", "2.0s -gps_loss"]

    def test_motor_degradation_restores_exact_health(self):
        autopilot = make_autopilot()
        mixer = autopilot.sim.controller.thrust_controller.mixer
        schedule = FaultSchedule().add(
            FaultKind.MOTOR_DEGRADATION, start_s=0.0, end_s=1.0,
            motor_index=2, health=0.3,
        )
        injector = FaultInjector(autopilot, schedule)
        injector.apply(0.0)
        assert mixer.motor_health[2] == pytest.approx(0.3)
        injector.apply(1.0)
        assert mixer.motor_health[2] == pytest.approx(1.0)

    def test_esc_thermal_derates_all_rotors(self):
        autopilot = make_autopilot()
        mixer = autopilot.sim.controller.thrust_controller.mixer
        schedule = FaultSchedule().add(
            FaultKind.ESC_THERMAL, start_s=0.0, end_s=5.0, temperature_c=125.0
        )
        FaultInjector(autopilot, schedule).apply(0.0)
        assert np.all(mixer.motor_health < 1.0)
        assert np.all(mixer.motor_health == mixer.motor_health[0])

    def test_battery_drain_is_one_shot(self):
        autopilot = make_autopilot()
        battery = autopilot.sim.battery
        schedule = FaultSchedule().add(
            FaultKind.BATTERY_DRAIN, start_s=0.0, end_s=0.5, fraction=0.5
        )
        injector = FaultInjector(autopilot, schedule)
        injector.apply(0.0)
        drained = battery.state_of_charge
        assert drained == pytest.approx(0.5, abs=0.02)
        injector.apply(0.5)  # window closes: capacity must NOT come back
        assert battery.state_of_charge == pytest.approx(drained)

    def test_battery_sag_restores(self):
        autopilot = make_autopilot()
        battery = autopilot.sim.battery
        schedule = FaultSchedule().add(
            FaultKind.BATTERY_SAG, start_s=0.0, end_s=1.0, resistance_ohm=0.08
        )
        injector = FaultInjector(autopilot, schedule)
        injector.apply(0.0)
        assert battery.fault_resistance_ohm == pytest.approx(0.08)
        injector.apply(1.0)
        assert battery.fault_resistance_ohm == 0.0

    def test_baro_freeze_holds_last_reading(self):
        autopilot = make_autopilot()
        barometer = autopilot.sim.sensors.barometer
        state = autopilot.sim.body.state
        before = barometer.sample(state)
        schedule = FaultSchedule().add(FaultKind.BARO_FREEZE, start_s=0.0, end_s=1.0)
        injector = FaultInjector(autopilot, schedule)
        injector.apply(0.0)
        state.position_m[2] = 50.0
        assert barometer.sample(state) == pytest.approx(before)
        injector.apply(1.0)
        assert barometer.sample(state) != pytest.approx(before)

    def test_link_blackout_and_burst(self):
        autopilot = make_autopilot()
        schedule = (
            FaultSchedule()
            .add(FaultKind.LINK_BLACKOUT, start_s=0.0, end_s=1.0)
            .add(FaultKind.LINK_BURST, start_s=2.0, end_s=3.0, loss_bad=1.0)
        )
        injector = FaultInjector(autopilot, schedule)
        injector.apply(0.0)
        assert autopilot.link.blackout
        injector.apply(1.0)
        assert not autopilot.link.blackout
        injector.apply(2.0)
        assert autopilot.link.burst_model is not None
        injector.apply(3.0)
        assert autopilot.link.burst_model is None


# -- perception injector -------------------------------------------------------------


class TestPerceptionFaultInjector:
    def _drought_injector(self, keep_fraction=0.1, seed=101):
        sequence = load_sequence("MH01", seed=11)
        schedule = FaultSchedule().add(
            FaultKind.FEATURE_DROUGHT, start_s=1.0, end_s=2.0,
            keep_fraction=keep_fraction,
        )
        return sequence, PerceptionFaultInjector(sequence, schedule, seed=seed)

    def test_duck_types_the_sequence(self):
        sequence, injector = self._drought_injector()
        assert injector.frame_count == sequence.frame_count
        assert injector.spec is sequence.spec
        assert injector.camera is sequence.camera
        np.testing.assert_array_equal(
            injector.descriptor_for(3), sequence.descriptor_for(3)
        )

    def test_frames_outside_windows_are_clean(self):
        sequence = load_sequence("MH01", seed=11)
        clean = sequence.generate_frame(5)  # t = 0.25 s, before the window
        sequence2, injector = self._drought_injector()
        faulted = injector.generate_frame(5)
        assert faulted.observation_count == clean.observation_count
        np.testing.assert_array_equal(faulted.descriptors, clean.descriptors)
        np.testing.assert_allclose(faulted.keypoints_px, clean.keypoints_px)

    def test_drought_starves_observations(self):
        sequence = load_sequence("MH01", seed=11)
        clean = sequence.generate_frame(30)  # t = 1.5 s, inside the window
        _, injector = self._drought_injector(keep_fraction=0.1)
        faulted = injector.generate_frame(30)
        assert faulted.observation_count < clean.observation_count * 0.4
        assert injector.droughts_applied == 1

    def test_corruption_flips_descriptors_not_count(self):
        sequence = load_sequence("MH01", seed=11)
        schedule = FaultSchedule().add(
            FaultKind.FRAME_CORRUPTION, start_s=1.0, end_s=2.0,
            bit_flip_fraction=0.3, pixel_sigma_px=5.0,
        )
        injector = PerceptionFaultInjector(sequence, schedule, seed=101)
        clean = load_sequence("MH01", seed=11).generate_frame(30)
        faulted = injector.generate_frame(30)
        assert faulted.observation_count == clean.observation_count
        assert np.any(faulted.descriptors != clean.descriptors)
        assert np.any(np.abs(faulted.keypoints_px - clean.keypoints_px) > 0.5)
        assert injector.corruptions_applied == 1

    def test_injected_frames_are_deterministic(self):
        frames_a = [self._drought_injector()[1].generate_frame(i) for i in range(40)]
        frames_b = [self._drought_injector()[1].generate_frame(i) for i in range(40)]
        for a, b in zip(frames_a, frames_b):
            assert a.observation_count == b.observation_count
            np.testing.assert_array_equal(a.descriptors, b.descriptors)
            np.testing.assert_allclose(a.keypoints_px, b.keypoints_px)

    def test_throttle_scale_and_frame_scales(self):
        sequence = load_sequence("MH01", seed=11)
        schedule = FaultSchedule().add(
            FaultKind.COMPUTE_THROTTLE, start_s=1.0, end_s=2.0, scale=0.5
        )
        injector = PerceptionFaultInjector(sequence, schedule, seed=101)
        assert injector.throttle_scale(0.5) == 1.0
        assert injector.throttle_scale(1.5) == 0.5
        scales = injector.frame_scales(60)
        assert scales[10] == 1.0  # t = 0.5 s
        assert scales[30] == 0.5  # t = 1.5 s
        assert scales[50] == 1.0  # t = 2.5 s

    def test_perception_scenarios_are_well_formed(self):
        scenarios = perception_scenarios()
        assert len(scenarios) >= 5
        assert len({s.name for s in scenarios}) == len(scenarios)
        for scenario in scenarios:
            assert scenario.frames > 0
            assert scenario.schedule_factory().events


# -- failsafe state machine ----------------------------------------------------------


class TestFailsafeStateMachine:
    def test_low_battery_escalates_to_rtl(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        fly(autopilot, 4.0)
        autopilot.sim.battery.inject_drain(
            autopilot.sim.battery.capacity_mah * 0.78
        )
        autopilot.update(0.1)
        assert autopilot.failsafe is FailsafeState.FAILSAFE_RTL
        assert autopilot.mode is FlightMode.RTL
        assert autopilot.failsafe_triggered

    def test_critical_battery_escalates_to_land(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        fly(autopilot, 4.0)
        autopilot.sim.battery.inject_drain(
            autopilot.sim.battery.capacity_mah * 0.86
        )
        autopilot.update(0.1)
        assert autopilot.failsafe is FailsafeState.FAILSAFE_LAND
        assert autopilot.mode is FlightMode.LAND

    def test_failsafe_never_deescalates(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        fly(autopilot, 4.0)
        autopilot.sim.battery.inject_drain(
            autopilot.sim.battery.capacity_mah * 0.86
        )
        autopilot.update(0.1)
        assert autopilot.failsafe is FailsafeState.FAILSAFE_LAND
        autopilot._enter_failsafe(FailsafeState.FAILSAFE_RTL, "should not apply")
        assert autopilot.failsafe is FailsafeState.FAILSAFE_LAND
        assert autopilot.failsafe_cause == "critical battery"

    def test_gps_loss_degrades_then_lands(self):
        autopilot = make_autopilot(use_ekf=True)
        autopilot.arm()
        autopilot.takeoff(4.0)
        fly(autopilot, 4.0)
        autopilot.sim.sensors.gps.available = False
        fly(autopilot, 2.0)
        assert autopilot.failsafe is FailsafeState.DEGRADED
        assert "dead-reckoning" in autopilot.failsafe_cause
        fly(autopilot, autopilot.GPS_LOSS_LAND_S)
        assert autopilot.failsafe is FailsafeState.FAILSAFE_LAND

    def test_gps_recovery_clears_degraded(self):
        autopilot = make_autopilot(use_ekf=True)
        autopilot.arm()
        autopilot.takeoff(4.0)
        fly(autopilot, 4.0)
        autopilot.sim.sensors.gps.available = False
        fly(autopilot, 2.0)
        assert autopilot.failsafe is FailsafeState.DEGRADED
        autopilot.sim.sensors.gps.available = True
        fly(autopilot, 1.0)
        assert autopilot.failsafe is FailsafeState.NOMINAL
        assert autopilot.failsafe_cause is None

    def test_link_loss_triggers_rtl_only_after_heartbeat_seen(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        # Silence without ever hearing a GCS: no link failsafe (no GCS case).
        fly(autopilot, autopilot.LINK_LOSS_TIMEOUT_S + 2.0)
        assert autopilot.failsafe is FailsafeState.NOMINAL
        autopilot.link.send(MessageType.HEARTBEAT)
        autopilot.update(0.1)
        fly(autopilot, autopilot.LINK_LOSS_TIMEOUT_S + 1.0)
        assert autopilot.failsafe is FailsafeState.FAILSAFE_RTL
        assert autopilot.failsafe_cause == "link loss"

    def test_heartbeats_keep_link_failsafe_quiet(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(80):
            autopilot.link.send(MessageType.HEARTBEAT)
            autopilot.update(0.1)
        assert autopilot.failsafe is FailsafeState.NOMINAL

    def test_pose_watchdog_fallback_and_recovery(self):
        autopilot = make_autopilot()
        autopilot.pose_watchdog = PoseStalenessWatchdog(staleness_threshold_s=0.5)
        autopilot.arm()
        autopilot.takeoff(4.0)
        autopilot.pose_watchdog.note_pose(autopilot.sim.time_s)
        fly(autopilot, 1.0)  # poses stop arriving
        assert autopilot.failsafe is FailsafeState.DEGRADED
        assert "onboard SLAM fallback" in autopilot.failsafe_cause
        autopilot.pose_watchdog.note_pose(autopilot.sim.time_s)
        autopilot.update(0.1)
        assert autopilot.failsafe is FailsafeState.NOMINAL

    def test_disarmed_vehicle_raises_no_failsafes(self):
        autopilot = make_autopilot()
        autopilot.sim.battery.inject_drain(
            autopilot.sim.battery.capacity_mah * 0.9
        )
        autopilot.update(0.1)
        assert autopilot.failsafe is FailsafeState.NOMINAL


class TestWatchdogUnit:
    def test_transitions(self):
        watchdog = PoseStalenessWatchdog(staleness_threshold_s=0.5)
        watchdog.note_pose(0.0)
        assert watchdog.update(0.4) is None
        assert watchdog.update(0.6) == "fallback"
        assert watchdog.update(0.7) is None  # no repeat while stale
        watchdog.note_pose(0.7)
        assert watchdog.update(0.8) == "recovered"
        assert watchdog.fallbacks == 1

    def test_note_pose_monotonic(self):
        watchdog = PoseStalenessWatchdog()
        watchdog.note_pose(5.0)
        watchdog.note_pose(2.0)
        assert watchdog.last_pose_s == 5.0


class TestOffboardNodeFaults:
    def _node(self, **kwargs) -> OffboardComputeNode:
        from repro.platforms.profiles import rpi4_profile

        return OffboardComputeNode(platform=rpi4_profile(), link=Link(), **kwargs)

    def test_crash_window(self):
        node = self._node(crash_at_s=2.0, recover_at_s=5.0)
        assert not node._node_down(1.9)
        assert node._node_down(2.0)
        assert node._node_down(4.9)
        assert not node._node_down(5.0)

    def test_crash_without_recovery_is_permanent(self):
        node = self._node(crash_at_s=2.0)
        assert node._node_down(1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._node(stall_windows=((3.0, 1.0),))
        with pytest.raises(ValueError):
            self._node(crash_at_s=5.0, recover_at_s=4.0)
        with pytest.raises(ValueError):
            PoseStalenessWatchdog(staleness_threshold_s=0.0)


class TestMixerHealth:
    def test_health_scales_ceiling(self):
        autopilot = make_autopilot()
        mixer = autopilot.sim.controller.thrust_controller.mixer
        mixer.set_motor_health(1, 0.4)
        thrusts = mixer.mix(4 * mixer.max_thrust_per_motor_n, np.zeros(3))
        assert thrusts[1] <= 0.4 * mixer.max_thrust_per_motor_n + 1e-9
        # Even the half-collective desaturation floor cannot fit under a
        # 0.4 ceiling, so this mix counts as saturated.
        assert mixer.saturations >= 1

    def test_attitude_priority_preserves_torque_direction(self):
        """Saturated mixes shed collective, not roll/pitch authority."""
        autopilot = make_autopilot()
        mixer = autopilot.sim.controller.thrust_controller.mixer
        demand = 4 * mixer.max_thrust_per_motor_n
        torque = np.array([0.4, 0.0, 0.0])
        thrusts = mixer.mix(demand, torque)
        # Positive roll torque needs the +y rotors above the -y rotors.
        roll = (
            thrusts[0] + thrusts[2] - thrusts[1] - thrusts[3]
        ) * mixer.arm_length_m * np.sin(np.pi / 4)
        assert roll > 0.0
        assert np.sum(thrusts) < demand  # collective was shed

    def test_health_validation(self):
        autopilot = make_autopilot()
        mixer = autopilot.sim.controller.thrust_controller.mixer
        with pytest.raises(ValueError):
            mixer.set_motor_health(4, 0.5)
        with pytest.raises(ValueError):
            mixer.set_motor_health(0, 1.5)


# -- reliable command channel --------------------------------------------------------


class TestReliableCommander:
    def test_command_acked_on_clean_link(self):
        vehicle = connect()
        commander = vehicle.commander()
        outcome = commander.send_command(Command.ARM_DISARM, (1.0,))
        assert outcome.acked and outcome.accepted
        assert outcome.attempts == 1
        assert vehicle.armed

    def test_rejected_command_acks_failed(self):
        vehicle = connect()
        commander = vehicle.commander()
        # Arming on a drained battery is refused by pre-arm checks: the GCS
        # must get an ACK_FAILED rather than silence.
        battery = vehicle._autopilot.sim.battery
        battery.inject_drain(battery.capacity_mah * 0.8)
        outcome = commander.send_command(Command.ARM_DISARM, (1.0,))
        assert outcome.acked and not outcome.accepted
        assert not vehicle.armed

    def test_retries_through_lossy_link(self):
        model = DroneModel(
            mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
            battery_capacity_mah=3000.0,
        )
        sim = FlightSimulator(model, physics_rate_hz=400.0)
        autopilot = Autopilot(sim, link=Link(loss_probability=0.7, seed=4))
        commander = ReliableCommander(autopilot, timeout_s=0.3, max_retries=8)
        outcome = commander.send_command(Command.ARM_DISARM, (1.0,))
        assert outcome.acked and outcome.accepted
        assert outcome.attempts > 1
        assert autopilot.armed

    def test_gives_up_during_blackout(self):
        vehicle = connect()
        vehicle._autopilot.link.blackout = True
        commander = ReliableCommander(
            vehicle._autopilot, timeout_s=0.2, max_retries=2
        )
        outcome = commander.send_command(Command.ARM_DISARM, (1.0,))
        assert not outcome.acked
        assert outcome.attempts == 3
        assert not vehicle.armed

    def test_backoff_caps(self):
        vehicle = connect()
        commander = ReliableCommander(
            vehicle._autopilot,
            timeout_s=1.0, max_retries=3, backoff_factor=4.0, max_backoff_s=2.0,
        )
        vehicle._autopilot.link.blackout = True
        outcome = commander.send_command(Command.LAND)
        # 1.0 + 2.0 + 2.0 + 2.0 of simulated waiting (cap at 2 s per retry).
        assert outcome.elapsed_s == pytest.approx(7.0, abs=0.5)

    def test_validation(self):
        vehicle = connect()
        with pytest.raises(ValueError):
            ReliableCommander(vehicle._autopilot, timeout_s=0.0)
        with pytest.raises(ValueError):
            ReliableCommander(vehicle._autopilot, max_retries=-1)
        with pytest.raises(ValueError):
            ReliableCommander(vehicle._autopilot, backoff_factor=0.5)
