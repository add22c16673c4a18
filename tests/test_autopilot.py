"""Unit/integration tests: MAVLink-like protocol, autopilot, DroneKit API."""

import numpy as np
import pytest

from repro.autopilot.arducopter import (
    ArmingError,
    Autopilot,
    FailsafeState,
    FlightMode,
    MissionItem,
)
from repro.autopilot.dronekit import connect
from repro.autopilot.mavlink import (
    ACK_ACCEPTED,
    ACK_FAILED,
    Command,
    FrameError,
    Link,
    Message,
    MessageType,
    _checksum,
    decode,
)
from repro.sim.simulator import DroneModel, FlightSimulator


def make_autopilot() -> Autopilot:
    model = DroneModel(
        mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
        battery_capacity_mah=3000.0,
    )
    return Autopilot(FlightSimulator(model, physics_rate_hz=400.0))


class TestMavlink:
    def test_encode_decode_roundtrip(self):
        message = Message(
            MessageType.SET_POSITION_TARGET, (1.0, 2.0, 3.0), sequence=7
        )
        decoded = decode(message.encode())
        assert decoded.message_type is MessageType.SET_POSITION_TARGET
        assert decoded.payload == pytest.approx((1.0, 2.0, 3.0))
        assert decoded.sequence == 7

    def test_checksum_detects_corruption(self):
        frame = bytearray(Message(MessageType.HEARTBEAT).encode())
        frame[2] ^= 0xFF
        with pytest.raises(FrameError):
            decode(bytes(frame))

    def test_checksum_is_crc16_mcrf4xx(self):
        """The CRC-16/MCRF4XX check value, and the byte-at-a-time X.25
        accumulation MAVLink specifies, on frames of 0-300 bytes."""
        assert _checksum(b"123456789") == 0x6F91

        def byte_loop(data: bytes) -> int:
            crc = 0xFFFF
            for byte in data:
                tmp = byte ^ (crc & 0xFF)
                tmp = (tmp ^ (tmp << 4)) & 0xFF
                crc = ((crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^ (tmp >> 4)) & 0xFFFF
            return crc

        rng = np.random.default_rng(29)
        for length in list(range(80)) + rng.integers(80, 301, size=60).tolist():
            frame = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            assert _checksum(frame) == byte_loop(frame), length

    def test_single_bit_flip_rejected(self):
        frame = Message(MessageType.STATE_REPORT, (1.0, -2.5, 3.25)).encode()
        for bit in range(8 * len(frame)):
            corrupted = bytearray(frame)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameError, match="checksum mismatch"):
                decode(bytes(corrupted))

    def test_short_frame_rejected(self):
        with pytest.raises(FrameError):
            decode(b"\xfd\x00")

    def test_link_delivery(self):
        link = Link()
        link.send(MessageType.HEARTBEAT)
        link.send(MessageType.STATE_REPORT, (0.9,))
        messages = link.drain()
        assert [m.message_type for m in messages] == [
            MessageType.HEARTBEAT, MessageType.STATE_REPORT,
        ]
        assert link.receive() is None

    def test_lossy_link_drops(self):
        link = Link(loss_probability=0.5, seed=1)
        for _ in range(200):
            link.send(MessageType.HEARTBEAT)
        assert 60 < link.delivered < 140
        assert link.sent == 200

    def test_sequence_numbers_increment(self):
        link = Link()
        link.send(MessageType.HEARTBEAT)
        link.send(MessageType.HEARTBEAT)
        first, second = link.drain()
        assert second.sequence == first.sequence + 1

    def test_loss_probability_validation(self):
        with pytest.raises(ValueError):
            Link(loss_probability=1.0)


class TestAutopilot:
    def test_arm_and_takeoff(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(60):
            autopilot.update(0.1)
        assert autopilot.sim.body.state.position_m[2] == pytest.approx(4.0, abs=0.4)

    def test_cannot_takeoff_disarmed(self):
        autopilot = make_autopilot()
        with pytest.raises(ArmingError):
            autopilot.takeoff(3.0)

    def test_cannot_arm_twice(self):
        autopilot = make_autopilot()
        autopilot.arm()
        with pytest.raises(ArmingError):
            autopilot.arm()

    def test_refuses_disarm_in_air(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(50):
            autopilot.update(0.1)
        with pytest.raises(ArmingError):
            autopilot.disarm()

    def test_low_battery_arming_check(self):
        autopilot = make_autopilot()
        autopilot.sim.battery.used_mah = autopilot.sim.battery.capacity_mah * 0.8
        with pytest.raises(ArmingError, match="battery"):
            autopilot.arm()

    def test_land_mode_descends(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(50):
            autopilot.update(0.1)
        autopilot.set_mode(FlightMode.LAND)
        for _ in range(80):
            autopilot.update(0.1)
        assert autopilot.sim.body.state.position_m[2] < 0.5

    def test_rtl_returns_home(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(50):
            autopilot.update(0.1)
        autopilot.goto(np.array([6.0, 0.0, 4.0]))
        for _ in range(60):
            autopilot.update(0.1)
        autopilot.set_mode(FlightMode.RTL)
        for _ in range(80):
            autopilot.update(0.1)
        position = autopilot.sim.body.state.position_m
        assert np.linalg.norm(position[0:2]) < 1.0

    def test_battery_failsafe_triggers_rtl(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(30):
            autopilot.update(0.1)
        # Drain the battery to just under the low-battery threshold.
        battery = autopilot.sim.battery
        battery.used_mah = battery.capacity_mah * (
            1.0 - Autopilot.LOW_BATTERY_SOC
        ) + 1.0
        autopilot.update(0.1)
        assert autopilot.failsafe in (
            FailsafeState.FAILSAFE_RTL, FailsafeState.FAILSAFE_LAND,
        )
        assert autopilot.mode in (FlightMode.RTL, FlightMode.LAND)

    def test_mission_execution(self):
        autopilot = make_autopilot()
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(50):
            autopilot.update(0.1)
        autopilot.upload_mission([
            MissionItem(np.array([3.0, 0.0, 4.0])),
            MissionItem(np.array([3.0, 3.0, 4.0])),
        ])
        autopilot.set_mode(FlightMode.AUTO)
        for _ in range(250):
            autopilot.update(0.1)
            if autopilot.mission_complete:
                break
        assert autopilot.mission_complete

    def test_mission_progress_fraction(self):
        autopilot = make_autopilot()
        # no mission uploaded: progress is defined and zero
        assert autopilot.mission_progress == 0.0
        autopilot.arm()
        autopilot.takeoff(4.0)
        for _ in range(50):
            autopilot.update(0.1)
        autopilot.upload_mission([
            MissionItem(np.array([3.0, 0.0, 4.0])),
            MissionItem(np.array([3.0, 3.0, 4.0])),
        ])
        assert autopilot.mission_progress == 0.0
        autopilot.set_mode(FlightMode.AUTO)
        seen = [autopilot.mission_progress]
        for _ in range(250):
            autopilot.update(0.1)
            seen.append(autopilot.mission_progress)
            if autopilot.mission_complete:
                break
        # progress climbs monotonically through 0.5 to 1.0 and saturates
        assert autopilot.mission_progress == 1.0
        assert 0.5 in seen
        assert all(b >= a for a, b in zip(seen, seen[1:]))
        assert max(seen) <= 1.0

    def test_command_long_over_link(self):
        autopilot = make_autopilot()
        autopilot.link.send(
            MessageType.COMMAND_LONG, (float(Command.ARM_DISARM), 1.0)
        )
        autopilot.update(0.1)
        assert autopilot.armed
        autopilot.link.send(
            MessageType.COMMAND_LONG, (float(Command.TAKEOFF), 3.0)
        )
        for _ in range(50):
            autopilot.update(0.1)
        assert autopilot.sim.body.state.position_m[2] > 2.0

    @staticmethod
    def arm_over_link(autopilot: Autopilot) -> list:
        """Send ARM as a COMMAND_LONG; return the ACK payloads downlinked."""
        autopilot.link.send(
            MessageType.COMMAND_LONG, (float(Command.ARM_DISARM), 1.0)
        )
        autopilot.update(0.1)
        return [m.payload for m in autopilot.link.drain()
                if m.message_type is MessageType.ACK]

    def test_command_acked_on_clean_link(self):
        autopilot = make_autopilot()
        assert self.arm_over_link(autopilot) == [
            (float(Command.ARM_DISARM), ACK_ACCEPTED, 0.0)]
        assert autopilot.armed

    def test_rejected_command_acks_failed(self):
        # Arming on a drained battery is refused by the pre-arm checks: the
        # ground station gets ACK_FAILED rather than silence.
        autopilot = make_autopilot()
        battery = autopilot.sim.battery
        battery.inject_drain(battery.capacity_mah * 0.8)
        assert self.arm_over_link(autopilot) == [
            (float(Command.ARM_DISARM), ACK_FAILED, 0.0)]
        assert not autopilot.armed

    def test_state_reports_downlinked(self):
        autopilot = make_autopilot()
        autopilot.update(0.1)
        reports = [
            m for m in autopilot.link.drain()
            if m.message_type is MessageType.STATE_REPORT
        ]
        assert reports
        assert len(reports[0].payload) == 7


class TestDroneKit:
    def test_connect_and_fly(self):
        vehicle = connect()
        vehicle.armed = True
        vehicle.simple_takeoff(4.0, wait_s=6.0)
        assert vehicle.location.altitude == pytest.approx(4.0, abs=0.5)
        vehicle.simple_goto(3.0, 2.0, 4.0, wait_s=6.0)
        assert vehicle.location.east == pytest.approx(3.0, abs=0.5)
        assert vehicle.location.north == pytest.approx(2.0, abs=0.5)
        vehicle.close()

    def test_mode_property(self):
        vehicle = connect()
        assert vehicle.mode == "STABILIZE"
        vehicle.mode = "GUIDED"
        assert vehicle.mode == "GUIDED"

    def test_battery_attribute(self):
        vehicle = connect()
        assert vehicle.battery.level == pytest.approx(1.0)
        assert vehicle.battery.voltage > 11.0

    def test_mission_api(self):
        vehicle = connect()
        vehicle.armed = True
        vehicle.simple_takeoff(4.0, wait_s=6.0)
        vehicle.upload_mission([[2.0, 0.0, 4.0]])
        vehicle.mode = "AUTO"
        vehicle.wait(12.0)
        # The mission completes and the autopilot returns to launch.
        assert vehicle._autopilot.mission_complete
        assert vehicle.mode in ("RTL", "LAND")
        assert abs(vehicle.location.east) < 1.0

    def test_events_logged(self):
        vehicle = connect()
        vehicle.armed = True
        events = [event for _, event in vehicle.events()]
        assert "armed" in events

    def test_wait_validation(self):
        vehicle = connect()
        with pytest.raises(ValueError):
            vehicle.wait(0.0)
