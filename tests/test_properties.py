"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.autopilot.mavlink import Message, MessageType, decode
from repro.components.base import linear_fit
from repro.components.battery import battery_weight_g
from repro.components.esc import EscClass, esc_set_weight_g
from repro.control.mixer import MotorMixer
from repro.control.pid import PidController
from repro.core import equations
from repro.physics.battery_model import LipoBattery
from repro.physics.rigid_body import (
    euler_from_quaternion,
    quaternion_from_euler,
    quaternion_to_rotation,
)
from repro.oracles import ScalarCache, ScalarTlb
from repro.platforms.cache import SetAssociativeCache
from repro.platforms.tlb import Tlb
from repro.sim.telemetry import TelemetryRecord

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestQuaternionProperties:
    @given(
        roll=st.floats(-1.5, 1.5),
        pitch=st.floats(-1.4, 1.4),
        yaw=st.floats(-3.1, 3.1),
    )
    def test_euler_quaternion_roundtrip(self, roll, pitch, yaw):
        q = quaternion_from_euler(roll, pitch, yaw)
        assert np.linalg.norm(q) == pytest.approx(1.0)
        recovered = euler_from_quaternion(q)
        assert np.allclose(recovered, [roll, pitch, yaw], atol=1e-8)

    @given(
        roll=st.floats(-3.0, 3.0),
        pitch=st.floats(-1.4, 1.4),
        yaw=st.floats(-3.0, 3.0),
    )
    def test_rotation_preserves_length(self, roll, pitch, yaw):
        rotation = quaternion_to_rotation(quaternion_from_euler(roll, pitch, yaw))
        vector = np.array([1.0, -2.0, 0.5])
        assert np.linalg.norm(rotation @ vector) == pytest.approx(
            np.linalg.norm(vector)
        )


class TestWeightModelProperties:
    @given(cells=st.sampled_from([1, 2, 3, 4, 5, 6]),
           capacity=st.floats(100.0, 10_000.0))
    def test_battery_weight_positive_and_monotone(self, cells, capacity):
        weight = battery_weight_g(cells, capacity)
        assert weight > 0.0
        assert battery_weight_g(cells, capacity + 100.0) > weight

    @given(current=st.floats(5.0, 95.0))
    def test_esc_weight_monotone_in_current(self, current):
        for esc_class in EscClass:
            assert esc_set_weight_g(current + 1.0, esc_class) >= esc_set_weight_g(
                current, esc_class
            )

    @given(
        weight=st.floats(200.0, 5000.0),
        prop=st.sampled_from([2.0, 5.0, 10.0, 20.0]),
        cells=st.sampled_from([1, 2, 3, 4, 5, 6]),
    )
    def test_motor_current_positive_monotone(self, weight, prop, cells):
        voltage = cells * 3.7
        current = equations.motor_max_current_a(weight, prop, voltage)
        assert current > 0.0
        assert equations.motor_max_current_a(weight * 1.5, prop, voltage) > current

    @given(share=st.floats(0.0, 0.9), minutes=st.floats(0.0, 60.0))
    def test_gained_time_nonnegative_and_bounded(self, share, minutes):
        gained = equations.gained_flight_time_min(share, minutes)
        assert gained >= 0.0
        # Eliminating s of power can at most scale time by 1/(1-s).
        assert gained <= minutes * share / (1 - share) + 1e-9


class TestBatteryProperties:
    @given(
        draws=st.lists(
            st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 20.0)),
            min_size=1, max_size=20,
        )
    )
    def test_charge_conservation(self, draws):
        battery = LipoBattery(cells=3, capacity_mah=5000.0, c_rating=50.0)
        expected_mah = 0.0
        for current, duration in draws:
            if current * duration / 3.6 > battery.remaining_mah:
                break
            battery.draw(current, duration)
            expected_mah += current * duration / 3.6
        assert battery.used_mah == pytest.approx(expected_mah)
        assert 0.0 <= battery.state_of_charge <= 1.0

    @given(soc_used=st.floats(0.0, 0.849))
    def test_voltage_monotone_in_soc(self, soc_used):
        battery = LipoBattery(cells=3, capacity_mah=1000.0)
        battery.used_mah = soc_used * 1000.0
        higher = battery.open_circuit_voltage_v()
        battery.used_mah = min(850.0, soc_used * 1000.0 + 50.0)
        lower = battery.open_circuit_voltage_v()
        assert lower <= higher + 1e-9


class TestPidProperties:
    @given(
        kp=st.floats(0.1, 10.0),
        setpoints=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30),
    )
    def test_output_always_within_limits(self, kp, setpoints):
        pid = PidController(kp=kp, ki=1.0, kd=0.1, output_limits=(-2.0, 2.0))
        measurement = 0.0
        for setpoint in setpoints:
            output = pid.update(setpoint, measurement, 0.01)
            assert -2.0 <= output <= 2.0
            measurement += output * 0.01


class TestMixerProperties:
    @given(
        thrust=st.floats(0.0, 30.0),
        tx=st.floats(-0.3, 0.3),
        ty=st.floats(-0.3, 0.3),
        tz=st.floats(-0.05, 0.05),
    )
    def test_outputs_always_within_actuator_range(self, thrust, tx, ty, tz):
        mixer = MotorMixer(arm_length_m=0.225, max_thrust_per_motor_n=8.0)
        thrusts = mixer.mix(thrust, np.array([tx, ty, tz]))
        assert np.all(thrusts >= 0.0)
        assert np.all(thrusts <= 8.0)

    @given(
        thrust=st.floats(4.0, 20.0),
        tx=st.floats(-0.05, 0.05),
        ty=st.floats(-0.05, 0.05),
        tz=st.floats(-0.008, 0.008),
    )
    def test_unsaturated_mix_is_exact_inverse(self, thrust, tx, ty, tz):
        # Torque bounds chosen so every motor keeps positive thrust — the
        # regime where allocation must be an exact inverse (outside it the
        # mixer intentionally sheds yaw authority).
        mixer = MotorMixer(arm_length_m=0.225, max_thrust_per_motor_n=1e9)
        torque = np.array([tx, ty, tz])
        thrusts = mixer.mix(thrust, torque)
        assume(np.all(thrusts > 0.0))
        from repro.physics.rigid_body import QuadcopterBody

        body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
        total, recovered = body.wrench_from_motor_thrusts(
            thrusts, torque_thrust_ratio_m=mixer.torque_thrust_ratio_m
        )
        assert total == pytest.approx(thrust, rel=1e-6, abs=1e-9)
        assert np.allclose(recovered, torque, atol=1e-9)


class TestCacheProperties:
    @given(
        addresses=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300)
    )
    def test_stats_conservation(self, addresses):
        cache = ScalarCache(SetAssociativeCache(size_bytes=4096, associativity=2))
        hits = 0
        for address in addresses:
            if cache.access(address):
                hits += 1
        assert cache.stats.accesses == len(addresses)
        assert cache.stats.misses == len(addresses) - hits

    @given(
        addresses=st.lists(st.integers(0, 1 << 18), min_size=1, max_size=200)
    )
    def test_immediate_rereference_always_hits(self, addresses):
        cache = ScalarCache(SetAssociativeCache(size_bytes=4096, associativity=2))
        for address in addresses:
            cache.access(address)
            assert cache.access(address)

    @given(
        addresses=st.lists(st.integers(0, 1 << 24), min_size=1, max_size=200),
        entries=st.integers(2, 64),
    )
    def test_tlb_residency_bounded(self, addresses, entries):
        tlb = ScalarTlb(Tlb(entries=entries))
        for address in addresses:
            tlb.access(address)
            assert len(tlb._pages) <= entries


class TestProtocolProperties:
    @given(
        payload=st.lists(
            st.floats(-1e6, 1e6, width=32), min_size=0, max_size=12
        ),
        sequence=st.integers(0, 65535),
        message_type=st.sampled_from(list(MessageType)),
    )
    def test_mavlink_roundtrip(self, payload, sequence, message_type):
        message = Message(message_type, tuple(payload), sequence)
        decoded = decode(message.encode())
        assert decoded.message_type is message_type
        assert decoded.sequence == sequence
        assert decoded.payload == pytest.approx(tuple(payload))

    @given(
        time_s=st.floats(0, 1e4, width=32),
        altitude=st.floats(-10, 500, width=32),
        speed=st.floats(0, 40, width=32),
        soc=st.floats(0, 1, width=32),
        voltage=st.floats(3, 26, width=32),
        power=st.floats(0, 1000, width=32),
    )
    def test_telemetry_roundtrip(self, time_s, altitude, speed, soc, voltage,
                                 power):
        record = TelemetryRecord(time_s, altitude, speed, soc, voltage, power)
        decoded = TelemetryRecord.decode(record.encode())
        assert decoded.altitude_m == pytest.approx(altitude, rel=1e-6, abs=1e-6)
        assert decoded.power_w == pytest.approx(power, rel=1e-6, abs=1e-6)


class TestFitProperties:
    @given(
        slope=st.floats(-10.0, 10.0),
        intercept=st.floats(-100.0, 100.0),
        xs=st.lists(st.floats(0.0, 1000.0), min_size=3, max_size=50,
                    unique=True),
    )
    def test_exact_line_always_recovered(self, slope, intercept, xs):
        ys = [slope * x + intercept for x in xs]
        assume(max(xs) - min(xs) > 1.0)
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.intercept == pytest.approx(intercept, abs=1e-4)
