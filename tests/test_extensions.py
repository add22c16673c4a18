"""Tests for the extension features: the inner-loop rate plateau, outer-loop
deadline analysis, MAVLink computation offloading, and battery C-rating
feasibility."""

import numpy as np
import pytest

from repro.autopilot.mavlink import Link
from repro.autopilot.offload import (
    OffboardComputeNode,
    evaluate_offload,
)
from repro.control.attitude import AttitudeController
from repro.control.mixer import MotorMixer
from repro.core import equations
from repro.core.design import DroneDesign
from repro.platforms.deadlines import (
    corun_deadline_comparison,
    slam_frame_deadlines,
)
from repro.platforms.profiles import fpga_profile, rpi4_profile, tx2_profile
from repro.physics import constants
from repro.physics.environment import Wind
from repro.physics.rigid_body import QuadcopterBody


def _gust_rejection_rms(rate_hz: float, duration_s: float = 4.0) -> float:
    """Hold zero attitude with the PID attitude loop under gusty torque
    disturbances; return RMS roll."""
    body = QuadcopterBody(mass_kg=1.0, arm_length_m=0.225)
    inertia = body.inertia_kg_m2
    dt = 1.0 / rate_hz
    rng = np.random.default_rng(6)
    gust_torque = 0.0
    pid = AttitudeController(inertia_kg_m2=inertia)
    rolls = []
    hover = body.mass_kg * constants.GRAVITY_M_S2 / 4.0
    mixer = MotorMixer(arm_length_m=0.225, max_thrust_per_motor_n=hover * 4)
    steps = int(duration_s * rate_hz)
    for _ in range(steps):
        # Ornstein-Uhlenbeck gust torque about the roll axis.
        gust_torque = 0.995 * gust_torque + 0.02 * rng.standard_normal()
        state = body.state
        torque = pid.update(
            np.zeros(3), state.euler_rad, state.angular_velocity_rad_s, dt
        )
        thrusts = mixer.mix(4 * hover, torque)
        body.step(thrusts, dt)
        # Inject the gust directly as angular acceleration.
        body.state.angular_velocity_rad_s[0] += (
            gust_torque / inertia[0, 0] * dt
        )
        rolls.append(float(body.state.euler_rad[0]))
    return float(np.sqrt(np.mean(np.square(rolls))))


class TestInnerLoopRateSufficiency:
    def test_rate_increase_plateaus(self):
        """The paper's core inner-loop claim: beyond a few hundred Hz the
        update rate buys nothing — physics, not compute, is the limit."""
        rms_100 = _gust_rejection_rms(rate_hz=100.0, duration_s=3.0)
        rms_500 = _gust_rejection_rms(rate_hz=500.0, duration_s=3.0)
        rms_1000 = _gust_rejection_rms(rate_hz=1000.0, duration_s=3.0)
        # 100 -> 500 Hz helps (or at least does not hurt)...
        assert rms_500 <= rms_100 * 1.2
        # ...but 500 -> 1000 Hz is within noise of each other.
        assert abs(rms_1000 - rms_500) < 0.5 * max(rms_500, rms_1000)


class TestDeadlines:
    def test_dedicated_rpi_meets_frame_deadlines(self, slam_mh01):
        report = slam_frame_deadlines(slam_mh01, rpi4_profile())
        assert report.miss_rate < 0.30
        assert report.worst_latency_s < 1.0

    def test_corun_increases_misses(self, slam_mh01, interference):
        dedicated, shared = corun_deadline_comparison(
            slam_mh01, rpi4_profile(), interference.ipc_degradation
        )
        assert shared.misses >= dedicated.misses
        assert shared.mean_latency_s > dedicated.mean_latency_s

    def test_fpga_eliminates_misses(self, slam_mh01):
        report = slam_frame_deadlines(slam_mh01, fpga_profile())
        assert report.meets_realtime

    def test_validation(self, slam_mh01):
        with pytest.raises(ValueError):
            slam_frame_deadlines(slam_mh01, rpi4_profile(), frame_rate_hz=0.0)
        with pytest.raises(ValueError):
            corun_deadline_comparison(slam_mh01, rpi4_profile(), 0.5)


class TestOffload:
    def test_faster_node_lower_staleness(self, slam_mh01):
        rpi = evaluate_offload(slam_mh01, rpi4_profile())
        tx2 = evaluate_offload(slam_mh01, tx2_profile())
        assert tx2.mean_staleness_s < rpi.mean_staleness_s

    def test_latency_adds_to_staleness(self, slam_mh01):
        near = evaluate_offload(slam_mh01, tx2_profile(), one_way_latency_s=0.005)
        far = evaluate_offload(slam_mh01, tx2_profile(), one_way_latency_s=0.100)
        assert far.mean_staleness_s > near.mean_staleness_s + 0.150

    def test_lossy_link_drops_and_widens_gaps(self, slam_mh01):
        clean = evaluate_offload(slam_mh01, tx2_profile(), loss_probability=0.0)
        lossy = evaluate_offload(slam_mh01, tx2_profile(), loss_probability=0.4)
        assert lossy.dropped > clean.dropped
        assert lossy.delivery_rate < 0.8
        assert lossy.worst_update_gap_s > clean.worst_update_gap_s

    def test_staleness_at_least_round_trip(self, slam_mh01):
        report = evaluate_offload(
            slam_mh01, fpga_profile(), one_way_latency_s=0.020
        )
        assert report.mean_staleness_s >= 0.040

    def test_validation(self, slam_mh01):
        with pytest.raises(ValueError):
            OffboardComputeNode(
                platform=rpi4_profile(), link=Link(), one_way_latency_s=-1.0
            )


class TestCRatingFeasibility:
    def test_required_c_rating_formula(self):
        # 40 A total from a 2 Ah pack with 1.2 safety -> 24C.
        assert equations.required_c_rating(2000.0, 40.0) == pytest.approx(24.0)

    def test_reported_in_evaluation(self):
        evaluation = DroneDesign(
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=3000.0,
        ).evaluate()
        assert 0.0 < evaluation.required_battery_c_rating < 60.0

    def test_tiny_pack_on_big_drone_infeasible(self):
        """A 300 mAh pack cannot feed a 2 kg drone's motors."""
        design = DroneDesign(
            wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=300.0,
            payload_g=1500.0,
        )
        with pytest.raises(equations.InfeasibleDesignError):
            design.evaluate()

    def test_validation(self):
        with pytest.raises(ValueError):
            equations.required_c_rating(0.0, 10.0)
        with pytest.raises(ValueError):
            equations.required_c_rating(1000.0, 10.0, safety_factor=0.5)
