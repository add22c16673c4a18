"""EKF-in-the-loop flight below 200 Hz physics.

The suite fires the IMU on the physics grid: at 100 Hz every 10 ms, at
500 Hz after 2 or 3 ticks.  ``SensorSuite.poll`` sums the tick dts since
the IMU's last fire; ``Imu.sample`` differentiates velocity over that sum
and ``FlightSimulator.step`` hands it to ``InsEkf.predict``.  Over the
nominal 5 ms period instead, a noise-free IMU under a true 1.0 m/s^2
acceleration read 2.0 at 100 Hz, and the filter integrated the doubled
reading over half the elapsed time, so the estimate diverged.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import (
    CampaignConfig,
    VERDICT_SAFE,
    generate_trial,
    run_trials_ensemble,
)
from repro.faults.schedule import FaultSchedule
from repro.physics.rigid_body import QuadcopterState
from repro.sensors.imu import Imu
from repro.sensors.suite import SensorSuite
from repro.sim.simulator import DroneModel, FlightSimulator

TRUE_ACCEL_M_S2 = 1.0
SQUARE = [(0.0, 0.0, 3.0), (6.0, 0.0, 3.0), (6.0, 6.0, 3.0), (0.0, 6.0, 3.0),
          (0.0, 0.0, 3.0)]


def imu_readings(physics_rate_hz: float, polls: int = 12) -> list:
    """x accelerometer readings of a noise-free IMU under constant
    acceleration along x, polled on the physics grid."""
    suite = SensorSuite(imu=Imu(accel_noise_m_s2=0.0, gyro_noise_rad_s=0.0))
    dt = 1.0 / physics_rate_hz
    time_s = 0.0
    readings = []
    for _ in range(polls):
        time_s += dt
        state = QuadcopterState(
            velocity_m_s=np.array([TRUE_ACCEL_M_S2 * time_s, 0.0, 0.0])
        )
        fired = suite.poll(state, dt)
        if fired.imu_fired:
            readings.append(float(fired.accel_body_m_s2[0]))
    # The first fire has no previous velocity to differentiate.
    return readings[1:]


def test_imu_reads_true_acceleration_on_its_own_grid():
    readings = imu_readings(200.0)
    assert readings == pytest.approx([TRUE_ACCEL_M_S2] * len(readings), abs=1e-9)


def test_imu_reads_true_acceleration_at_100_hz():
    readings = imu_readings(100.0)
    assert readings == pytest.approx([TRUE_ACCEL_M_S2] * len(readings), abs=1e-9)


def test_imu_reads_true_acceleration_at_500_hz():
    """The IMU fires 2 or 3 ticks apart at 500 Hz."""
    readings = imu_readings(500.0, polls=30)
    assert readings == pytest.approx([TRUE_ACCEL_M_S2] * len(readings), abs=1e-9)


def test_ekf_builds_prediction_matrices_once_per_interval():
    """At 500 Hz the summed IMU intervals take three values (the first fire
    after one tick, then 2 or 3 ticks), so the filter keeps three entries
    over 801 predictions instead of rebuilding on every fire."""
    sim = FlightSimulator(
        DroneModel(mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
                   battery_capacity_mah=3000.0),
        physics_rate_hz=500.0, use_ekf=True,
    )
    sim.run_for(4.0)
    assert sim.ekf.predictions == 801
    assert [key[0] for key in sim.ekf._predict_matrices] == [0.002, 0.004, 0.006]


def test_ekf_waypoint_flight_at_100_hz():
    """100 Hz, 30 s, waypoint steps, bounded position error, no NaN
    resets."""
    sim = FlightSimulator(
        DroneModel(mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
                   battery_capacity_mah=3000.0),
        physics_rate_hz=100.0, use_ekf=True,
    )
    worst_m = 0.0
    for waypoint in SQUARE:
        sim.goto(waypoint)
        sim.run_for(6.0)
        error = np.linalg.norm(sim.body.state.position_m - np.array(waypoint))
        worst_m = max(worst_m, float(error))
    assert sim.ekf_resets == 0
    assert worst_m < 1.0


def test_fault_free_campaign_trials_are_safe_at_the_default_rate():
    """Campaign defaults with the schedules emptied: EKF and truth-state
    lanes fly one ensemble group, and every trial holds every invariant."""
    config = CampaignConfig()
    specs = [
        replace(generate_trial(config, index), schedule=FaultSchedule(),
                use_ekf=index % 2 == 0)
        for index in range(8)
    ]
    results = run_trials_ensemble(specs, config)
    assert [r.verdict for r in results] == [VERDICT_SAFE] * len(specs)
