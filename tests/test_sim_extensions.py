"""Tests: SLAM-aided GPS-denied navigation."""

import numpy as np
import pytest

from repro.sim.simulator import DroneModel, FlightSimulator


def model_450() -> DroneModel:
    return DroneModel(
        mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
        battery_capacity_mah=3000.0,
    )


class TestSlamAidedNavigation:
    def _fly_gps_denied(self, with_fixes: bool) -> float:
        """Return final horizontal EKF error after a GPS-denied flight."""
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0, use_ekf=True)
        sim.sensors.gps.available = False
        sim.goto([0.0, 0.0, 4.0])
        rng = np.random.default_rng(2)
        for _ in range(40):
            sim.run_for(0.25)
            if with_fixes:
                # A SLAM pose: truth plus centimetre noise, at ~4 Hz.
                truth = sim.body.state.position_m
                sim.inject_position_fix(
                    truth + rng.normal(0.0, 0.03, 3), noise_m=0.05
                )
        error = np.linalg.norm(
            sim.ekf.position_m[0:2] - sim.body.state.position_m[0:2]
        )
        return float(error)

    def test_slam_fixes_bound_the_drift(self):
        drift_without = self._fly_gps_denied(with_fixes=False)
        drift_with = self._fly_gps_denied(with_fixes=True)
        assert drift_with < 0.25
        assert drift_with < drift_without

    def test_fix_requires_ekf_mode(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0, use_ekf=False)
        with pytest.raises(RuntimeError):
            sim.inject_position_fix(np.zeros(3))

    def test_fix_noise_validation(self):
        sim = FlightSimulator(model_450(), physics_rate_hz=400.0, use_ekf=True)
        with pytest.raises(ValueError):
            sim.inject_position_fix(np.zeros(3), noise_m=0.0)

