"""Tests: the ESC thermal model that derives the paper's short-/long-flight
classification."""

import math

import pytest

from repro.components.esc import EscClass, esc_unit_weight_g
from repro.physics.thermal import (
    ThermalModel,
    esc_dissipation_w,
    esc_thermal_model,
)


class TestThermalModel:
    def test_steady_state(self):
        model = ThermalModel(
            thermal_resistance_c_per_w=10.0, thermal_capacity_j_per_c=50.0
        )
        assert model.steady_state_c(5.0) == pytest.approx(75.0)

    def test_step_converges_to_steady_state(self):
        model = ThermalModel(
            thermal_resistance_c_per_w=10.0, thermal_capacity_j_per_c=50.0
        )
        for _ in range(100):
            model.step(5.0, 60.0)
        assert model.temperature_c == pytest.approx(75.0, abs=0.5)

    def test_time_to_limit_closed_form(self):
        model = ThermalModel(
            thermal_resistance_c_per_w=10.0, thermal_capacity_j_per_c=50.0
        )
        predicted = model.time_to_limit_s(12.0)  # steady 145 > 110
        # Verify by integration.
        probe = ThermalModel(
            thermal_resistance_c_per_w=10.0, thermal_capacity_j_per_c=50.0
        )
        elapsed = 0.0
        while not probe.overheated:
            probe.step(12.0, 1.0)
            elapsed += 1.0
            assert elapsed < 10_000
        assert elapsed == pytest.approx(predicted, rel=0.05)

    def test_never_overheats_below_limit(self):
        model = ThermalModel(
            thermal_resistance_c_per_w=5.0, thermal_capacity_j_per_c=50.0
        )
        assert model.time_to_limit_s(10.0) == math.inf


class TestEscClassDerivation:
    """The headline: the thermal model *derives* Figure 8a's class split."""

    RATED_CURRENT_A = 30.0

    def test_racing_esc_overheats_past_5_minutes(self):
        weight = esc_unit_weight_g(self.RATED_CURRENT_A, EscClass.SHORT_FLIGHT)
        model = esc_thermal_model(EscClass.SHORT_FLIGHT, weight)
        dissipation = esc_dissipation_w(self.RATED_CURRENT_A)
        time_to_limit = model.time_to_limit_s(dissipation)
        # The paper's racing classification: "Short-flight (under 5 minutes)".
        assert 120.0 < time_to_limit < 720.0

    def test_long_flight_esc_never_overheats_at_rated_load(self):
        weight = esc_unit_weight_g(self.RATED_CURRENT_A, EscClass.LONG_FLIGHT)
        model = esc_thermal_model(EscClass.LONG_FLIGHT, weight)
        dissipation = esc_dissipation_w(self.RATED_CURRENT_A)
        assert model.time_to_limit_s(dissipation) == math.inf

    def test_both_classes_fine_at_hover_load(self):
        hover_current = 8.0
        for esc_class in EscClass:
            weight = esc_unit_weight_g(self.RATED_CURRENT_A, esc_class)
            model = esc_thermal_model(esc_class, weight)
            assert model.time_to_limit_s(
                esc_dissipation_w(hover_current)
            ) == math.inf

    def test_heavier_esc_cooler(self):
        light = esc_thermal_model(EscClass.LONG_FLIGHT, 15.0)
        heavy = esc_thermal_model(EscClass.LONG_FLIGHT, 60.0)
        assert heavy.steady_state_c(5.0) < light.steady_state_c(5.0)

