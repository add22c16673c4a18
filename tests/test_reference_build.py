"""Unit tests: the Figure 14 reference drone build."""

import pytest

from repro.reference.build import (
    EXTRA_PAYLOAD_CAPACITY_G,
    FIGURE14_WEIGHTS_G,
    TOTAL_COST_USD,
    avionics_weight_g,
    catalog_consistency,
    simulator_model,
    total_weight_g,
    weight_breakdown,
)


class TestFigure14:
    def test_total_weight(self):
        assert total_weight_g() == pytest.approx(1071.0)

    def test_thirteen_parts(self):
        assert len(FIGURE14_WEIGHTS_G) == 13

    def test_part_weights_match_figure(self):
        assert FIGURE14_WEIGHTS_G["frame"] == 272.0
        assert FIGURE14_WEIGHTS_G["battery"] == 248.0
        assert FIGURE14_WEIGHTS_G["motors"] == 220.0
        assert FIGURE14_WEIGHTS_G["ppm_encoder"] == 9.0

    def test_shares_sum_to_one(self):
        assert sum(p.share for p in weight_breakdown()) == pytest.approx(1.0)

    def test_figure14_percentages(self):
        """The figure labels frame 25%, battery 23%, motors 21%, ESC 10%."""
        shares = {p.name: p.share for p in weight_breakdown()}
        assert shares["frame"] == pytest.approx(0.25, abs=0.01)
        assert shares["battery"] == pytest.approx(0.23, abs=0.01)
        assert shares["motors"] == pytest.approx(0.21, abs=0.01)
        assert shares["esc"] == pytest.approx(0.10, abs=0.01)

    def test_major_components_are_paper_big_four(self):
        assert [p.name for p in weight_breakdown()[:4]] == [
            "frame", "battery", "motors", "esc"]

    def test_cost_and_payload(self):
        assert TOTAL_COST_USD == 500.0
        assert EXTRA_PAYLOAD_CAPACITY_G == 200.0

    def test_avionics_lump_near_80g(self):
        assert avionics_weight_g() == pytest.approx(86.0)

    def test_catalog_consistency_trends(self):
        """Section 3.1 fits land within ~2x of the actual build parts."""
        for name, ratio in catalog_consistency().items():
            assert 0.5 < ratio < 2.0, name

    def test_simulator_model_flies(self):
        from repro.sim.simulator import FlightSimulator

        model = simulator_model()
        sim = FlightSimulator(model, physics_rate_hz=400.0)
        sim.goto([0.0, 0.0, 3.0])
        sim.run_for(6.0)
        assert sim.body.state.position_m[2] == pytest.approx(3.0, abs=0.4)

    def test_hover_power_matches_figure16b(self):
        """The reference build hovers near the paper's ~130 W average."""
        from repro.sim.simulator import FlightSimulator

        sim = FlightSimulator(simulator_model(), physics_rate_hz=400.0)
        sim.goto([0.0, 0.0, 3.0])
        sim.run_for(8.0)
        power = sim.average_power_w(since_s=6.0)
        assert 80.0 < power < 160.0
