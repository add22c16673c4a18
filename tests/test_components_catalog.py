"""Unit tests: the synthetic census generator and the commercial-drone DB."""

from collections import Counter

import numpy as np
import pytest

from repro.components.base import linear_fit, manufacturer_names
from repro.components.catalog import (
    BATTERY_COUNT,
    ESC_COUNT,
    FRAME_COUNT,
    generate_batteries,
    generate_catalog,
    generate_escs,
    generate_frames,
)
from repro.components.commercial import (
    COMMERCIAL_DRONES,
    FIGURE11_DRONES,
    CommercialDrone,
    drones_for_wheelbase,
)

DRONES = {drone.name: drone for drone in COMMERCIAL_DRONES}


class TestManufacturers:
    def test_150_unique_names(self):
        names = manufacturer_names()
        assert len(names) == 150
        assert len(set(names)) == 150

    def test_deterministic(self):
        assert manufacturer_names() == manufacturer_names()

    def test_count_validation(self):
        with pytest.raises(ValueError):
            manufacturer_names(0)


class TestLinearFit:
    def test_exact_line_recovered(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2.0 * v + 1.0 for v in x]
        fit = linear_fit(x, y)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = linear_fit([0.0, 1.0], [1.0, 3.0])
        assert fit.predict(2.0) == pytest.approx(5.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [2.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            linear_fit([1.0, 2.0], [1.0])


class TestCensusGeneration:
    def test_counts_match_paper(self, catalog):
        assert len(catalog.batteries) == BATTERY_COUNT == 250
        assert len(catalog.escs) == ESC_COUNT == 40
        assert len(catalog.frames) == FRAME_COUNT == 25

    def test_census_size_about_300_components(self, catalog):
        assert catalog.size >= 300

    def test_deterministic_given_seed(self):
        a = generate_catalog(seed=42)
        b = generate_catalog(seed=42)
        assert [x.weight_g for x in a.batteries] == [
            x.weight_g for x in b.batteries
        ]

    def test_different_seed_different_census(self):
        a = generate_catalog(seed=1)
        b = generate_catalog(seed=2)
        assert [x.weight_g for x in a.batteries] != [
            x.weight_g for x in b.batteries
        ]

    def test_all_cell_counts_present(self, catalog):
        per_cells = Counter(battery.cells for battery in catalog.batteries)
        assert set(per_cells) == {1, 2, 3, 4, 5, 6}
        assert min(per_cells.values()) >= 10

    def test_both_esc_classes_present(self, catalog):
        per_class = Counter(esc.esc_class for esc in catalog.escs)
        assert len(per_class) == 2
        assert min(per_class.values()) >= 8

    def test_battery_weights_positive_and_plausible(self, catalog):
        for battery in catalog.batteries:
            assert 1.0 <= battery.weight_g <= 2000.0

    def test_frames_span_indoor_to_large(self, catalog):
        wheelbases = [f.wheelbase_mm for f in catalog.frames]
        assert min(wheelbases) < 200.0
        assert max(wheelbases) > 600.0

    def test_motor_lines_cover_cell_counts(self, catalog):
        cells = set()
        for motor in catalog.motors:
            cells.update(motor.recommended_cells)
        assert {1, 2, 3, 4, 5, 6} <= cells

    def test_manufacturer_census_uses_many_makers(self, catalog):
        makers = {
            item.manufacturer
            for family in (catalog.batteries, catalog.escs, catalog.frames,
                           catalog.motors)
            for item in family
        }
        assert len(makers) >= 50

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            generate_batteries(count=0)
        with pytest.raises(ValueError):
            generate_escs(count=-1)
        with pytest.raises(ValueError):
            generate_frames(count=0)


class TestCommercialDrones:
    def test_database_has_figure11_drones(self):
        names = {d.name for d in COMMERCIAL_DRONES}
        assert set(FIGURE11_DRONES) <= names

    def test_implied_power_of_phantom4(self):
        phantom = DRONES["DJI Phantom 4"]
        assert phantom.average_flight_power_w == pytest.approx(144.0, rel=0.05)

    def test_mambo_is_low_power(self):
        """A 63 g nano drone hovers on ~10-20 W."""
        mambo = DRONES["Parrot Mambo"]
        assert 8.0 < mambo.average_flight_power_w < 25.0

    def test_maneuver_exceeds_hover(self):
        for drone in COMMERCIAL_DRONES:
            assert drone.maneuver_power_w() > drone.hover_power_w()

    def test_heavy_compute_share_band(self):
        """Figure 11: heavy compute reaches 10-20%+ on small drones."""
        for name in ("Parrot Mambo", "DJI Spark"):
            share = DRONES[name].heavy_compute_share_hovering(4.56)
            assert share > 0.05

    def test_wheelbase_query(self):
        near_450 = drones_for_wheelbase(450.0)
        assert any(d.name == "DJI Phantom 4" for d in near_450)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CommercialDrone("x", -5.0, 100.0, 3, 1000.0, 10.0)
        with pytest.raises(ValueError):
            CommercialDrone("x", 500.0, 100.0, 3, 1000.0, -1.0)
