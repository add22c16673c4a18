"""Unit tests: DroneDesign evaluation, Figure 10 sweeps, footprint.

The Figure 9-11 numbers are pinned bit for bit by golden vectors under
``tests/fixtures/design/``: three sweeps, a footprint, and 400 seeded
random designs spanning feasible and infeasible space.
"""

import random

import pytest

from repro.components.compute import find_board
from repro.components.esc import EscClass
from repro.components.sensors import find_sensor
from repro.core.design import DesignEvaluation, DroneDesign
from repro.core.equations import InfeasibleDesignError, WeightBreakdown
from repro.core.explorer import (
    SweepPoint,
    _lowest_power_frontier,
    computation_footprint,
    sweep_all_wheelbases,
    sweep_wheelbase,
)
from tests.equivalence import LIBM, golden

GROUP = "design"


def design_450(**kwargs) -> DroneDesign:
    defaults = dict(
        wheelbase_mm=450.0, battery_cells=3, battery_capacity_mah=3000.0,
        compute_power_w=3.0,
    )
    defaults.update(kwargs)
    return DroneDesign(**defaults)


class TestDroneDesign:
    def test_evaluation_is_consistent(self):
        evaluation = design_450().evaluate()
        assert evaluation.total_weight_g > 500.0
        assert evaluation.maneuver_power_w > evaluation.hover_power_w
        assert evaluation.flight_time_min > evaluation.maneuver_flight_time_min
        assert 0.0 < evaluation.compute_share_hover < 1.0
        assert evaluation.compute_share_maneuver < evaluation.compute_share_hover

    def test_3w_chip_under_5_percent(self):
        """Paper: 3 W chips contribute <5% of total power (mid-size drones)."""
        evaluation = design_450().evaluate()
        assert evaluation.compute_share_hover < 0.06

    def test_20w_chip_notable_share(self):
        evaluation = design_450(compute_power_w=20.0).evaluate()
        assert 0.10 < evaluation.compute_share_hover < 0.40

    def test_concrete_board_overrides_numbers(self):
        board = find_board("Jetson TX2")
        design = design_450(board=board)
        assert design.compute_power_w == board.power_w
        assert design.compute_weight_g == board.weight_g

    def test_external_sensor_adds_weight_and_power(self):
        camera = find_sensor("Night Eagle 2")
        with_camera = design_450(external_sensors=(camera,)).evaluate()
        without = design_450().evaluate()
        assert with_camera.total_weight_g > without.total_weight_g
        assert with_camera.sensors_power_w > without.sensors_power_w

    def test_self_powered_lidar_adds_weight_only(self):
        lidar = find_sensor("Ultra Puck")
        design = design_450(
            wheelbase_mm=800.0, battery_cells=6, battery_capacity_mah=8000.0,
            external_sensors=(lidar,),
        )
        assert design.sensors_power_w == 0.0
        assert design.sensors_weight_g == pytest.approx(925.0)
        # The LiDAR's weight still shrinks flight time.
        bare = DroneDesign(
            wheelbase_mm=800.0, battery_cells=6, battery_capacity_mah=8000.0,
            compute_power_w=3.0,
        )
        assert design.evaluate().flight_time_min < bare.evaluate().flight_time_min

    def test_gained_time_consistent_with_share(self):
        evaluation = design_450(compute_power_w=20.0).evaluate()
        expected = evaluation.flight_time_min * evaluation.compute_share_hover / (
            1 - evaluation.compute_share_hover
        )
        assert evaluation.gained_flight_time_min == pytest.approx(expected)

    def test_feasibility_check(self):
        assert design_450().is_feasible()
        heavy_1s = DroneDesign(
            wheelbase_mm=50.0, battery_cells=1, battery_capacity_mah=8000.0,
            payload_g=800.0,
        )
        assert not heavy_1s.is_feasible()

    def test_summary_mentions_key_figures(self):
        text = design_450().evaluate().summary()
        assert "hover" in text and "min" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            DroneDesign(wheelbase_mm=-1, battery_cells=3,
                        battery_capacity_mah=1000.0)
        with pytest.raises(ValueError):
            design_450(twr=0.5)


class TestSweeps:
    @pytest.fixture(scope="class")
    def sweep_450(self):
        return sweep_wheelbase(450.0)

    def test_sweep_covers_cells_and_capacities(self, sweep_450):
        grouped = sweep_450.by_cells()
        assert set(grouped) <= {1, 3, 6}
        assert len(sweep_450.points) > 50

    def test_power_increases_with_weight_within_config(self, sweep_450):
        """Figure 10a-c: per cell count, power grows with drone weight."""
        for points in sweep_450.by_cells().values():
            powers = [p.hover_power_w for p in points]
            assert powers == sorted(powers)

    def test_best_configuration_exists(self, sweep_450):
        best = sweep_450.best_configuration()
        assert best is not None
        assert best.flight_time_min > 15.0

    def test_footprint_shares_in_paper_band(self, sweep_450):
        """Figure 10d-f: 3 W <~8%, 20 W up to ~30% hovering, ~10-20% maneuvering."""
        footprint = computation_footprint(sweep_450)
        basic = footprint[3.0]
        advanced = footprint[20.0]
        assert max(p.share_hovering for p in basic) < 0.10
        assert 0.15 < max(p.share_hovering for p in advanced) < 0.40
        assert all(
            p.share_maneuvering < p.share_hovering for p in advanced
        )

    def test_footprint_decreases_with_weight(self, sweep_450):
        """Heavier drones -> smaller compute share (the paper's key trend)."""
        advanced = computation_footprint(sweep_450)[20.0]
        assert advanced[0].share_hovering > advanced[-1].share_hovering

    def test_small_drone_sweep_has_infeasible_region(self):
        sweep = sweep_wheelbase(100.0, cell_counts=(1,))
        # The Kv wall cuts the 1S curve somewhere (or all points feasible
        # only if light) — either infeasible entries or bounded weight.
        if sweep.infeasible:
            assert any("Kv" in reason for _, _, reason in sweep.infeasible)
        else:
            assert sweep.weight_range_g()[1] < 800.0

    def test_sweep_all_wheelbases(self):
        results = sweep_all_wheelbases(wheelbases_mm=(100.0, 450.0))
        assert set(results) == {100.0, 450.0}
        for sweep in results.values():
            assert sweep.points

    def test_empty_grid_returns_empty_result(self):
        result = sweep_wheelbase(450.0, cell_counts=[])
        assert result.points == []
        assert result.infeasible == []

    def test_unsupported_cell_count_rejected(self):
        with pytest.raises(ValueError, match="cell count"):
            sweep_wheelbase(450.0, cell_counts=[9], capacities_mah=[3000.0])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            sweep_wheelbase(450.0, cell_counts=[3], capacities_mah=[-10.0])


def _point(weight_g: float, hover_power_w: float) -> SweepPoint:
    """A minimal SweepPoint carrying exactly the fields the frontier reads."""
    weight = WeightBreakdown(
        frame_g=weight_g,
        battery_g=0.0,
        motors_g=0.0,
        escs_g=0.0,
        propellers_g=0.0,
        compute_g=0.0,
        sensors_g=0.0,
        payload_g=0.0,
        wires_g=0.0,
    )
    evaluation = DesignEvaluation(
        weight=weight,
        propeller_inch=10.0,
        battery_voltage_v=11.1,
        motor_max_current_a=10.0,
        motor_kv=1000.0,
        required_battery_c_rating=20.0,
        hover_power_w=hover_power_w,
        maneuver_power_w=hover_power_w * 1.5,
        compute_power_w=3.0,
        sensors_power_w=2.0,
        usable_energy_wh=20.0,
        flight_time_min=20.0 * 60.0 / hover_power_w,
        maneuver_flight_time_min=10.0,
        compute_share_hover=0.05,
        compute_share_maneuver=0.03,
        gained_flight_time_min=1.0,
    )
    return SweepPoint(
        wheelbase_mm=450.0, cells=3, capacity_mah=3000.0, evaluation=evaluation
    )


class TestLowestPowerFrontierBuckets:
    def test_boundary_weight_jitter_lands_in_one_bucket(self):
        # 300 g plus/minus sub-nano-gram float noise must be ONE bucket:
        # without rounding first, 299.99999999997 // 100 floors to bucket 2
        # while 300.00000000003 // 100 lands in bucket 3.
        just_below = _point(300.0 - 3e-11, hover_power_w=120.0)
        just_above = _point(300.0 + 3e-11, hover_power_w=100.0)
        frontier = _lowest_power_frontier([just_below, just_above])
        assert len(frontier) == 1
        assert frontier[0].hover_power_w == 100.0

    def test_distinct_buckets_kept_separate(self):
        light = _point(150.0, hover_power_w=80.0)
        heavy = _point(450.0, hover_power_w=90.0)
        frontier = _lowest_power_frontier([heavy, light])
        assert [p.weight_g for p in frontier] == [150.0, 450.0]

    def test_lowest_power_wins_within_bucket(self):
        a = _point(210.0, hover_power_w=140.0)
        b = _point(260.0, hover_power_w=110.0)
        frontier = _lowest_power_frontier([a, b])
        assert len(frontier) == 1
        assert frontier[0].hover_power_w == 110.0


class TestBestConfigurationTieBreak:
    def _result_with(self, points):
        from repro.core.explorer import SweepResult

        result = SweepResult(wheelbase_mm=450.0)
        result.points = list(points)
        return result

    def test_longest_flight_time_wins(self):
        short = _point(400.0, hover_power_w=200.0)  # 6 min
        long = _point(500.0, hover_power_w=100.0)  # 12 min
        assert self._result_with([short, long]).best_configuration() is long

    def test_equal_flight_time_prefers_lighter(self):
        heavy = _point(600.0, hover_power_w=100.0)
        light = _point(500.0, hover_power_w=100.0)
        for order in ([heavy, light], [light, heavy]):
            assert self._result_with(order).best_configuration() is light

    def test_equal_weight_prefers_smaller_battery(self):
        big = _point(500.0, hover_power_w=100.0)
        small = _point(500.0, hover_power_w=100.0)
        object.__setattr__(big, "capacity_mah", 5000.0)
        object.__setattr__(small, "capacity_mah", 3000.0)
        for order in ([big, small], [small, big]):
            assert self._result_with(order).best_configuration() is small

    def test_short_flight_time_excluded(self):
        # 20 Wh at 400 W hovers for only 3 minutes: under the 5 min floor.
        too_short = _point(300.0, hover_power_w=400.0)
        assert self._result_with([too_short]).best_configuration() is None


def _random_designs(count: int, seed: int):
    """Randomized design parameters spanning feasible and infeasible space."""
    rng = random.Random(seed)
    designs = []
    for _ in range(count):
        designs.append(
            dict(
                wheelbase_mm=rng.choice(
                    [rng.uniform(40.0, 1100.0), 100.0, 450.0, 800.0]
                ),
                battery_cells=rng.randint(1, 6),
                battery_capacity_mah=rng.uniform(100.0, 12000.0),
                compute_power_w=rng.uniform(0.5, 40.0),
                compute_weight_g=rng.uniform(5.0, 120.0),
                sensors_power_w=rng.uniform(0.5, 8.0),
                sensors_weight_g=rng.uniform(5.0, 60.0),
                payload_g=rng.choice([0.0, rng.uniform(0.0, 400.0)]),
                twr=rng.uniform(1.5, 3.5),
            )
        )
    return designs


def _evaluate_or_message(params):
    """A design's evaluation dict, or its infeasibility message."""
    try:
        return DroneDesign(**params).evaluate().as_dict()
    except InfeasibleDesignError as error:
        return str(error)


class TestGoldenVectors:
    """Motor and propeller sizing use float ``**``, so every vector depends
    on this host's libm rounding."""

    @pytest.mark.parametrize("wheelbase_mm", [100.0, 450.0, 800.0])
    def test_sweep_wheelbase(self, wheelbase_mm):
        result = golden(f"{GROUP}/sweep/wheelbase_{wheelbase_mm:g}mm",
                        sweep_wheelbase, wheelbase_mm, uses=(LIBM,))
        assert result.points and len(result.points) + len(
            result.infeasible) == 87

    def test_computation_footprint(self):
        series = golden(
            f"{GROUP}/sweep/footprint_450mm",
            lambda: list(computation_footprint(sweep_wheelbase(450.0)).items()),
            uses=(LIBM,))
        assert [chip_power for chip_power, _ in series] == [3.0, 20.0]

    def test_random_designs(self):
        designs = _random_designs(400, seed=20210419)
        lanes = golden(f"{GROUP}/evaluate/random_400",
                       lambda: [_evaluate_or_message(d) for d in designs],
                       uses=(LIBM,))
        infeasible = sum(isinstance(lane, str) for lane in lanes)
        assert 0 < infeasible < len(designs)
