"""Second round of property-based tests: planning, weight closure, dataset
geometry, and predictor convergence."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.equations import InfeasibleDesignError, close_weight
from repro.oracles import ScalarGshare
from repro.platforms.branch import GsharePredictor
from repro.slam.dataset import CameraModel
from repro.slam.planning import (
    OccupancyGrid,
    PlanningError,
    plan_path,
)


class TestPlanningProperties:
    @given(
        start_col=st.integers(0, 14),
        start_row=st.integers(0, 14),
        goal_col=st.integers(0, 14),
        goal_row=st.integers(0, 14),
    )
    @settings(max_examples=40, deadline=None)
    def test_path_at_least_straight_line(self, start_col, start_row,
                                         goal_col, goal_row):
        assume((start_col, start_row) != (goal_col, goal_row))
        grid = OccupancyGrid(
            origin_m=np.zeros(3), resolution_m=1.0, width=15, height=15,
        )
        start = np.append(grid.center_of(start_row, start_col), 0.0)
        goal = np.append(grid.center_of(goal_row, goal_col), 0.0)
        plan = plan_path(grid, start, goal)
        euclidean = float(np.linalg.norm(goal[0:2] - start[0:2]))
        assert plan.path_length_m >= euclidean - 1.5  # grid discretization

    @given(
        obstacles=st.lists(
            st.tuples(st.integers(1, 13), st.integers(1, 13)),
            min_size=0, max_size=25, unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_plans_never_cross_obstacles(self, obstacles):
        grid = OccupancyGrid(
            origin_m=np.zeros(3), resolution_m=1.0, width=15, height=15,
        )
        for row, col in obstacles:
            grid.occupied[row, col] = True
        assume(grid.is_free(0, 0) and grid.is_free(14, 14))
        start = np.append(grid.center_of(0, 0), 0.0)
        goal = np.append(grid.center_of(14, 14), 0.0)
        try:
            plan = plan_path(grid, start, goal)
        except PlanningError:
            return  # fully blocked is a legal outcome
        for waypoint in plan.waypoints_m:
            row, col = grid.cell_of(waypoint)
            assert grid.is_free(row, col)


class TestWeightClosureProperties:
    @given(
        capacity=st.floats(1000.0, 8000.0),
        payload=st.floats(0.0, 400.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_weight_monotone_in_payload(self, capacity, payload):
        base = close_weight(450.0, 3, capacity)
        loaded = close_weight(450.0, 3, capacity, payload_g=payload)
        assert loaded.total_g >= base.total_g
        # The closure amplifies payload: total grows by MORE than the
        # payload itself (motors/ESCs grow too).
        if payload > 1.0:
            assert loaded.total_g - base.total_g > payload

    @given(capacity=st.floats(1000.0, 8000.0))
    @settings(max_examples=30, deadline=None)
    def test_breakdown_parts_nonnegative(self, capacity):
        try:
            breakdown = close_weight(450.0, 6, capacity)
        except InfeasibleDesignError:
            return
        for name, value in breakdown.as_dict().items():
            assert value >= 0.0, name


class TestCameraProperties:
    @given(
        x=st.floats(-3.0, 3.0),
        y=st.floats(-2.0, 2.0),
        z=st.floats(0.5, 10.0),
    )
    def test_projection_depth_invariance_of_center_ray(self, x, y, z):
        camera = CameraModel()
        u, v = camera.project(np.array([x, y, z]))
        # Scaling the point along the ray leaves the pixel unchanged.
        u2, v2 = camera.project(np.array([2 * x, 2 * y, 2 * z]))
        assert u == pytest.approx(u2, abs=1e-9)
        assert v == pytest.approx(v2, abs=1e-9)

    @given(z=st.floats(0.1, 50.0))
    def test_optical_axis_maps_to_principal_point(self, z):
        camera = CameraModel()
        u, v = camera.project(np.array([0.0, 0.0, z]))
        assert u == pytest.approx(camera.cx)
        assert v == pytest.approx(camera.cy)


class TestPredictorProperties:
    @given(bias=st.floats(0.85, 1.0), pc=st.integers(0, 1 << 16))
    @settings(max_examples=25, deadline=None)
    def test_biased_branches_learned_below_bias_error(self, bias, pc):
        predictor = ScalarGshare(GsharePredictor())
        rng = np.random.default_rng(abs(pc) % 1000)
        misses = 0
        trials = 600
        for _ in range(trials):
            taken = bool(rng.random() < bias)
            if not predictor.predict_and_update(pc * 4, taken):
                misses += 1
        # A 2-bit counter tracks the majority: the miss rate approaches the
        # minority probability.
        assert misses / trials < (1.0 - bias) + 0.12
