"""The closed-loop simulator against the design-space equations.

``examples/design_space_explorer.py --simulate`` hovers each frontier
design in :class:`FlightSimulator` and prints the measured power beside
the Equations 1-7 prediction.  This pins that agreement on three of its
frontier designs, one per wheelbase: a 6 s hover at 500 Hz, averaged over
its last 3 s, measures 0.74-0.86% above ``evaluate_batch``'s
``hover_power_w`` on this host (the simulator also pays to hold
position).
"""

import numpy as np
import pytest

from repro.core.batch import evaluate_batch
from repro.sim.simulator import DroneModel, FlightSimulator

#: (wheelbase mm, cells, capacity mAh, compute W): the lightest design per
#: (wheelbase, chip) that carries the example's 150 g for 18 minutes.
FRONTIER = [(200.0, 3, 3000.0, 3.0), (450.0, 3, 4000.0, 10.0),
            (800.0, 3, 5000.0, 20.0)]


@pytest.mark.parametrize("wheelbase_mm, cells, capacity_mah, compute_w", FRONTIER)
def test_hover_power_matches_equations(wheelbase_mm, cells, capacity_mah,
                                       compute_w):
    batch = evaluate_batch(
        np.array([wheelbase_mm]), np.array([cells], dtype=np.int64),
        np.array([capacity_mah]), compute_power_w=np.array([compute_w]),
        compute_weight_g=20.0 + 3.0 * compute_w, payload_g=150.0,
    )
    assert batch.feasible[0]
    model = DroneModel(
        mass_kg=float(batch.total_weight_g[0]) / 1000.0,
        wheelbase_mm=wheelbase_mm,
        battery_cells=cells,
        battery_capacity_mah=capacity_mah,
        compute_power_w=compute_w,
        sensors_power_w=float(batch.grid.sensors_power_w[0]),
    )
    sim = FlightSimulator(model, physics_rate_hz=500.0)
    sim.goto([0.0, 0.0, 5.0])
    sim.run_for(6.0)
    excess = sim.average_power_w(since_s=3.0) / float(batch.hover_power_w[0]) - 1.0
    assert 0.005 < excess < 0.01
