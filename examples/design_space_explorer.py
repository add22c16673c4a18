#!/usr/bin/env python
"""Design-space exploration: sweep the space for your own requirements.

The paper's core message is that drone design decisions — battery size,
cell count, frame class, compute budget — interact through the weight
closure.  This example sweeps a custom corner of the space: a drone that
must carry a 150 g payload and fly at least 18 minutes, and asks which
configurations qualify and how much compute power they can afford.

Each grid point closes through `DroneDesign.evaluate`, one design at a
time; pass ``--simulate`` to confirm the frontier picks with short
closed-loop simulator runs fanned out across worker processes
(`repro.core.parallel.ParallelSweepRunner`).

Run:  python examples/design_space_explorer.py [--simulate]
"""

import itertools
import sys

from repro.core.design import DroneDesign
from repro.core.equations import InfeasibleDesignError, gained_flight_time_min
from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.sim.simulator import DroneModel, FlightSimulator

PAYLOAD_G = 150.0
REQUIRED_MINUTES = 18.0
COMPUTE_BUDGETS_W = (3.0, 10.0, 20.0)

WHEELBASES_MM = (200.0, 450.0, 800.0)
CELL_COUNTS = (3, 4, 6)
CAPACITIES_MAH = (2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0)


def sweep() -> list:
    """Every wheelbase x cells x capacity x chip point as a (design,
    evaluation) pair; an infeasible point's evaluation is ``None``."""
    grid = []
    for wheelbase_mm, cells, capacity_mah, compute_w in itertools.product(
        WHEELBASES_MM, CELL_COUNTS, CAPACITIES_MAH, COMPUTE_BUDGETS_W
    ):
        design = DroneDesign(
            wheelbase_mm=wheelbase_mm,
            battery_cells=cells,
            battery_capacity_mah=capacity_mah,
            compute_power_w=compute_w,
            compute_weight_g=20.0 + 3.0 * compute_w,
            payload_g=PAYLOAD_G,
        )
        try:
            grid.append((design, design.evaluate()))
        except InfeasibleDesignError:
            grid.append((design, None))
    return grid


def qualifying_points(grid: list) -> list:
    """The feasible points that fly at least ``REQUIRED_MINUTES``."""
    return [
        (design, evaluation)
        for design, evaluation in grid
        if evaluation is not None
        and evaluation.flight_time_min >= REQUIRED_MINUTES
    ]


def frontier(qualifying: list) -> list:
    """Lightest qualifying point per (wheelbase, chip) pair."""
    seen = set()
    picks = []
    for design, evaluation in sorted(
        qualifying, key=lambda point: point[1].total_weight_g
    ):
        key = (design.wheelbase_mm, design.compute_power_w)
        if key in seen:
            continue
        seen.add(key)
        picks.append((design, evaluation))
    return picks


def _simulate_point(args) -> float:
    """Short hover run; returns measured average electrical power (W)."""
    mass_kg, wheelbase_mm, cells, capacity_mah, compute_w, sensors_w = args
    model = DroneModel(
        mass_kg=mass_kg,
        wheelbase_mm=wheelbase_mm,
        battery_cells=cells,
        battery_capacity_mah=capacity_mah,
        compute_power_w=compute_w,
        sensors_power_w=sensors_w,
    )
    sim = FlightSimulator(model, physics_rate_hz=500.0)
    sim.goto([0.0, 0.0, 5.0])
    sim.run_for(6.0)
    return sim.average_power_w(since_s=3.0)


def main() -> None:
    simulate = "--simulate" in sys.argv[1:]
    grid = sweep()
    qualifying = qualifying_points(grid)
    print(f"requirement: carry {PAYLOAD_G:.0f} g for {REQUIRED_MINUTES:.0f}+ min")
    print(f"{len(qualifying)} of {len(grid)} configurations qualify\n")

    picks = frontier(qualifying)
    headers = (f"{'frame':>7s} {'battery':>12s} {'chip':>6s} {'weight':>8s} "
               f"{'flight':>8s} {'compute%':>9s} {'recoverable':>12s}")
    measured = []
    if simulate:
        runner = ParallelSweepRunner(SweepRunnerConfig(chunk_size=2))
        jobs = [
            (
                evaluation.total_weight_g / 1000.0,
                design.wheelbase_mm,
                design.battery_cells,
                design.battery_capacity_mah,
                design.compute_power_w,
                design.sensors_power_w,
            )
            for design, evaluation in picks
        ]
        measured = runner.map(_simulate_point, jobs)
        headers += f" {'sim power':>10s}"
    print(headers)

    # Show the most interesting frontier: per (wheelbase, chip), the
    # lightest qualifying configuration.
    for index, (design, evaluation) in enumerate(picks):
        recoverable = gained_flight_time_min(
            evaluation.compute_share_hover, evaluation.flight_time_min
        )
        row = (f"{design.wheelbase_mm:5.0f}mm "
               f"{design.battery_cells}S "
               f"{design.battery_capacity_mah:5.0f}mAh "
               f"{design.compute_power_w:4.0f}W "
               f"{evaluation.total_weight_g:6.0f}g "
               f"{evaluation.flight_time_min:6.1f}m "
               f"{evaluation.compute_share_hover:8.1%} "
               f"{recoverable:+9.1f}m")
        if measured:
            row += f" {measured[index]:8.0f} W"
        print(row)

    print("\nreading the table:")
    print(" * 'compute%' is the chip's share of hover power (paper Fig 10d-f)")
    print(" * 'recoverable' is the flight time a perfect compute")
    print("   optimization could win back (paper Equation 7)")
    print(" * bigger frames amortize the chip: the 20 W rows show the")
    print("   share falling with frame size — the paper's core tradeoff")
    if simulate:
        print(" * 'sim power' is the closed-loop simulator's measured hover")
        print("   power — the Equations 1-7 prediction confirmed in flight")


if __name__ == "__main__":
    main()
