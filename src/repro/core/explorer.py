"""Design-space exploration sweeps (paper Figure 10).

For each frame/wheelbase class, the paper sweeps battery capacity
(1000-8000 mAh) across cell counts (1S/3S/6S), closing the weight at each
point, and plots total power consumption against drone weight plus the
computation-power footprint for a 3 W and a 20 W chip at hovering and
maneuvering loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.components.compute import ADVANCED_CHIP_POWER_W, BASIC_CHIP_POWER_W
from repro.core.design import DesignEvaluation, DroneDesign
from repro.core.equations import InfeasibleDesignError
from repro.physics import constants

#: Capacity sweep range from the paper's procedure (Section 3.2).
CAPACITY_SWEEP_MAH = tuple(np.arange(1000.0, 8001.0, 250.0))

#: Cell counts plotted in Figure 10.
FIG10_CELL_COUNTS = (1, 3, 6)

#: Wheelbase classes of Figure 10's columns.
FIG10_WHEELBASES_MM = (100.0, 450.0, 800.0)


@dataclass(frozen=True)
class SweepPoint:
    """One feasible design point of a sweep."""

    wheelbase_mm: float
    cells: int
    capacity_mah: float
    evaluation: DesignEvaluation

    @property
    def weight_g(self) -> float:
        return self.evaluation.total_weight_g

    @property
    def hover_power_w(self) -> float:
        return self.evaluation.hover_power_w

    @property
    def flight_time_min(self) -> float:
        return self.evaluation.flight_time_min


@dataclass
class SweepResult:
    """All feasible points of one wheelbase sweep, grouped by cell count."""

    wheelbase_mm: float
    points: List[SweepPoint] = field(default_factory=list)
    infeasible: List[tuple] = field(default_factory=list)

    def by_cells(self) -> Dict[int, List[SweepPoint]]:
        grouped: Dict[int, List[SweepPoint]] = {}
        for point in self.points:
            grouped.setdefault(point.cells, []).append(point)
        for group in grouped.values():
            group.sort(key=lambda p: p.weight_g)
        return grouped

    def best_configuration(
        self, min_flight_time_min: float = 5.0
    ) -> Optional[SweepPoint]:
        """The longest-flying feasible point (Figure 10's 'Best Configuration').

        Points under ``min_flight_time_min`` are the paper's 'Short Flight
        Time (<5 min)' region and are excluded.
        """
        candidates = [
            p for p in self.points if p.flight_time_min >= min_flight_time_min
        ]
        if not candidates:
            return None
        # Deterministic tie-break: on equal flight time prefer the lighter
        # build, then the smaller battery — independent of insertion order.
        return min(
            candidates,
            key=lambda p: (-p.flight_time_min, p.weight_g, p.capacity_mah),
        )

    def weight_range_g(self) -> Tuple[float, float]:
        if not self.points:
            raise ValueError("sweep produced no feasible points")
        weights = [p.weight_g for p in self.points]
        return (min(weights), max(weights))


def sweep_wheelbase(
    wheelbase_mm: float,
    cell_counts: Sequence[int] = FIG10_CELL_COUNTS,
    capacities_mah: Iterable[float] = CAPACITY_SWEEP_MAH,
    compute_power_w: float = BASIC_CHIP_POWER_W,
    compute_weight_g: float = 20.0,
    sensors_power_w: float = 2.0,
    sensors_weight_g: float = 0.0,
    payload_g: float = 0.0,
    twr: float = constants.MIN_FLYABLE_TWR,
    avionics_weight_g: Optional[float] = None,
) -> SweepResult:
    """Sweep battery capacity and cell count for one wheelbase (Fig 10a-c).

    ``avionics_weight_g`` (GPS, receiver, telemetry, power module) scales
    with the wheelbase by default: a 450 mm build carries ~80 g of avionics
    (the paper's own drone, Figure 14) while a 100 mm build carries far less.

    Each grid point closes through :meth:`DroneDesign.evaluate`; a point
    with no buildable component lands in ``infeasible`` with its reason.
    """
    if avionics_weight_g is None:
        avionics_weight_g = min(120.0, max(10.0, 80.0 * wheelbase_mm / 450.0))
    result = SweepResult(wheelbase_mm=wheelbase_mm)
    capacity_list = [float(c) for c in capacities_mah]
    for cells in [int(c) for c in cell_counts]:
        for capacity in capacity_list:
            design = DroneDesign(
                wheelbase_mm=wheelbase_mm,
                battery_cells=cells,
                battery_capacity_mah=capacity,
                compute_power_w=compute_power_w,
                compute_weight_g=compute_weight_g,
                sensors_power_w=sensors_power_w,
                sensors_weight_g=sensors_weight_g,
                payload_g=payload_g,
                twr=twr,
                avionics_weight_g=avionics_weight_g,
            )
            try:
                evaluation = design.evaluate()
            except InfeasibleDesignError as error:
                result.infeasible.append((cells, capacity, str(error)))
                continue
            result.points.append(
                SweepPoint(
                    wheelbase_mm=wheelbase_mm,
                    cells=cells,
                    capacity_mah=capacity,
                    evaluation=evaluation,
                )
            )
    return result


@dataclass(frozen=True)
class FootprintPoint:
    """One Figure 10d-f data point: compute power share at a weight."""

    weight_g: float
    chip_power_w: float
    share_hovering: float
    share_maneuvering: float


def computation_footprint(
    sweep: SweepResult,
    chip_powers_w: Sequence[float] = (BASIC_CHIP_POWER_W, ADVANCED_CHIP_POWER_W),
    min_flight_time_min: float = 5.0,
) -> Dict[float, List[FootprintPoint]]:
    """Figure 10d-f: % computation power vs drone weight, per chip class.

    For each feasible point, the *best* (lowest-power) cell configuration at
    that weight is used, which creates the characteristic jumps where
    heavier drones must switch to higher cell counts.  Points whose flight
    time (with the chip's power included) falls under
    ``min_flight_time_min`` are excluded — the paper's hatched
    'Short Flight Time (<5 min)' region.
    """
    if min_flight_time_min < 0:
        raise ValueError("minimum flight time cannot be negative")
    footprint: Dict[float, List[FootprintPoint]] = {}
    best_at_weight = _lowest_power_frontier(sweep.points)
    for chip_power in chip_powers_w:
        series = []
        for point in best_at_weight:
            evaluation = point.evaluation
            propulsion_hover = (
                evaluation.hover_power_w
                - evaluation.compute_power_w
                - evaluation.sensors_power_w
            )
            propulsion_maneuver = (
                evaluation.maneuver_power_w
                - evaluation.compute_power_w
                - evaluation.sensors_power_w
            )
            flight_time = (
                evaluation.usable_energy_wh
                / (propulsion_hover + chip_power)
                * 60.0
            )
            if flight_time < min_flight_time_min:
                continue
            share_hover = chip_power / (propulsion_hover + chip_power)
            share_maneuver = chip_power / (propulsion_maneuver + chip_power)
            series.append(
                FootprintPoint(
                    weight_g=point.weight_g,
                    chip_power_w=chip_power,
                    share_hovering=share_hover,
                    share_maneuvering=share_maneuver,
                )
            )
        footprint[chip_power] = series
    return footprint


def _lowest_power_frontier(points: List[SweepPoint]) -> List[SweepPoint]:
    """Lowest-hover-power point per weight bucket, sorted by weight.

    Reproduces the paper's per-weight 'choose the best matching battery'
    step; the resulting switch between cell counts is what produces the
    jumps in Figure 10d-f.
    """
    buckets: Dict[int, SweepPoint] = {}
    for point in points:
        # Round before flooring: a weight at exactly a 100 g boundary must
        # land in a stable bucket across sub-micro-gram float jitter.
        bucket = int(round(point.weight_g, 6) // 100)
        current = buckets.get(bucket)
        if current is None or point.hover_power_w < current.hover_power_w:
            buckets[bucket] = point
    return [buckets[key] for key in sorted(buckets)]


def sweep_all_wheelbases(
    wheelbases_mm: Sequence[float] = FIG10_WHEELBASES_MM,
    **kwargs,
) -> Dict[float, SweepResult]:
    """Run the full Figure 10 sweep across all wheelbase classes."""
    return {wb: sweep_wheelbase(wb, **kwargs) for wb in wheelbases_mm}
