"""Vectorized design-space evaluation engine (Equations 1-7 as array ops).

The scalar path — :meth:`repro.core.design.DroneDesign.evaluate` — walks one
design point at a time through the Equation 1-7 chain, paying Python call
overhead for every capacity x cell-count x wheelbase grid cell.  This module
lifts the whole chain into NumPy: an entire grid evaluates as a handful of
array operations, with infeasibility expressed as masks instead of
exceptions.

The engine is deliberately *bit-for-bit equal* to the scalar path: every
arithmetic expression below replicates the operand order of the scalar
implementation, so `evaluate_grid` can sit behind the existing sweep API
(:mod:`repro.core.explorer`) without perturbing a single published number.
The scalar path stays in the tree as the oracle; the equivalence is pinned
by ``tests/test_core_batch.py``.

Usage::

    grid = BatchDesignGrid.from_arrays(
        wheelbase_mm=450.0,
        battery_cells=np.repeat([1, 3, 6], 29),
        battery_capacity_mah=np.tile(np.arange(1000.0, 8001.0, 250.0), 3),
    )
    batch = evaluate_grid(grid)
    batch.feasible          # boolean mask over the flattened grid
    batch.evaluations()     # List[Optional[DesignEvaluation]]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path, hot_path_safe, memoized_pure, pure
from repro.components.battery import FIG7_WEIGHT_FITS
from repro.components.esc import FIG8A_WEIGHT_FITS, EscClass, esc_set_weight_g
from repro.components.frame import (
    FIG8B_LARGE_FIT,
    FIG8B_SMALL_FIT,
    MAX_WHEELBASE_MM,
    MIN_WHEELBASE_MM,
    SMALL_FRAME_LIMIT_MM,
)
from repro.core.design import DesignEvaluation
from repro.core.equations import (
    MAX_FEASIBLE_C_RATING,
    MAX_FEASIBLE_ESC_CURRENT_A,
    MAX_FEASIBLE_KV,
    WeightBreakdown,
    motor_max_current_a as scalar_motor_max_current_a,
)
from repro.components.propeller import propeller_set_weight_g
from repro.physics import constants
from repro.physics.motor import motor_mass_g_for, required_kv_for
from repro.physics.propeller import (
    max_propeller_inch_for_wheelbase,
    typical_propeller_for,
)

#: Weight-closure controls, matching :func:`repro.core.equations.close_weight`.
_MAX_ITERATIONS = 60
_TOLERANCE_G = 0.01
_DIVERGENCE_LIMIT_G = 50_000.0

#: Once this few lanes are still iterating, the closure loop switches from
#: full-width array dispatch to per-lane scalar arithmetic — below this
#: width a Python iteration is cheaper than ~40 ufunc dispatches.
_SCALAR_TAIL_WIDTH = 16

#: Failure codes for infeasible lanes, in the order the scalar path raises.
FAIL_DIVERGED = 1
FAIL_NOT_CONVERGED = 2
FAIL_KV = 3
FAIL_ESC_CURRENT = 4
FAIL_C_RATING = 5


@dataclass(frozen=True)
class BatchDesignGrid:
    """A flattened grid of design points as parallel arrays.

    Every field is a 1-D float64 (or int64 for cells) array of the same
    length; one index = one design point.  Use :meth:`from_arrays` to build
    one from broadcastable inputs.
    """

    wheelbase_mm: np.ndarray
    battery_cells: np.ndarray
    battery_capacity_mah: np.ndarray
    compute_power_w: np.ndarray
    compute_weight_g: np.ndarray
    sensors_power_w: np.ndarray
    sensors_weight_g: np.ndarray
    payload_g: np.ndarray
    avionics_weight_g: np.ndarray
    twr: np.ndarray
    hover_load: np.ndarray
    maneuver_load: np.ndarray
    esc_class: EscClass = EscClass.LONG_FLIGHT

    @property
    def size(self) -> int:
        return int(self.wheelbase_mm.size)

    @classmethod
    def from_arrays(
        cls,
        wheelbase_mm: object,
        battery_cells: object,
        battery_capacity_mah: object,
        compute_power_w: object = 3.0,
        compute_weight_g: object = 20.0,
        sensors_power_w: object = 0.0,
        sensors_weight_g: object = 0.0,
        payload_g: object = 0.0,
        avionics_weight_g: object = 80.0,
        twr: object = constants.MIN_FLYABLE_TWR,
        hover_load: object = constants.DEFAULT_HOVER_LOAD,
        maneuver_load: object = constants.DEFAULT_MANEUVER_LOAD,
        esc_class: EscClass = EscClass.LONG_FLIGHT,
    ) -> "BatchDesignGrid":
        """Broadcast scalars/arrays to a common flattened grid and validate.

        Validation mirrors ``DroneDesign.__post_init__`` plus the component
        range checks that the scalar path would raise as ``ValueError``
        (as opposed to the physics-driven ``InfeasibleDesignError`` cases,
        which become mask entries).
        """
        arrays = np.broadcast_arrays(
            np.asarray(wheelbase_mm, dtype=float).ravel(),
            np.asarray(battery_cells, dtype=np.int64).ravel(),
            np.asarray(battery_capacity_mah, dtype=float).ravel(),
            np.asarray(compute_power_w, dtype=float).ravel(),
            np.asarray(compute_weight_g, dtype=float).ravel(),
            np.asarray(sensors_power_w, dtype=float).ravel(),
            np.asarray(sensors_weight_g, dtype=float).ravel(),
            np.asarray(payload_g, dtype=float).ravel(),
            np.asarray(avionics_weight_g, dtype=float).ravel(),
            np.asarray(twr, dtype=float).ravel(),
            np.asarray(hover_load, dtype=float).ravel(),
            np.asarray(maneuver_load, dtype=float).ravel(),
        )
        (wb, cells, cap, cp_w, cp_g, sn_w, sn_g, pl_g, av_g, twr_a, hl, ml) = (
            np.ascontiguousarray(a) for a in arrays
        )
        if wb.size == 0:
            raise ValueError("design grid is empty")
        if np.any(wb <= 0):
            raise ValueError("wheelbase must be positive")
        if np.any((wb < MIN_WHEELBASE_MM) | (wb > MAX_WHEELBASE_MM)):
            raise ValueError(
                f"wheelbase outside [{MIN_WHEELBASE_MM}, {MAX_WHEELBASE_MM}] mm"
            )
        supported_cells = sorted(FIG7_WEIGHT_FITS)
        if not np.all(np.isin(cells, supported_cells)):
            raise ValueError(f"unsupported cell count; supported: {supported_cells}")
        if np.any(cap <= 0):
            raise ValueError("battery capacity must be positive")
        if np.any(cp_w < 0) or np.any(sn_w < 0):
            raise ValueError("power figures cannot be negative")
        if np.any(pl_g < 0):
            raise ValueError("payload cannot be negative")
        if np.any(twr_a < 1.0):
            raise ValueError("TWR below 1 cannot fly")
        if np.any((hl <= 0.0) | (hl > 1.0)) or np.any((ml <= 0.0) | (ml > 1.0)):
            raise ValueError("flying load must be in (0, 1]")
        return cls(
            wheelbase_mm=wb,
            battery_cells=cells,
            battery_capacity_mah=cap,
            compute_power_w=cp_w,
            compute_weight_g=cp_g,
            sensors_power_w=sn_w,
            sensors_weight_g=sn_g,
            payload_g=pl_g,
            avionics_weight_g=av_g,
            twr=twr_a,
            hover_load=hl,
            maneuver_load=ml,
            esc_class=esc_class,
        )


@dataclass
class BatchEvaluation:
    """Array-valued output of :func:`evaluate_grid`.

    Feasible lanes carry finite values in every array; infeasible lanes are
    NaN with ``failure_code``/``failure_message`` explaining why, matching
    the scalar path's ``InfeasibleDesignError`` messages character for
    character.
    """

    grid: BatchDesignGrid
    feasible: np.ndarray
    failure_code: np.ndarray
    # -- weight breakdown (Equation 1) ---------------------------------------
    frame_g: np.ndarray
    battery_g: np.ndarray
    motors_g: np.ndarray
    escs_g: np.ndarray
    propellers_g: np.ndarray
    wires_g: np.ndarray
    total_weight_g: np.ndarray
    # -- derived point values (Equations 2-7) --------------------------------
    propeller_inch: np.ndarray
    battery_voltage_v: np.ndarray
    motor_max_current_a: np.ndarray
    motor_kv: np.ndarray
    required_battery_c_rating: np.ndarray
    hover_power_w: np.ndarray
    maneuver_power_w: np.ndarray
    usable_energy_wh: np.ndarray
    flight_time_min: np.ndarray
    maneuver_flight_time_min: np.ndarray
    compute_share_hover: np.ndarray
    compute_share_maneuver: np.ndarray
    gained_flight_time_min: np.ndarray

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def feasible_count(self) -> int:
        return int(np.count_nonzero(self.feasible))

    def failure_message(self, index: int) -> Optional[str]:
        """The scalar path's ``InfeasibleDesignError`` message for a lane."""
        code = int(self.failure_code[index])
        if code == 0:
            return None
        wheelbase = float(self.grid.wheelbase_mm[index])
        cells = int(self.grid.battery_cells[index])
        capacity = float(self.grid.battery_capacity_mah[index])
        if code == FAIL_DIVERGED:
            return (
                f"weight closure diverges for wheelbase={wheelbase}, "
                f"{cells}S {capacity} mAh "
                f"(propulsion cannot keep up with its own weight)"
            )
        if code == FAIL_NOT_CONVERGED:
            return (
                f"weight closure did not converge for wheelbase={wheelbase}, "
                f"{cells}S {capacity} mAh"
            )
        if code == FAIL_KV:
            return (
                f"requires a {self.motor_kv[index]:.0f} Kv motor "
                f"(limit {MAX_FEASIBLE_KV:.0f}); "
                f"increase cell count or propeller size"
            )
        if code == FAIL_ESC_CURRENT:
            return (
                f"requires {self.motor_max_current_a[index]:.0f} A ESCs "
                f"(catalog limit {MAX_FEASIBLE_ESC_CURRENT_A:.0f} A)"
            )
        if code == FAIL_C_RATING:
            return (
                f"requires a {self.required_battery_c_rating[index]:.0f}C battery "
                f"(catalog limit {MAX_FEASIBLE_C_RATING:.0f}C); "
                f"increase capacity or reduce weight"
            )
        raise ValueError(f"unknown failure code {code}")

    def evaluation(self, index: int) -> Optional[DesignEvaluation]:
        """Materialize one lane as the scalar path's :class:`DesignEvaluation`."""
        if not bool(self.feasible[index]):
            return None
        weight = WeightBreakdown(
            frame_g=float(self.frame_g[index]),
            battery_g=float(self.battery_g[index]),
            motors_g=float(self.motors_g[index]),
            escs_g=float(self.escs_g[index]),
            propellers_g=float(self.propellers_g[index]),
            compute_g=float(self.grid.compute_weight_g[index]),
            sensors_g=float(self.grid.sensors_weight_g[index]),
            payload_g=float(self.grid.payload_g[index]),
            wires_g=float(self.wires_g[index]),
        )
        return DesignEvaluation(
            weight=weight,
            propeller_inch=float(self.propeller_inch[index]),
            battery_voltage_v=float(self.battery_voltage_v[index]),
            motor_max_current_a=float(self.motor_max_current_a[index]),
            motor_kv=float(self.motor_kv[index]),
            required_battery_c_rating=float(self.required_battery_c_rating[index]),
            hover_power_w=float(self.hover_power_w[index]),
            maneuver_power_w=float(self.maneuver_power_w[index]),
            compute_power_w=float(self.grid.compute_power_w[index]),
            sensors_power_w=float(self.grid.sensors_power_w[index]),
            usable_energy_wh=float(self.usable_energy_wh[index]),
            flight_time_min=float(self.flight_time_min[index]),
            maneuver_flight_time_min=float(self.maneuver_flight_time_min[index]),
            compute_share_hover=float(self.compute_share_hover[index]),
            compute_share_maneuver=float(self.compute_share_maneuver[index]),
            gained_flight_time_min=float(self.gained_flight_time_min[index]),
        )

    def evaluations(self) -> List[Optional[DesignEvaluation]]:
        """Materialize every lane (None where infeasible)."""
        return [self.evaluation(i) for i in range(self.size)]


def propeller_inch_for_wheelbase(wheelbase_mm: np.ndarray) -> np.ndarray:
    """Vectorized ``max_propeller_inch_for_wheelbase``.

    Wheelbase-derived constants are evaluated once per *unique* wheelbase
    through the scalar function itself, then gathered — bit-identical to
    the scalar path by construction, and cheap because a grid has few
    distinct wheelbases.
    """
    wheelbase = np.asarray(wheelbase_mm, dtype=float)
    unique_mm, inverse = np.unique(wheelbase, return_inverse=True)
    inches = np.array(
        [max_propeller_inch_for_wheelbase(float(v)) for v in unique_mm]
    )
    return inches[inverse]


#: Keyed cache for :func:`_wheelbase_constants` — sweeps re-evaluate the
#: same wheelbase column over and over (capacity/cell grids, repeated
#: benchmark runs), and the unique-gather is pure in the wheelbase array.
_WHEELBASE_CONSTANTS_CACHE: Dict[bytes, Tuple[np.ndarray, ...]] = {}
_WHEELBASE_CONSTANTS_CACHE_LIMIT = 64


@memoized_pure
@hot_path_safe
def _wheelbase_constants(
    wheelbase_mm: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached per-lane wheelbase-derived constants.

    Returns ``(propeller_inch, propellers_g, ct_rho_d4, sqrt_term)``.
    The returned arrays are shared cache entries — callers must treat them
    as read-only.
    """
    key = wheelbase_mm.tobytes()
    cached = _WHEELBASE_CONSTANTS_CACHE.get(key)
    if cached is None:
        propeller_inch = propeller_inch_for_wheelbase(wheelbase_mm)
        propellers_g, ct_rho_d4, sqrt_term = _per_wheelbase_constants(
            propeller_inch
        )
        cached = (propeller_inch, propellers_g, ct_rho_d4, sqrt_term)
        if len(_WHEELBASE_CONSTANTS_CACHE) >= _WHEELBASE_CONSTANTS_CACHE_LIMIT:
            _WHEELBASE_CONSTANTS_CACHE.clear()
        _WHEELBASE_CONSTANTS_CACHE[key] = cached
    return cached


@pure
@hot_path
def _frame_weight_g(wheelbase_mm: np.ndarray) -> np.ndarray:
    """Vectorized Figure 8b piecewise frame-weight fit."""
    large_g = FIG8B_LARGE_FIT.slope * wheelbase_mm + FIG8B_LARGE_FIT.intercept
    small_g = FIG8B_SMALL_FIT.slope * wheelbase_mm + FIG8B_SMALL_FIT.intercept
    return np.where(wheelbase_mm > SMALL_FRAME_LIMIT_MM, large_g, small_g)


@pure
@hot_path
def _battery_weight_g(cells: np.ndarray, capacity_mah: np.ndarray) -> np.ndarray:
    """Vectorized Figure 7 per-cell-count battery-weight fits."""
    weight_g = np.empty_like(capacity_mah)
    for cell_count, fit in FIG7_WEIGHT_FITS.items():
        mask = cells == cell_count
        if np.any(mask):
            weight_g[mask] = fit.slope * capacity_mah[mask] + fit.intercept
    return weight_g


def _per_wheelbase_constants(
    propeller_inch: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propeller-derived per-lane constants, via the scalar helpers.

    Returns ``(propellers_g, ct_rho_d4, induced_power_sqrt_term)``.  Each is
    computed once per unique propeller size with the exact scalar-path
    arithmetic (including its libm pow calls), then gathered per lane.
    """
    unique_inch, inverse = np.unique(propeller_inch, return_inverse=True)
    propellers_g = np.empty(unique_inch.size)
    ct_rho_d4 = np.empty(unique_inch.size)
    sqrt_term = np.empty(unique_inch.size)
    for i, inch in enumerate(unique_inch.tolist()):
        propellers_g[i] = propeller_set_weight_g(inch)
        prop = typical_propeller_for(inch)
        # rev_per_s_for_thrust divides by (ct * rho) * D^4 in this order.
        ct_rho_d4[i] = (
            prop.ct * constants.AIR_DENSITY_SEA_LEVEL_KG_M3
        ) * prop.diameter_m**4
        # hover_electrical_power_w divides by sqrt((2 * rho) * disk_area).
        sqrt_term[i] = math.sqrt(
            2.0
            * constants.AIR_DENSITY_SEA_LEVEL_KG_M3
            * constants.propeller_disk_area_m2(inch)
        )
    return propellers_g[inverse], ct_rho_d4[inverse], sqrt_term[inverse]


@pure
@hot_path
def _required_kv(
    thrust_n: np.ndarray,
    ct_rho_d4: np.ndarray,
    voltage_v: np.ndarray,
) -> np.ndarray:
    """Vectorized ``required_kv_for`` with the default 1.15 headroom."""
    rev_per_s = np.sqrt(thrust_n / ct_rho_d4)
    rpm_needed = rev_per_s * 60.0 * 1.15
    return rpm_needed / voltage_v


@pure
@hot_path
def _per_motor_current_a(
    thrust_n: np.ndarray,
    induced_power_sqrt_term: np.ndarray,
    voltage_v: np.ndarray,
) -> np.ndarray:
    """Vectorized ``motor_max_current_a`` (Equation 2, T^1.5 as T*sqrt(T)).

    ``thrust_n`` is the per-motor max thrust — the scalar path derives it
    from the total weight with the same ``twr * total / 4`` expression the
    Kv sizing uses, so callers compute it once and share it.
    """
    ideal_w = thrust_n * np.sqrt(thrust_n) / induced_power_sqrt_term
    power_w = ideal_w / (constants.FULL_THROTTLE_OVERALL_EFFICIENCY * 1.0)
    return power_w / voltage_v


@pure
@hot_path
def evaluate_grid(grid: BatchDesignGrid) -> BatchEvaluation:
    """Run the full Equations 1-7 chain over every lane of ``grid``.

    The weight closure (Equation 1's fixed point) iterates all lanes in
    lockstep; lanes freeze the moment they converge or are ruled out, so
    every lane sees exactly the per-iteration arithmetic of the scalar
    ``close_weight`` and the results agree bit for bit.
    """
    n = grid.size
    wheelbase_mm = grid.wheelbase_mm
    capacity_mah = grid.battery_capacity_mah
    twr = grid.twr

    voltage_v = grid.battery_cells * constants.LIPO_CELL_NOMINAL_V
    (
        propeller_inch,
        propellers_g,
        ct_rho_d4,
        induced_power_sqrt_term,
    ) = _wheelbase_constants(wheelbase_mm)

    frame_g = _frame_weight_g(wheelbase_mm)
    battery_g = _battery_weight_g(grid.battery_cells, capacity_mah)
    fixed_g = (
        frame_g
        + battery_g
        + propellers_g
        + grid.compute_weight_g
        + grid.sensors_weight_g
        + grid.payload_g
        + grid.avionics_weight_g
    )

    total_g = fixed_g * 1.3
    motors_g = np.zeros(n)
    escs_g = np.zeros(n)
    wires_g = np.zeros(n)
    failure_code = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)

    esc_fit = FIG8A_WEIGHT_FITS[grid.esc_class]
    # ``ideal / (efficiency * 1.0)`` from the scalar chain — the product is
    # a Python-float constant, folded once.
    full_throttle_eff = constants.FULL_THROTTLE_OVERALL_EFFICIENCY * 1.0

    # The closure loop is the hot core of the engine: every iteration runs
    # ~40 element-wise ufuncs, so per-call overhead (allocation, fancy
    # indexing) dominates at grid sizes of a few hundred lanes.  All lanes
    # therefore march full-width with preallocated scratch buffers (``out=``
    # leaves the loop allocation-free), and results are committed back only
    # ``where=active`` — frozen lanes (converged/diverged) recompute harmless
    # garbage that is never stored, so every *committed* value still sees
    # exactly the scalar ``close_weight`` arithmetic sequence.  Every ufunc
    # below is element-wise, so lockstep full-width evaluation produces the
    # same bits as per-lane evaluation.
    thrust_g = np.empty(n)
    thrust_n = np.empty(n)
    kv = np.empty(n)
    new_motors_g = np.empty(n)
    new_escs_g = np.empty(n)
    new_wires_g = np.empty(n)
    new_total_g = np.empty(n)
    scratch_a = np.empty(n)
    scratch_b = np.empty(n)
    lane_flags = np.empty(n, dtype=bool)

    iterations_used = _MAX_ITERATIONS
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for iteration in range(_MAX_ITERATIONS):
            # Divergence freezes a lane before this iteration's update,
            # exactly like the scalar loop's check at the top of its body.
            # Frozen diverged lanes have their total zeroed (the value is
            # never read again) so this stays a single scalar comparison on
            # the common no-divergence path.
            if float(total_g.max()) > _DIVERGENCE_LIMIT_G:
                np.greater(total_g, _DIVERGENCE_LIMIT_G, out=lane_flags)
                np.logical_and(lane_flags, active, out=lane_flags)
                failure_code[lane_flags] = FAIL_DIVERGED
                total_g[lane_flags] = 0.0
                np.logical_not(lane_flags, out=lane_flags)
                np.logical_and(active, lane_flags, out=active)
                if not active.any():
                    break
            # Equation 1 body: thrust -> Kv -> motor mass -> current -> ESC
            # mass -> wires -> new total (operand order mirrors close_weight).
            np.multiply(twr, total_g, out=thrust_g)
            np.divide(thrust_g, 4.0, out=thrust_g)
            np.divide(thrust_g, 1000.0, out=thrust_n)
            np.multiply(thrust_n, constants.GRAVITY_M_S2, out=thrust_n)
            np.divide(thrust_n, ct_rho_d4, out=kv)
            np.sqrt(kv, out=kv)
            np.multiply(kv, 60.0, out=kv)
            np.multiply(kv, 1.15, out=kv)
            np.divide(kv, voltage_v, out=kv)
            np.sqrt(kv, out=scratch_a)
            np.divide(thrust_g, scratch_a, out=scratch_a)  # torque proxy
            np.sqrt(scratch_a, out=scratch_b)
            np.multiply(scratch_a, scratch_b, out=scratch_b)
            np.sqrt(scratch_b, out=scratch_b)
            np.multiply(scratch_b, 4.2, out=scratch_b)
            np.maximum(scratch_b, 2.0, out=scratch_b)
            np.multiply(scratch_b, 4.0, out=new_motors_g)
            np.sqrt(thrust_n, out=scratch_a)
            np.multiply(thrust_n, scratch_a, out=scratch_a)
            np.divide(scratch_a, induced_power_sqrt_term, out=scratch_a)
            np.divide(scratch_a, full_throttle_eff, out=scratch_a)
            np.divide(scratch_a, voltage_v, out=scratch_a)  # per-motor A
            np.maximum(scratch_a, 1.0, out=scratch_a)
            np.multiply(scratch_a, esc_fit.slope, out=scratch_a)
            np.add(scratch_a, esc_fit.intercept, out=scratch_a)
            np.maximum(scratch_a, 4.0, out=new_escs_g)
            np.add(new_motors_g, new_escs_g, out=scratch_a)
            np.add(scratch_a, battery_g, out=scratch_a)
            np.multiply(
                scratch_a, constants.WIRING_WEIGHT_FRACTION, out=new_wires_g
            )
            np.add(fixed_g, new_motors_g, out=scratch_a)
            np.add(scratch_a, new_escs_g, out=scratch_a)
            np.add(scratch_a, new_wires_g, out=new_total_g)
            np.subtract(new_total_g, total_g, out=scratch_a)
            np.absolute(scratch_a, out=scratch_a)
            # Commit this iteration's update on the still-active lanes; the
            # newly converged ones freeze at exactly these values.
            np.copyto(total_g, new_total_g, where=active)
            np.copyto(motors_g, new_motors_g, where=active)
            np.copyto(escs_g, new_escs_g, where=active)
            np.copyto(wires_g, new_wires_g, where=active)
            # A lane stays active while |new - old| >= tolerance.
            np.greater_equal(scratch_a, _TOLERANCE_G, out=lane_flags)
            np.logical_and(active, lane_flags, out=active)
            if int(np.count_nonzero(active)) <= _SCALAR_TAIL_WIDTH:
                iterations_used = iteration + 1
                break

    # Straggler lanes finish per-lane through the scalar helpers themselves
    # (the oracle), so the hand-off cannot perturb a single bit.  Each lane
    # gets exactly the iteration budget the scalar loop would have left.
    if active.any():
        tail_budget = _MAX_ITERATIONS - iterations_used
        propeller_models: Dict[float, object] = {}
        for lane in np.flatnonzero(active).tolist():
            inch = float(propeller_inch[lane])
            propeller = propeller_models.get(inch)
            if propeller is None:
                propeller = typical_propeller_for(inch)
                propeller_models[inch] = propeller
            lane_total = float(total_g[lane])
            lane_twr = float(twr[lane])
            lane_voltage = float(voltage_v[lane])
            lane_battery = float(battery_g[lane])
            lane_fixed = float(fixed_g[lane])
            code = FAIL_NOT_CONVERGED
            for _ in range(tail_budget):
                if lane_total > _DIVERGENCE_LIMIT_G:
                    code = FAIL_DIVERGED
                    break
                lane_thrust_g = lane_twr * lane_total / 4.0
                lane_kv = required_kv_for(propeller, lane_thrust_g, lane_voltage)
                lane_motors = 4.0 * motor_mass_g_for(lane_kv, lane_thrust_g)
                lane_current = scalar_motor_max_current_a(
                    lane_total, inch, lane_voltage, lane_twr
                )
                lane_escs = esc_set_weight_g(
                    max(lane_current, 1.0), grid.esc_class
                )
                lane_wires = constants.WIRING_WEIGHT_FRACTION * (
                    lane_motors + lane_escs + lane_battery
                )
                new_total = lane_fixed + lane_motors + lane_escs + lane_wires
                if abs(new_total - lane_total) < _TOLERANCE_G:
                    total_g[lane] = new_total
                    motors_g[lane] = lane_motors
                    escs_g[lane] = lane_escs
                    wires_g[lane] = lane_wires
                    code = 0
                    break
                lane_total = new_total
            failure_code[lane] = code
        active.fill(False)

    # Post-closure feasibility gates, in the scalar path's raise order.
    # The gates run on the *closure* total (which includes avionics), exactly
    # like close_weight's final checks.
    closed = failure_code == 0
    thrust_per_motor_g = twr * total_g / 4.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gate_thrust_n = thrust_per_motor_g / 1000.0 * constants.GRAVITY_M_S2
        gate_kv = _required_kv(gate_thrust_n, ct_rho_d4, voltage_v)
        gate_current_a = _per_motor_current_a(
            gate_thrust_n, induced_power_sqrt_term, voltage_v
        )
        gate_c_rating = 4.0 * gate_current_a * 1.2 / (capacity_mah / 1000.0)
    failure_code[closed & (gate_kv > MAX_FEASIBLE_KV)] = FAIL_KV
    failure_code[
        closed
        & (failure_code == 0)
        & (gate_current_a > MAX_FEASIBLE_ESC_CURRENT_A)
    ] = FAIL_ESC_CURRENT
    failure_code[
        closed & (failure_code == 0) & (gate_c_rating > MAX_FEASIBLE_C_RATING)
    ] = FAIL_C_RATING
    feasible = failure_code == 0

    # Equations 2-7 on the surviving lanes.  DroneDesign.evaluate() works
    # from WeightBreakdown.total_g — the sum of the breakdown terms, which
    # does NOT include avionics — so the reported current/Kv/powers use that
    # total, replicating its summation order term for term.
    breakdown_total_g = (
        frame_g
        + battery_g
        + motors_g
        + escs_g
        + propellers_g
        + grid.compute_weight_g
        + grid.sensors_weight_g
        + grid.payload_g
        + wires_g
    )
    eval_thrust_per_motor_g = twr * breakdown_total_g / 4.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        eval_thrust_n = eval_thrust_per_motor_g / 1000.0 * constants.GRAVITY_M_S2
        motor_current_a = _per_motor_current_a(
            eval_thrust_n, induced_power_sqrt_term, voltage_v
        )
        motor_kv = _required_kv(eval_thrust_n, ct_rho_d4, voltage_v)
        c_rating = 4.0 * motor_current_a * 1.2 / (capacity_mah / 1000.0)
        propulsion_hover_w = 4.0 * motor_current_a * grid.hover_load * voltage_v
        hover_power_w = (
            propulsion_hover_w + grid.compute_power_w
        ) + grid.sensors_power_w
        propulsion_maneuver_w = 4.0 * motor_current_a * grid.maneuver_load * voltage_v
        maneuver_power_w = (
            propulsion_maneuver_w + grid.compute_power_w
        ) + grid.sensors_power_w
        usable_energy_wh = (
            capacity_mah / 1000.0 * voltage_v * constants.LIPO_DRAIN_LIMIT * 1.0
        )
        flight_time = usable_energy_wh / hover_power_w * 60.0
        maneuver_flight_time = usable_energy_wh / maneuver_power_w * 60.0
        share_hover = grid.compute_power_w / hover_power_w
        share_maneuver = grid.compute_power_w / maneuver_power_w
        gained_min = flight_time * share_hover / (1.0 - share_hover)

    # Mask infeasible lanes to NaN in place — every array below is freshly
    # computed this call (never a cache entry or grid field), so mutating
    # is safe and avoids a full np.where pass per output array.
    infeasible_idx = np.flatnonzero(~feasible)

    def _masked(values: np.ndarray) -> np.ndarray:
        values[infeasible_idx] = np.nan
        return values

    # Kv / current / C-rating carry the *gate* values on lanes that closed
    # but then failed a catalog limit — failure_message quotes them.
    nan = np.full(n, np.nan)
    closed_mask = closed
    return BatchEvaluation(
        grid=grid,
        feasible=feasible,
        failure_code=failure_code,
        frame_g=_masked(frame_g),
        battery_g=_masked(battery_g),
        motors_g=_masked(motors_g),
        escs_g=_masked(escs_g),
        propellers_g=_masked(propellers_g.copy()),
        wires_g=_masked(wires_g),
        total_weight_g=_masked(breakdown_total_g),
        propeller_inch=_masked(propeller_inch.copy()),
        battery_voltage_v=_masked(voltage_v),
        motor_max_current_a=np.where(
            feasible, motor_current_a, np.where(closed_mask, gate_current_a, nan)
        ),
        motor_kv=np.where(
            feasible, motor_kv, np.where(closed_mask, gate_kv, nan)
        ),
        required_battery_c_rating=np.where(
            feasible, c_rating, np.where(closed_mask, gate_c_rating, nan)
        ),
        hover_power_w=_masked(hover_power_w),
        maneuver_power_w=_masked(maneuver_power_w),
        usable_energy_wh=_masked(usable_energy_wh),
        flight_time_min=_masked(flight_time),
        maneuver_flight_time_min=_masked(maneuver_flight_time),
        compute_share_hover=_masked(share_hover),
        compute_share_maneuver=_masked(share_maneuver),
        gained_flight_time_min=_masked(gained_min),
    )


@pure
def evaluate_batch(
    wheelbase_mm: object,
    battery_cells: object,
    battery_capacity_mah: object,
    **kwargs: object,
) -> BatchEvaluation:
    """Convenience wrapper: broadcast inputs, build the grid, evaluate it."""
    grid = BatchDesignGrid.from_arrays(
        wheelbase_mm, battery_cells, battery_capacity_mah, **kwargs  # type: ignore[arg-type]
    )
    return evaluate_grid(grid)


def capacity_cells_grid(
    cell_counts: Tuple[int, ...],
    capacities_mah: Tuple[float, ...],
) -> Dict[str, np.ndarray]:
    """Flatten a cells x capacities product grid (cells-major ordering).

    The ordering matches the scalar sweep's nested loops, so lane ``i``
    corresponds to the ``i``-th design the scalar path would evaluate.
    """
    cells = np.repeat(np.asarray(cell_counts, dtype=np.int64), len(capacities_mah))
    capacities = np.tile(np.asarray(capacities_mah, dtype=float), len(cell_counts))
    return {"battery_cells": cells, "battery_capacity_mah": capacities}
