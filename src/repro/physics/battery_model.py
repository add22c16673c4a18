"""Dynamic LiPo battery model used by the flight simulator.

The design-space equations only need capacity/weight/voltage (provided by
``repro.components.battery``); the simulator additionally needs terminal
voltage sag under load, state of charge, and the 85% drain safety limit
(paper Section 2.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.physics import constants


class BatteryDepletedError(RuntimeError):
    """Raised when a flight tries to draw energy past the safe drain limit."""


@dataclass
class LipoBattery:
    """A discharging LiPo pack with internal resistance and a drain limit.

    The open-circuit voltage follows a piecewise-linear discharge curve per
    cell (flat plateau around the nominal voltage with steep ends), which is
    accurate enough to reproduce voltage-sag effects on motor headroom.
    """

    cells: int
    capacity_mah: float
    c_rating: float = 25.0
    internal_resistance_ohm_per_cell: float = 0.006
    drain_limit: float = constants.LIPO_DRAIN_LIMIT
    used_mah: float = field(default=0.0)
    #: Extra pack-level series resistance injected by a fault (aged cells,
    #: a failing connector) — adds straight to voltage sag under load.
    fault_resistance_ohm: float = field(default=0.0)
    #: The last open-circuit voltage and the (used_mah, capacity_mah,
    #: cells) it was computed at: a flight tick reads it three times
    #: between two draws.
    _ocv_key: tuple = field(default=(), init=False, repr=False, compare=False)
    _ocv_v: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.cells <= 12:
            raise ValueError(f"cell count out of range [1, 12]: {self.cells}")
        if self.capacity_mah <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_mah}")
        if self.c_rating <= 0:
            raise ValueError(f"C rating must be positive, got {self.c_rating}")
        if not 0.0 < self.drain_limit <= 1.0:
            raise ValueError(f"drain limit must be in (0, 1], got {self.drain_limit}")
        if self.used_mah < 0:
            raise ValueError("used capacity cannot be negative")
        if self.fault_resistance_ohm < 0:
            raise ValueError("fault resistance cannot be negative")

    @property
    def nominal_voltage_v(self) -> float:
        return self.cells * constants.LIPO_CELL_NOMINAL_V

    @property
    def max_continuous_current_a(self) -> float:
        """Maximum safe continuous current from the C rating (Table 3)."""
        return self.capacity_mah / 1000.0 * self.c_rating

    @property
    def usable_mah(self) -> float:
        """Capacity available for flight after the 85% drain limit."""
        return self.capacity_mah * self.drain_limit

    @property
    def remaining_mah(self) -> float:
        return max(0.0, self.usable_mah - self.used_mah)

    @property
    def state_of_charge(self) -> float:
        """Fraction of *total* capacity remaining, in [1 - drain_limit, 1]."""
        return max(0.0, 1.0 - self.used_mah / self.capacity_mah)

    @property
    def depleted(self) -> bool:
        return self.remaining_mah <= 0.0

    @hot_path
    def open_circuit_voltage_v(self) -> float:
        """Open-circuit pack voltage from state of charge.

        Piecewise-linear per-cell curve: 4.2 V at full, a shallow plateau
        through the mid range, and a steep knee below 15% SoC.
        """
        key = (self.used_mah, self.capacity_mah, self.cells)
        if key == self._ocv_key:
            return self._ocv_v
        soc = self.state_of_charge
        if soc > 0.9:
            cell_v = 4.05 + (soc - 0.9) / 0.1 * (constants.LIPO_CELL_FULL_V - 4.05)
        elif soc > 0.15:
            cell_v = 3.70 + (soc - 0.15) / 0.75 * (4.05 - 3.70)
        else:
            cell_v = constants.LIPO_CELL_EMPTY_V + soc / 0.15 * (
                3.70 - constants.LIPO_CELL_EMPTY_V
            )
        self._ocv_key = key
        self._ocv_v = cell_v * self.cells
        return self._ocv_v

    @hot_path
    def terminal_voltage_v(self, load_current_a: float) -> float:
        """Pack voltage under ``load_current_a`` amps of load (with sag)."""
        if load_current_a < 0:
            raise ValueError(f"load current must be non-negative, got {load_current_a}")
        resistance = (
            self.internal_resistance_ohm_per_cell * self.cells
            + self.fault_resistance_ohm
        )
        return max(0.0, self.open_circuit_voltage_v() - load_current_a * resistance)

    def inject_drain(self, drain_mah: float) -> None:
        """Deterministically consume capacity (fault injection: a cell going
        bad, a miscalibrated fuel gauge).  Clamped at full capacity so the
        model stays consistent; the drain-limit failsafe sees the loss."""
        self.used_mah = drained_mah(self, self.used_mah, drain_mah)

    @hot_path
    def draw(self, current_a: float, duration_s: float) -> float:
        """Draw ``current_a`` for ``duration_s`` seconds; return energy (J).

        Raises :class:`BatteryDepletedError` if the draw would exceed the
        safe drain limit, and :class:`ValueError` if the current exceeds the
        C-rating limit (the battery would be damaged).
        """
        if current_a < 0 or duration_s < 0:
            raise ValueError("current and duration must be non-negative")
        if current_a > self.max_continuous_current_a * 1.10:
            raise ValueError(
                f"current {current_a:.1f} A exceeds C-rating limit "
                f"{self.max_continuous_current_a:.1f} A"
            )
        drawn_mah = current_a * duration_s / 3.6
        if drawn_mah > self.remaining_mah + 1e-9:
            raise BatteryDepletedError(
                f"drawing {drawn_mah:.1f} mAh but only {self.remaining_mah:.1f} "
                f"mAh remain before the {self.drain_limit:.0%} drain limit"
            )
        voltage = self.terminal_voltage_v(current_a)
        self.used_mah += drawn_mah
        return voltage * current_a * duration_s

    def reset(self) -> None:
        """Recharge the pack to full (and clear injected faults)."""
        self.used_mah = 0.0
        self.fault_resistance_ohm = 0.0


def drained_mah(battery: LipoBattery, used_mah: float, drain_mah: float) -> float:
    """``used_mah`` of a ``battery`` pack after an injected drain of
    ``drain_mah``, clamped at full capacity; raises ValueError on a negative
    drain.  Shared by :meth:`LipoBattery.inject_drain` and the ensemble's
    lanes."""
    if drain_mah < 0:
        raise ValueError(f"drain cannot be negative, got {drain_mah}")
    return min(battery.capacity_mah, used_mah + drain_mah)


# -- row kernels: the batched twins of LipoBattery's arithmetic over the
# ``used_mah`` rows of N packs of one ``battery`` type, bit for bit per row.


def soc_rows(battery: LipoBattery, used_mah: np.ndarray) -> np.ndarray:
    """Mirrors :attr:`LipoBattery.state_of_charge` row-wise."""
    soc = 1.0 - used_mah / battery.capacity_mah
    return np.where(soc > 0.0, soc, 0.0)


def ocv_rows(battery: LipoBattery, used_mah: np.ndarray) -> np.ndarray:
    """Mirrors :meth:`LipoBattery.open_circuit_voltage_v` row-wise."""
    soc = soc_rows(battery, used_mah)
    full = 4.05 + (soc - 0.9) / 0.1 * (constants.LIPO_CELL_FULL_V - 4.05)
    mid = 3.70 + (soc - 0.15) / 0.75 * (4.05 - 3.70)
    low = constants.LIPO_CELL_EMPTY_V + soc / 0.15 * (
        3.70 - constants.LIPO_CELL_EMPTY_V
    )
    cell_v = np.where(soc > 0.9, full, np.where(soc > 0.15, mid, low))
    return cell_v * battery.cells


def terminal_voltage_rows(
    battery: LipoBattery, ocv: np.ndarray, load_current_a, fault_resistance_ohm
) -> np.ndarray:
    """Mirrors :meth:`LipoBattery.terminal_voltage_v` from ``ocv_rows``."""
    resistance = (
        battery.internal_resistance_ohm_per_cell * battery.cells
        + fault_resistance_ohm
    )
    sagged = ocv - load_current_a * resistance
    return np.where(sagged > 0.0, sagged, 0.0)


def draw_rows(
    battery: LipoBattery, used_mah: np.ndarray, current_a: np.ndarray, dt: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Mirrors ``draw(min(current, max_continuous_current_a), dt)``: the new
    ``used_mah`` rows and the rows whose draw would pass the drain limit
    (the scalar raises :class:`BatteryDepletedError` there)."""
    ceiling = battery.max_continuous_current_a
    draw = np.where(current_a < ceiling, current_a, ceiling)
    drawn_mah = draw * dt / 3.6
    remaining = battery.usable_mah - used_mah
    remaining = np.where(remaining > 0.0, remaining, 0.0)
    return used_mah + drawn_mah, drawn_mah > remaining + 1e-9
