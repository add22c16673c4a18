"""LiPo battery catalog models (paper Figure 7, Table 3 'Battery xSyP').

The paper studies 250 commercial batteries and derives one capacity-to-weight
line per cell count.  Those published coefficients are the ground truth for
our synthetic population and for the closed-form weight model used by the
design-space equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.components.base import Component, LinearFit
from repro.physics import constants

#: Figure 7 regression lines: weight_g = slope * capacity_mah + intercept,
#: keyed by LiPo cell count (xS1P configurations).
FIG7_WEIGHT_FITS: Dict[int, LinearFit] = {
    1: LinearFit(slope=0.019, intercept=4.856),
    2: LinearFit(slope=0.050, intercept=12.316),
    3: LinearFit(slope=0.074, intercept=16.935),
    4: LinearFit(slope=0.077, intercept=81.265),
    5: LinearFit(slope=0.118, intercept=45.478),
    6: LinearFit(slope=0.116, intercept=159.117),
}

#: Discharge-rate (C rating) range observed across the Figure 7 scatter.
C_RATING_RANGE = (20.0, 120.0)


@dataclass(frozen=True)
class BatterySpec(Component):
    """One commercial LiPo pack."""

    cells: int = 3
    capacity_mah: float = 2200.0
    c_rating: float = 25.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cells not in FIG7_WEIGHT_FITS:
            raise ValueError(
                f"unsupported cell count {self.cells}; "
                f"supported: {sorted(FIG7_WEIGHT_FITS)}"
            )
        if self.capacity_mah <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_mah}")
        if self.c_rating <= 0:
            raise ValueError(f"C rating must be positive, got {self.c_rating}")

    @property
    def configuration(self) -> str:
        """The paper's xSyP naming (we model single-parallel packs)."""
        return f"{self.cells}S1P"

    @property
    def nominal_voltage_v(self) -> float:
        return self.cells * constants.LIPO_CELL_NOMINAL_V

    @property
    def stored_energy_wh(self) -> float:
        return self.capacity_mah / 1000.0 * self.nominal_voltage_v

    @property
    def usable_energy_wh(self) -> float:
        """Energy available within the 85% drain limit."""
        return self.stored_energy_wh * constants.LIPO_DRAIN_LIMIT

    @property
    def max_continuous_current_a(self) -> float:
        """I = capacity(Ah) * C (Table 3, 'Discharge Rate')."""
        return self.capacity_mah / 1000.0 * self.c_rating


def battery_weight_g(cells: int, capacity_mah: float) -> float:
    """Closed-form pack weight from the Figure 7 fits.

    This is the function ``W_Battery`` consumed by Equation 1's weight
    closure: heavier for more cells (casing, wiring, protection overhead)
    and linear in capacity.
    """
    if cells not in FIG7_WEIGHT_FITS:
        raise ValueError(
            f"unsupported cell count {cells}; supported: {sorted(FIG7_WEIGHT_FITS)}"
        )
    if capacity_mah <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_mah}")
    return FIG7_WEIGHT_FITS[cells].predict(capacity_mah)


def make_battery(
    cells: int,
    capacity_mah: float,
    c_rating: float = 35.0,
    manufacturer: str = "analytic",
    weight_noise_g: float = 0.0,
) -> BatterySpec:
    """Construct a battery whose weight follows the Figure 7 population."""
    weight = battery_weight_g(cells, capacity_mah) + weight_noise_g
    return BatterySpec(
        name=f"{cells}S1P-{int(capacity_mah)}mAh-{int(c_rating)}C",
        manufacturer=manufacturer,
        weight_g=max(1.0, weight),
        cells=cells,
        capacity_mah=capacity_mah,
        c_rating=c_rating,
    )
