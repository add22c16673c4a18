"""Electronic speed controller (ESC) catalog models (paper Figure 8a).

ESC weight is strongly correlated with the maximum continuous current the
MOSFET stage can handle.  The paper splits 40 commercial ESCs into two
populations: *long-flight* ESCs (thermally sized for sustained load) and
*short-flight* racing ESCs (lighter, overheat past ~5 minutes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.markers import hot_path, pure
from repro.components.base import Component, LinearFit


class EscClass(enum.Enum):
    """Thermal sizing class of an ESC (paper Figure 8a legend)."""

    LONG_FLIGHT = "long_flight"
    SHORT_FLIGHT = "short_flight"


#: Figure 8a fits: weight of a *set of four* ESCs (g) vs per-ESC max
#: continuous current (A).
FIG8A_WEIGHT_FITS = {
    EscClass.LONG_FLIGHT: LinearFit(slope=4.9678, intercept=-15.757),
    EscClass.SHORT_FLIGHT: LinearFit(slope=1.2269, intercept=11.816),
}

@dataclass(frozen=True)
class EscSpec(Component):
    """One commercial ESC (weight is for a single unit)."""

    max_continuous_current_a: float = 30.0
    esc_class: EscClass = EscClass.LONG_FLIGHT
    burst_current_a: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_continuous_current_a <= 0:
            raise ValueError(
                f"max continuous current must be positive, "
                f"got {self.max_continuous_current_a}"
            )
        if self.burst_current_a and self.burst_current_a < self.max_continuous_current_a:
            raise ValueError("burst current cannot be below continuous current")


@pure
@hot_path
def esc_set_weight_g(
    max_continuous_current_a: float,
    esc_class: EscClass = EscClass.LONG_FLIGHT,
) -> float:
    """Weight (g) of the full set of four ESCs, from the Figure 8a fits."""
    if max_continuous_current_a <= 0:
        raise ValueError(
            f"max continuous current must be positive, got {max_continuous_current_a}"
        )
    fit = FIG8A_WEIGHT_FITS[esc_class]
    return max(4.0, fit.predict(max_continuous_current_a))


def esc_unit_weight_g(
    max_continuous_current_a: float,
    esc_class: EscClass = EscClass.LONG_FLIGHT,
) -> float:
    """Weight (g) of a single ESC."""
    return esc_set_weight_g(max_continuous_current_a, esc_class) / 4.0


def make_esc(
    max_continuous_current_a: float,
    esc_class: EscClass = EscClass.LONG_FLIGHT,
    manufacturer: str = "analytic",
    weight_noise_g: float = 0.0,
) -> EscSpec:
    """Construct an ESC whose weight follows the Figure 8a population."""
    weight = esc_unit_weight_g(max_continuous_current_a, esc_class) + weight_noise_g
    return EscSpec(
        name=f"ESC-{int(max_continuous_current_a)}A-{esc_class.value}",
        manufacturer=manufacturer,
        weight_g=max(1.0, weight),
        max_continuous_current_a=max_continuous_current_a,
        esc_class=esc_class,
        burst_current_a=max_continuous_current_a * 1.3,
    )
