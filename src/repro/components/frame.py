"""Quadcopter frame catalog models (paper Figure 8b, Table 3 'Frame Wheelbase').

The wheelbase — diagonal motor-to-motor distance — sets the maximum propeller
diameter and correlates with frame weight.  The paper fits 25 commercial
frames: ``weight = 1.2767 * wheelbase - 167.6`` for wheelbases above 200 mm,
with small (<200 mm) frames scattered between 50 g and 200 g.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.components.base import Component, LinearFit
from repro.physics.propeller import max_propeller_inch_for_wheelbase

#: Figure 8b fit for wheelbases above 200 mm.
FIG8B_LARGE_FIT = LinearFit(slope=1.2767, intercept=-167.6)

#: Small-frame fit chosen to be continuous with the large fit at 200 mm
#: (1.2767*200 - 167.6 = 87.74 g) and to land in the paper's 50-200 g band.
FIG8B_SMALL_FIT = LinearFit(slope=0.35, intercept=17.74)

SMALL_FRAME_LIMIT_MM = 200.0
MIN_WHEELBASE_MM = 40.0
MAX_WHEELBASE_MM = 1100.0

#: Named wheelbases studied throughout the paper (Figures 9 and 10).
PAPER_WHEELBASES_MM = (50.0, 100.0, 200.0, 450.0, 800.0)


@dataclass(frozen=True)
class FrameSpec(Component):
    """One commercial quadcopter frame."""

    wheelbase_mm: float = 450.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not MIN_WHEELBASE_MM <= self.wheelbase_mm <= MAX_WHEELBASE_MM:
            raise ValueError(
                f"wheelbase {self.wheelbase_mm} mm outside "
                f"[{MIN_WHEELBASE_MM}, {MAX_WHEELBASE_MM}]"
            )

    @property
    def max_propeller_inch(self) -> float:
        return max_propeller_inch_for_wheelbase(self.wheelbase_mm)

    @property
    def arm_length_m(self) -> float:
        """Motor-to-center distance (m): half the diagonal wheelbase."""
        return self.wheelbase_mm / 1000.0 / 2.0


def frame_weight_g(wheelbase_mm: float) -> float:
    """Frame weight (g) from the Figure 8b piecewise fit."""
    if not MIN_WHEELBASE_MM <= wheelbase_mm <= MAX_WHEELBASE_MM:
        raise ValueError(
            f"wheelbase {wheelbase_mm} mm outside "
            f"[{MIN_WHEELBASE_MM}, {MAX_WHEELBASE_MM}]"
        )
    if wheelbase_mm > SMALL_FRAME_LIMIT_MM:
        return FIG8B_LARGE_FIT.predict(wheelbase_mm)
    return FIG8B_SMALL_FIT.predict(wheelbase_mm)


def make_frame(
    wheelbase_mm: float,
    manufacturer: str = "analytic",
    weight_noise_g: float = 0.0,
) -> FrameSpec:
    """Construct a frame whose weight follows the Figure 8b population."""
    weight = frame_weight_g(wheelbase_mm) + weight_noise_g
    return FrameSpec(
        name=f"Frame-{int(wheelbase_mm)}mm",
        manufacturer=manufacturer,
        weight_g=max(10.0, weight),
        wheelbase_mm=wheelbase_mm,
    )
