"""Crash envelope: the ground-truth limits beyond which the airframe is lost.

A frozen dataclass of thresholds read by the four terminal ``crash.*``
invariants of :class:`repro.chaos.invariants.SafetyMonitor` — the one
definition of "crashed" for every chaos trial and canned scenario
(:mod:`repro.faults.scenarios`) in the repo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CrashEnvelope:
    """Ground-truth state limits that mean the vehicle has been lost.

    75 degrees of tilt is unrecoverable for this controller, -0.3 m is below
    any plausible terrain model, and touching down faster than 3 m/s breaks
    the airframe.
    """

    #: Combined roll/pitch magnitude treated as loss of control.
    tilt_limit_rad: float = math.radians(75.0)
    #: Altitude below which the vehicle has punched into the ground.
    impact_altitude_m: float = -0.3
    #: Altitude under which a fast descent counts as a landing, not flight.
    touchdown_altitude_m: float = 0.15
    #: Descent speed at touchdown that destroys the airframe.
    hard_landing_speed_m_s: float = 3.0
    #: Altitude above which a dead battery means a falling vehicle.
    depleted_altitude_m: float = 1.0

    def __post_init__(self) -> None:
        if self.tilt_limit_rad <= 0:
            raise ValueError(f"tilt limit must be positive: {self.tilt_limit_rad}")
        if self.hard_landing_speed_m_s <= 0:
            raise ValueError(
                f"hard-landing speed must be positive: {self.hard_landing_speed_m_s}"
            )
        if self.touchdown_altitude_m <= self.impact_altitude_m:
            raise ValueError(
                "touchdown altitude must sit above the impact altitude: "
                f"{self.touchdown_altitude_m} <= {self.impact_altitude_m}"
            )


#: The shared default envelope every harness flies under unless overridden.
DEFAULT_CRASH_ENVELOPE = CrashEnvelope()
