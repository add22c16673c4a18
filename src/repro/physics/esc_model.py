"""ESC thermal protection: the throttle ceiling of an overheating ESC.

Paper Section 2.1.2: ESCs need "a switching frequency of 60-600 KHz while
delivering hundreds of Watts", so they run hot.  The ESC thermal fault
(:mod:`repro.faults.injectors`) derates the motor command through
:func:`thermal_derate_fraction`.
"""

from __future__ import annotations

#: ESC thermal protection band: full power below the soft limit, linear
#: derating to the floor at the hard limit (typical BLHeli/AM32 behaviour).
ESC_THROTTLE_SOFT_LIMIT_C = 90.0
ESC_THROTTLE_HARD_LIMIT_C = 125.0
ESC_THERMAL_DERATE_FLOOR = 0.35


def thermal_derate_fraction(
    temperature_c: float,
    soft_limit_c: float = ESC_THROTTLE_SOFT_LIMIT_C,
    hard_limit_c: float = ESC_THROTTLE_HARD_LIMIT_C,
    floor: float = ESC_THERMAL_DERATE_FLOOR,
) -> float:
    """Throttle ceiling [floor, 1] an overheating ESC allows.

    Firmware thermal protection ramps the permitted output down linearly
    between the soft and hard temperature limits rather than cutting the
    motor — losing a rotor mid-air is worse than flying soft.
    """
    if soft_limit_c >= hard_limit_c:
        raise ValueError("soft limit must be below hard limit")
    if not 0.0 < floor <= 1.0:
        raise ValueError(f"derate floor must be in (0, 1], got {floor}")
    if temperature_c <= soft_limit_c:
        return 1.0
    if temperature_c >= hard_limit_c:
        return floor
    span = (temperature_c - soft_limit_c) / (hard_limit_c - soft_limit_c)
    return 1.0 - span * (1.0 - floor)
