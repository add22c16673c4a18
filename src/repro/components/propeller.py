"""Propeller set weight for the design equations.

A propeller's mass follows its diameter through the aerodynamic model in
:mod:`repro.physics.propeller`.
"""

from __future__ import annotations

from repro.physics.propeller import typical_propeller_for


def propeller_set_weight_g(diameter_inch: float, count: int = 4) -> float:
    """Weight (g) of a full set of ``count`` propellers."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return typical_propeller_for(diameter_inch).mass_g * count
