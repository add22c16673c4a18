"""Brushless DC (BLDC) motor model.

The paper (Section 2.1.1, Table 3, Figure 9) characterizes motors by their
Kv rating (RPM per volt), the supply voltage (LiPo cell count), and the
propeller they can turn.  This module provides:

* :class:`BldcMotor` — the steady-state electrical model used by the flight
  simulator (current from torque via the torque constant Kt = 1/Kv).
* sizing helpers that, given a target thrust and propeller, pick the Kv and
  estimate motor mass — the backbone of the Figure 9 sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.markers import hot_path, pure
from repro.physics import constants
from repro.physics.propeller import PropellerModel

RPM_PER_RAD_S = 60.0 / (2.0 * math.pi)


def kt_from_kv(kv_rpm_per_v: float) -> float:
    """Torque constant Kt (N*m/A) from the Kv rating (RPM/V).

    Kt = 60 / (2*pi*Kv): the electromechanical duality of DC machines —
    low-Kv motors produce more torque per amp, which is why large propellers
    need low-Kv motors (paper Table 3, 'Thrust Per Motor').
    """
    if kv_rpm_per_v <= 0:
        raise ValueError(f"Kv must be positive, got {kv_rpm_per_v}")
    return RPM_PER_RAD_S / kv_rpm_per_v


@dataclass(frozen=True)
class BldcMotor:
    """Steady-state BLDC motor: V = I*R + omega/Kv, torque = Kt*(I - I0)."""

    kv_rpm_per_v: float
    resistance_ohm: float = 0.10
    no_load_current_a: float = 0.5
    mass_g: float = 30.0
    max_current_a: float = 30.0

    def __post_init__(self) -> None:
        if self.kv_rpm_per_v <= 0:
            raise ValueError(f"Kv must be positive, got {self.kv_rpm_per_v}")
        if self.resistance_ohm < 0:
            raise ValueError("winding resistance cannot be negative")
        if self.no_load_current_a < 0:
            raise ValueError("no-load current cannot be negative")
        if self.max_current_a <= 0:
            raise ValueError("max current must be positive")

    @property
    def kt_nm_per_a(self) -> float:
        return kt_from_kv(self.kv_rpm_per_v)

    def current_for_torque_a(self, torque_nm: float) -> float:
        """Phase current (A) to produce ``torque_nm`` at the shaft."""
        if torque_nm < 0:
            raise ValueError(f"torque must be non-negative, got {torque_nm}")
        return torque_nm / self.kt_nm_per_a + self.no_load_current_a

    def voltage_for_operating_point(self, rev_per_s: float, current_a: float) -> float:
        """Terminal voltage (V) to spin at ``rev_per_s`` while drawing ``current_a``."""
        omega_rad_s = rev_per_s * 2.0 * math.pi
        back_emf = omega_rad_s / (self.kv_rpm_per_v / RPM_PER_RAD_S)
        return back_emf + current_a * self.resistance_ohm

    def max_rev_per_s(self, supply_v: float) -> float:
        """No-load top speed (rev/s) at ``supply_v`` volts."""
        if supply_v <= 0:
            raise ValueError(f"supply voltage must be positive, got {supply_v}")
        return self.kv_rpm_per_v * supply_v / 60.0

    def electrical_power_w(self, rev_per_s: float, torque_nm: float) -> float:
        """Electrical input power (W) at the given mechanical operating point."""
        current = self.current_for_torque_a(torque_nm)
        voltage = self.voltage_for_operating_point(rev_per_s, current)
        return voltage * current

    def operating_point(
        self, propeller: PropellerModel, thrust_n: float, supply_v: float
    ) -> "MotorOperatingPoint":
        """Solve the steady-state point where the propeller produces ``thrust_n``.

        Raises :class:`MotorSaturationError` when the supply voltage cannot
        reach the required speed or the current exceeds the motor limit.
        """
        rev_per_s = propeller.rev_per_s_for_thrust(thrust_n)
        torque = propeller.torque_nm(rev_per_s)
        current = self.current_for_torque_a(torque)
        voltage = self.voltage_for_operating_point(rev_per_s, current)
        if voltage > supply_v * 1.0001:
            raise MotorSaturationError(
                f"needs {voltage:.1f} V but supply is {supply_v:.1f} V "
                f"(Kv={self.kv_rpm_per_v:.0f}, thrust={thrust_n:.1f} N)"
            )
        if current > self.max_current_a:
            raise MotorSaturationError(
                f"needs {current:.1f} A but motor limit is {self.max_current_a:.1f} A"
            )
        return MotorOperatingPoint(
            rev_per_s=rev_per_s,
            torque_nm=torque,
            current_a=current,
            voltage_v=voltage,
            electrical_power_w=voltage * current,
        )


class MotorSaturationError(RuntimeError):
    """Raised when a motor cannot reach the requested operating point."""


@dataclass(frozen=True)
class MotorOperatingPoint:
    """Solved steady state of a motor-propeller pair."""

    rev_per_s: float
    torque_nm: float
    current_a: float
    voltage_v: float
    electrical_power_w: float

    @property
    def rpm(self) -> float:
        return self.rev_per_s * 60.0


@pure
@hot_path
def required_kv_for(
    propeller: PropellerModel,
    max_thrust_g: float,
    supply_v: float,
    headroom: float = 1.15,
) -> float:
    """Kv rating (RPM/V) needed to reach ``max_thrust_g`` on ``supply_v`` volts.

    The motor must reach the RPM where the propeller produces the max thrust,
    with some voltage headroom for control authority.  Small propellers need
    enormous RPM and thus huge Kv on low cell counts — reproducing the
    51000 Kv (1S/1") to 420 Kv (6S/20") span in Figure 9.
    """
    if max_thrust_g <= 0:
        raise ValueError(f"max thrust must be positive, got {max_thrust_g}")
    if supply_v <= 0:
        raise ValueError(f"supply voltage must be positive, got {supply_v}")
    rpm_needed = propeller.rpm_for_thrust_grams(max_thrust_g) * headroom
    return rpm_needed / supply_v


@pure
@hot_path
def motor_mass_g_for(kv_rpm_per_v: float, max_thrust_g: float) -> float:
    """Estimated motor mass (g) from its torque class.

    Motor mass tracks required torque: low-Kv, high-thrust motors need more
    poles and larger diameters (paper: 5 g/motor at 100 mm frames up to
    100 g/motor at ~1000 mm frames).  We model mass against the peak torque
    the motor must produce, calibrated to that 5–100 g span.
    """
    if kv_rpm_per_v <= 0:
        raise ValueError(f"Kv must be positive, got {kv_rpm_per_v}")
    if max_thrust_g <= 0:
        raise ValueError(f"max thrust must be positive, got {max_thrust_g}")
    # Peak torque ~ thrust * (effective moment arm); the arm scales inversely
    # with Kv (bigger props, slower spin, more torque).  Calibrated to the
    # paper's span: ~5 g/motor on 100 mm frames, ~150 g on 800-1000 mm.
    torque_proxy = max_thrust_g / math.sqrt(kv_rpm_per_v)
    # x^0.75 spelled as sqrt(x*sqrt(x)): sqrt and multiply are exactly
    # rounded in IEEE-754, so the mass does not depend on the host's libm
    # pow.  The design-space golden vectors are recorded from this spelling.
    mass = 4.2 * math.sqrt(torque_proxy * math.sqrt(torque_proxy))
    return max(2.0, mass)
