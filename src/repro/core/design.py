"""High-level design-point API: describe a drone, get the full tradeoff story.

:class:`DroneDesign` is the public entry point most users want — it wires the
Equations 1-7 chain end to end:

>>> from repro.core.design import DroneDesign
>>> design = DroneDesign(wheelbase_mm=450, battery_cells=3,
...                      battery_capacity_mah=3000, compute_power_w=3.0)
>>> result = design.evaluate()
>>> result.flight_time_min > 5
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.components.compute import ComputeBoard
from repro.components.esc import EscClass
from repro.components.sensors import SensorProduct
from repro.core import equations
from repro.core.equations import WeightBreakdown
from repro.physics import constants
from repro.physics.propeller import max_propeller_inch_for_wheelbase


@dataclass(frozen=True)
class DesignEvaluation:
    """Everything Equations 1-7 say about one design point."""

    weight: WeightBreakdown
    propeller_inch: float
    battery_voltage_v: float
    motor_max_current_a: float
    motor_kv: float
    required_battery_c_rating: float
    hover_power_w: float
    maneuver_power_w: float
    compute_power_w: float
    sensors_power_w: float
    usable_energy_wh: float
    flight_time_min: float
    maneuver_flight_time_min: float
    compute_share_hover: float
    compute_share_maneuver: float
    gained_flight_time_min: float

    @property
    def total_weight_g(self) -> float:
        return self.weight.total_g

    def as_dict(self) -> dict:
        """Flatten the evaluation to JSON-friendly scalars."""
        return {
            "total_weight_g": self.total_weight_g,
            "weight_breakdown_g": self.weight.as_dict(),
            "propeller_inch": self.propeller_inch,
            "battery_voltage_v": self.battery_voltage_v,
            "motor_max_current_a": self.motor_max_current_a,
            "motor_kv": self.motor_kv,
            "required_battery_c_rating": self.required_battery_c_rating,
            "hover_power_w": self.hover_power_w,
            "maneuver_power_w": self.maneuver_power_w,
            "usable_energy_wh": self.usable_energy_wh,
            "flight_time_min": self.flight_time_min,
            "maneuver_flight_time_min": self.maneuver_flight_time_min,
            "compute_share_hover": self.compute_share_hover,
            "compute_share_maneuver": self.compute_share_maneuver,
            "gained_flight_time_min": self.gained_flight_time_min,
        }

    def summary(self) -> str:
        """Human-readable one-paragraph report."""
        return (
            f"{self.total_weight_g:.0f} g drone, {self.propeller_inch:g}\" props, "
            f"{self.battery_voltage_v:.1f} V pack: hover {self.hover_power_w:.1f} W "
            f"({self.flight_time_min:.1f} min), maneuver "
            f"{self.maneuver_power_w:.1f} W; compute is "
            f"{self.compute_share_hover:.1%} of hover power "
            f"(up to +{self.gained_flight_time_min:.1f} min if eliminated)"
        )


@dataclass
class DroneDesign:
    """A drone configuration in the paper's design space.

    Only the *choices* live here; everything derived (motor, ESC, weights,
    powers, flight time) is computed by :meth:`evaluate`.
    """

    wheelbase_mm: float
    battery_cells: int
    battery_capacity_mah: float
    compute_power_w: float = 3.0
    compute_weight_g: float = 20.0
    sensors_power_w: float = 0.0
    sensors_weight_g: float = 0.0
    payload_g: float = 0.0
    avionics_weight_g: float = 80.0
    twr: float = constants.MIN_FLYABLE_TWR
    esc_class: EscClass = EscClass.LONG_FLIGHT
    hover_load: float = constants.DEFAULT_HOVER_LOAD
    maneuver_load: float = constants.DEFAULT_MANEUVER_LOAD
    board: Optional[ComputeBoard] = None
    external_sensors: Tuple[SensorProduct, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.wheelbase_mm <= 0:
            raise ValueError(f"wheelbase must be positive, got {self.wheelbase_mm}")
        if self.battery_cells <= 0:
            raise ValueError(f"cell count must be positive, got {self.battery_cells}")
        if self.battery_capacity_mah <= 0:
            raise ValueError("battery capacity must be positive")
        if self.compute_power_w < 0 or self.sensors_power_w < 0:
            raise ValueError("power figures cannot be negative")
        if self.payload_g < 0:
            raise ValueError(f"payload cannot be negative, got {self.payload_g}")
        if self.twr < 1.0:
            raise ValueError(f"TWR below 1 cannot fly, got {self.twr}")
        if self.board is not None:
            # A concrete board overrides the raw power/weight numbers.
            self.compute_power_w = self.board.power_w
            self.compute_weight_g = self.board.weight_g
        if self.external_sensors:
            self.sensors_power_w += sum(s.bus_power_w for s in self.external_sensors)
            self.sensors_weight_g += sum(s.weight_g for s in self.external_sensors)

    @property
    def battery_voltage_v(self) -> float:
        return self.battery_cells * constants.LIPO_CELL_NOMINAL_V

    @property
    def propeller_inch(self) -> float:
        return max_propeller_inch_for_wheelbase(self.wheelbase_mm)

    def evaluate(self) -> DesignEvaluation:
        """Run the full Equations 1-7 chain for this configuration.

        Raises :class:`repro.core.equations.InfeasibleDesignError` when no
        buildable motor/ESC closes the design (e.g. a heavy drone on a 1S
        battery needing an impossibly high Kv motor).
        """
        weight = equations.close_weight(
            wheelbase_mm=self.wheelbase_mm,
            battery_cells=self.battery_cells,
            battery_capacity_mah=self.battery_capacity_mah,
            compute_weight_g=self.compute_weight_g,
            sensors_weight_g=self.sensors_weight_g,
            payload_g=self.payload_g,
            avionics_weight_g=self.avionics_weight_g,
            twr=self.twr,
            esc_class=self.esc_class,
        )
        current = equations.motor_max_current_a(
            weight.total_g, self.propeller_inch, self.battery_voltage_v, self.twr
        )
        from repro.physics.motor import required_kv_for
        from repro.physics.propeller import typical_propeller_for

        kv = required_kv_for(
            typical_propeller_for(self.propeller_inch),
            self.twr * weight.total_g / 4.0,
            self.battery_voltage_v,
        )
        hover_power = equations.average_power_w(
            current,
            self.battery_voltage_v,
            flying_load=self.hover_load,
            compute_power_w=self.compute_power_w,
            sensors_power_w=self.sensors_power_w,
        )
        maneuver_power = equations.average_power_w(
            current,
            self.battery_voltage_v,
            flying_load=self.maneuver_load,
            compute_power_w=self.compute_power_w,
            sensors_power_w=self.sensors_power_w,
        )
        energy = equations.usable_battery_energy_wh(
            self.battery_capacity_mah, self.battery_cells
        )
        hover_time = equations.flight_time_min(energy, hover_power)
        maneuver_time = equations.flight_time_min(energy, maneuver_power)
        share_hover = equations.computation_power_share(
            hover_power, self.compute_power_w
        )
        share_maneuver = equations.computation_power_share(
            maneuver_power, self.compute_power_w
        )
        gained = equations.gained_flight_time_min(share_hover, hover_time)
        return DesignEvaluation(
            weight=weight,
            propeller_inch=self.propeller_inch,
            battery_voltage_v=self.battery_voltage_v,
            motor_max_current_a=current,
            motor_kv=kv,
            required_battery_c_rating=equations.required_c_rating(
                self.battery_capacity_mah, 4.0 * current
            ),
            hover_power_w=hover_power,
            maneuver_power_w=maneuver_power,
            compute_power_w=self.compute_power_w,
            sensors_power_w=self.sensors_power_w,
            usable_energy_wh=energy,
            flight_time_min=hover_time,
            maneuver_flight_time_min=maneuver_time,
            compute_share_hover=share_hover,
            compute_share_maneuver=share_maneuver,
            gained_flight_time_min=gained,
        )

    def to_dict(self) -> dict:
        """Serialize the design *choices* (JSON-friendly).

        Concrete boards/sensors are flattened into their power/weight
        numbers — the dict captures the design point, not object identity.
        """
        return {
            "wheelbase_mm": self.wheelbase_mm,
            "battery_cells": self.battery_cells,
            "battery_capacity_mah": self.battery_capacity_mah,
            "compute_power_w": self.compute_power_w,
            "compute_weight_g": self.compute_weight_g,
            "sensors_power_w": self.sensors_power_w,
            "sensors_weight_g": self.sensors_weight_g,
            "payload_g": self.payload_g,
            "avionics_weight_g": self.avionics_weight_g,
            "twr": self.twr,
            "esc_class": self.esc_class.value,
            "hover_load": self.hover_load,
            "maneuver_load": self.maneuver_load,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DroneDesign":
        """Rebuild a design from :meth:`to_dict` output."""
        payload = dict(data)
        esc_class = payload.pop("esc_class", EscClass.LONG_FLIGHT.value)
        return cls(esc_class=EscClass(esc_class), **payload)
