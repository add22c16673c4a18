"""Propulsion, airframe, and battery physics substrate.

Everything the design-space equations and the flight simulator need:
momentum-theory propellers, BLDC motors, LiPo discharge dynamics, wind and
air-density environment, and 6-DOF quadcopter rigid-body dynamics.
"""

from repro.physics import constants
from repro.physics.battery_model import BatteryDepletedError, LipoBattery
from repro.physics.environment import Environment, Wind
from repro.physics.thermal import (
    ThermalModel,
    esc_dissipation_w,
    esc_thermal_model,
)
from repro.physics.motor import (
    BldcMotor,
    kt_from_kv,
    motor_mass_g_for,
    required_kv_for,
)
from repro.physics.propeller import (
    PropellerModel,
    hover_electrical_power_w,
    ideal_hover_power_w,
    max_propeller_inch_for_wheelbase,
    typical_propeller_for,
)
from repro.physics.rigid_body import (
    QuadcopterBody,
    QuadcopterState,
    euler_from_quaternion,
    quaternion_from_euler,
    quaternion_multiply,
    quaternion_to_rotation,
)

__all__ = [
    "constants",
    "BatteryDepletedError",
    "LipoBattery",
    "Environment",
    "Wind",
    "ThermalModel",
    "esc_dissipation_w",
    "esc_thermal_model",
    "BldcMotor",
    "kt_from_kv",
    "motor_mass_g_for",
    "required_kv_for",
    "PropellerModel",
    "hover_electrical_power_w",
    "ideal_hover_power_w",
    "max_propeller_inch_for_wheelbase",
    "typical_propeller_for",
    "QuadcopterBody",
    "QuadcopterState",
    "euler_from_quaternion",
    "quaternion_from_euler",
    "quaternion_multiply",
    "quaternion_to_rotation",
]
