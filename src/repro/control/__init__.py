"""Inner-/outer-loop control stack (paper Section 2.1.3, Figure 6, Table 2)."""

from repro.control.attitude import AttitudeController
from repro.control.cascade import (
    ControlRates,
    HierarchicalController,
    StateTargets,
    TargetMode,
)
from repro.control.estimation import InsEkf
from repro.control.mixer import MotorMixer
from repro.control.pid import PidController
from repro.control.position import (
    PositionController,
    VelocityController,
    acceleration_to_attitude_thrust,
)
from repro.control.thrust import ThrustController

__all__ = [
    "AttitudeController",
    "ControlRates",
    "HierarchicalController",
    "StateTargets",
    "TargetMode",
    "InsEkf",
    "MotorMixer",
    "PidController",
    "PositionController",
    "VelocityController",
    "acceleration_to_attitude_thrust",
    "ThrustController",
]
