"""Hierarchical inner-loop control with time-scale separation
(paper Figure 6, Table 2).

The control problem is split into three levels by response time:

=========  ==============  =============
Level      Update freq.    Response time
=========  ==============  =============
Position   40 Hz           ~1 s
Attitude   200 Hz          ~100 ms
Thrust     1 kHz           ~50 ms
=========  ==============  =============

:class:`HierarchicalController` runs each level only when it is due, so a
single 1 kHz tick stream exercises the whole cascade at the right relative
rates.  The outer loop interacts exclusively through :class:`StateTargets`
(position / velocity / attitude targets) — the separation the paper insists
on: autonomy never touches actuators directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.attitude import AttitudeController
from repro.control.mixer import MotorMixer
from repro.control.position import (
    PositionController,
    acceleration_to_attitude_thrust,
)
from repro.control.thrust import ThrustController
from repro.physics import constants
from repro.physics.rigid_body import QuadcopterState


class TargetMode(enum.Enum):
    """Which target the outer loop is currently dictating (Figure 6)."""

    POSITION = "position"
    VELOCITY = "velocity"
    ATTITUDE = "attitude"


@dataclass
class StateTargets:
    """Outer-loop set points: position, velocity, and attitude targets."""

    mode: TargetMode = TargetMode.POSITION
    position_m: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity_m_s: np.ndarray = field(default_factory=lambda: np.zeros(3))
    attitude_rad: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw_rad: float = 0.0


@dataclass(frozen=True)
class ControlRates:
    """Update frequencies of the three levels (Hz)."""

    position_hz: float = constants.POSITION_LOOP_HZ
    attitude_hz: float = constants.ATTITUDE_LOOP_HZ
    thrust_hz: float = constants.THRUST_LOOP_HZ

    def __post_init__(self) -> None:
        if not self.thrust_hz >= self.attitude_hz >= self.position_hz > 0:
            raise ValueError(
                "time-scale separation requires thrust >= attitude >= position"
            )


class HierarchicalController:
    """The full Figure 6 inner loop, tickable at the thrust-loop rate."""

    def __init__(
        self,
        mass_kg: float,
        arm_length_m: float,
        inertia_kg_m2: np.ndarray,
        max_thrust_per_motor_n: float,
        rates: Optional[ControlRates] = None,
    ):
        if mass_kg <= 0:
            raise ValueError(f"mass must be positive, got {mass_kg}")
        self.mass_kg = mass_kg
        self.rates = rates or ControlRates()
        self.targets = StateTargets()
        self.position_controller = PositionController()
        self.attitude_controller = AttitudeController(inertia_kg_m2=inertia_kg_m2)
        self.thrust_controller = ThrustController(
            mixer=MotorMixer(
                arm_length_m=arm_length_m,
                max_thrust_per_motor_n=max_thrust_per_motor_n,
            )
        )
        hover = mass_kg * constants.GRAVITY_M_S2
        self._attitude_target = np.zeros(3)
        self._collective_thrust_n = hover
        self._time_s = 0.0
        self._next_position_update = 0.0
        self._next_attitude_update = 0.0
        self._position_level_updates = 0
        self._torque_command = np.zeros(3)

    # -- outer-loop interface -------------------------------------------------

    def set_position_target(self, position_m: np.ndarray, yaw_rad: float = 0.0) -> None:
        self.targets.mode = TargetMode.POSITION
        self.targets.position_m = np.asarray(position_m, dtype=float)
        self.targets.yaw_rad = yaw_rad

    def set_velocity_target(self, velocity_m_s: np.ndarray, yaw_rad: float = 0.0) -> None:
        self.targets.mode = TargetMode.VELOCITY
        self.targets.velocity_m_s = np.asarray(velocity_m_s, dtype=float)
        self.targets.yaw_rad = yaw_rad

    def set_attitude_target(
        self, attitude_rad: np.ndarray, collective_thrust_n: float
    ) -> None:
        """Direct attitude control, for applications that need it (Figure 6)."""
        if collective_thrust_n < 0:
            raise ValueError("collective thrust cannot be negative")
        self.targets.mode = TargetMode.ATTITUDE
        self.targets.attitude_rad = np.asarray(attitude_rad, dtype=float)
        self._collective_thrust_n = collective_thrust_n

    # -- inner loop ------------------------------------------------------------

    @hot_path
    def tick(self, state: QuadcopterState, dt: float) -> np.ndarray:
        """Advance the cascade by one thrust-loop period; returns motor thrusts.

        ``state`` is the *estimated* state (from the EKF in flight, or truth
        in idealized studies).  Levels above the thrust loop only execute
        when their period has elapsed — the time scale separation.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._time_s += dt

        if (
            self.targets.mode in (TargetMode.POSITION, TargetMode.VELOCITY)
            and self._time_s + 1e-12 >= self._next_position_update
        ):
            position_dt = 1.0 / self.rates.position_hz
            self._next_position_update = max(
                self._next_position_update + position_dt, self._time_s
            )
            self._position_level_updates += 1
            if self.targets.mode is TargetMode.POSITION:
                acceleration = self.position_controller.update(
                    self.targets.position_m,
                    state.position_m,
                    state.velocity_m_s,
                    position_dt,
                )
            else:
                acceleration = self.position_controller.velocity.update(
                    self.targets.velocity_m_s, state.velocity_m_s, position_dt
                )
            self._attitude_target, self._collective_thrust_n = (
                acceleration_to_attitude_thrust(
                    acceleration, self.targets.yaw_rad, self.mass_kg
                )
            )

        if self.targets.mode is TargetMode.ATTITUDE:
            self._attitude_target = self.targets.attitude_rad

        if self._time_s + 1e-12 >= self._next_attitude_update:
            attitude_dt = 1.0 / self.rates.attitude_hz
            self._next_attitude_update = max(
                self._next_attitude_update + attitude_dt, self._time_s
            )
            self._torque_command = self.attitude_controller.update(
                self._attitude_target,
                state.euler_rad,
                state.angular_velocity_rad_s,
                attitude_dt,
            )

        return self.thrust_controller.update(
            self._collective_thrust_n, self._torque_command, dt
        )

    def reset(self) -> None:
        self.position_controller.reset()
        self.attitude_controller.reset()
        self.thrust_controller.reset()
        self._attitude_target = np.zeros(3)
        self._collective_thrust_n = self.mass_kg * constants.GRAVITY_M_S2
        self._time_s = 0.0
        self._next_position_update = 0.0
        self._next_attitude_update = 0.0
        self._position_level_updates = 0
        self._torque_command = np.zeros(3)

    # -- compute accounting -----------------------------------------------------

    def flops_per_second(self) -> float:
        """Inner-loop arithmetic rate, for the Section 2.1.3-D budget check.

        Sums each level's per-update cost times its update frequency.  The
        result (a few hundred KFLOP/s) is what shows a ~100 MHz Cortex-M is
        ample for the inner loop.
        """
        return (
            self.rates.position_hz * self.position_controller.flops_per_update
            + self.rates.attitude_hz * self.attitude_controller.flops_per_update
            + self.rates.thrust_hz * self.thrust_controller.flops_per_update
        )

    def update_counts(self) -> dict:
        """Executed update counts per level (used to verify Table 2 rates)."""
        return {
            "position": self._position_level_updates,
            "attitude": self.attitude_controller.updates,
            "thrust": self.thrust_controller.updates,
        }
