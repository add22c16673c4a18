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
(position or velocity targets) — the separation the paper insists on:
autonomy never touches actuators directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.attitude import AttitudeController, attitude_rows
from repro.control.mixer import MotorMixer, mix_rows
from repro.control.position import (
    PositionController,
    acceleration_to_attitude_thrust,
    acceleration_to_attitude_thrust_rows,
    position_rows,
    velocity_rows,
)
from repro.control.thrust import ThrustController
from repro.physics import constants
from repro.physics.rigid_body import QuadcopterState, euler_from_quaternion_rows


class TargetMode(enum.Enum):
    """Which target the outer loop is currently dictating (Figure 6)."""

    POSITION = "position"
    VELOCITY = "velocity"


@dataclass
class StateTargets:
    """Outer-loop set points: position and velocity targets."""

    mode: TargetMode = TargetMode.POSITION
    position_m: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity_m_s: np.ndarray = field(default_factory=lambda: np.zeros(3))
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

        if self._time_s + 1e-12 >= self._next_position_update:
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


class CascadeRows:
    """The controller registers of N vehicles flying position targets, and
    the batched twin of :meth:`HierarchicalController.tick` in
    ``TargetMode.POSITION``.  Gains, limits, rates and the mixer come from
    ``controller``, the cascade every row runs, on one schedule.
    ``commit(dst, src, mask)`` writes a register's masked rows in place.
    """

    def __init__(self, controller: HierarchicalController, n: int,
                 commit: Callable[[np.ndarray, np.ndarray, np.ndarray], None]):
        self.controller = controller
        self._commit = commit
        self.target_pos = np.zeros((n, 3))
        self.target_yaw = np.zeros(n)
        self.att_target = np.zeros((n, 3))
        self.collective = np.full(n, controller.mass_kg * constants.GRAVITY_M_S2)
        self.torque_cmd = np.zeros((n, 3))
        self.time_s = 0.0
        self.next_position_update = 0.0
        self.next_attitude_update = 0.0
        #: Updates per level; every PID of a level updates with it.
        self.position_updates = 0
        self.attitude_updates = 0
        self.thrust_updates = 0
        self.vel_integ = np.zeros((n, 3))
        self.vel_last = np.zeros((n, 3))
        self.rate_integ = np.zeros((n, 3))
        self.rate_last = np.zeros((n, 3))
        self.lag = np.zeros((n, 4))
        self.motor_health = np.ones((n, 4))
        self.mixes = np.zeros(n, dtype=np.int64)
        self.saturations = np.zeros(n, dtype=np.int64)
        # Per-tick scratch (the heading's z column stays zero).
        self._heading = np.zeros((n, 3))
        self._attitude = np.empty((n, 3))
        self._euler = np.empty((n, 3))
        self._wrench = np.empty((n, 4))

    def tick(self, est_pos: np.ndarray, est_vel: np.ndarray, est_quat: np.ndarray,
             est_omega: np.ndarray, dt: float, live: np.ndarray,
             lanes: List[int]) -> np.ndarray:
        """Advance the ``live`` rows (``lanes`` lists them) one thrust-loop
        period on their estimated state; the lagged motor thrust rows."""
        controller = self.controller
        commit = self._commit
        self.time_s += dt

        if self.time_s + 1e-12 >= self.next_position_update:
            position_dt = 1.0 / controller.rates.position_hz
            self.next_position_update = max(
                self.next_position_update + position_dt, self.time_s
            )
            position = controller.position_controller
            setpoint = position_rows(position, self.target_pos, est_pos)
            accel, integral = velocity_rows(
                position.velocity, setpoint, est_vel, self.vel_integ,
                self.vel_last if self.position_updates else None, position_dt,
            )
            commit(self.vel_integ, integral, live)
            commit(self.vel_last, est_vel, live)
            self.position_updates += 1
            attitude, collective = acceleration_to_attitude_thrust_rows(
                accel, self.target_yaw, controller.mass_kg, lanes, live,
                self._heading, self._attitude,
            )
            commit(self.att_target, attitude, live)
            commit(self.collective, collective, live)

        if self.time_s + 1e-12 >= self.next_attitude_update:
            attitude_dt = 1.0 / controller.rates.attitude_hz
            self.next_attitude_update = max(
                self.next_attitude_update + attitude_dt, self.time_s
            )
            torque, integral = attitude_rows(
                controller.attitude_controller, self.att_target,
                euler_from_quaternion_rows(est_quat, lanes, self._euler),
                est_omega, self.rate_integ,
                self.rate_last if self.attitude_updates else None, attitude_dt,
            )
            commit(self.rate_integ, integral, live)
            commit(self.rate_last, est_omega, live)
            commit(self.torque_cmd, torque, live)
            self.attitude_updates += 1

        # ThrustController.update: mixer allocation + first-order motor lag.
        thrust = controller.thrust_controller
        commanded, saturated = mix_rows(
            thrust.mixer, self.collective, self.torque_cmd, self.motor_health,
            self._wrench,
        )
        self.mixes[live] += 1
        self.saturations[live & saturated] += 1
        alpha = dt / (thrust.motor_time_constant_s + dt)
        lagged = self.lag + alpha * (commanded - self.lag)
        commit(self.lag, lagged, live)
        self.thrust_updates += 1
        return lagged
