"""Mid-level attitude controller (Table 2: 200 Hz update, 100 ms response).

Two-stage: an angle P loop producing body-rate commands, then body-rate PIDs
producing torque commands.  This is the classic hierarchical structure the
paper describes — attitude is the mid level between position and thrust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.pid import PidController, clip, pid_rows


@dataclass
class AttitudeController:
    """Euler-angle attitude controller producing body torques."""

    inertia_kg_m2: np.ndarray
    angle_kp: float = 9.0
    rate_kp: float = 14.0
    rate_ki: float = 2.5
    rate_kd: float = 0.12
    max_rate_rad_s: float = 6.0
    updates: int = field(default=0)

    def __post_init__(self) -> None:
        self.inertia_kg_m2 = np.asarray(self.inertia_kg_m2, dtype=float)
        if self.inertia_kg_m2.shape != (3, 3):
            raise ValueError("inertia must be a 3x3 matrix")
        if self.angle_kp <= 0 or self.rate_kp <= 0:
            raise ValueError("controller gains must be positive")
        if not self.max_rate_rad_s > 0:
            # Also keeps the rate clip's bounds away from signed zeros.
            raise ValueError(
                f"max body rate must be positive, got {self.max_rate_rad_s}"
            )
        self._rate_pids = [
            PidController(
                kp=self.rate_kp,
                ki=self.rate_ki,
                kd=self.rate_kd,
                integral_limit=2.0,
            )
            for _ in range(3)
        ]

    @hot_path
    def update(
        self,
        attitude_target_rad: np.ndarray,
        attitude_rad: np.ndarray,
        body_rates_rad_s: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        """One 200 Hz step: attitude error -> rate setpoints -> torques (N*m)."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        target = np.asarray(attitude_target_rad, dtype=float)
        attitude = np.asarray(attitude_rad, dtype=float)
        rates = np.asarray(body_rates_rad_s, dtype=float)
        if target.shape != (3,) or attitude.shape != (3,) or rates.shape != (3,):
            raise ValueError("attitude controller inputs must be 3-vectors")

        # Floats in the NumPy expressions' operation order, bit for bit
        # (DESIGN.md §Performance); the inertia matvec stays in NumPy.
        target_r, target_p, target_y = target.tolist()
        roll, pitch, yaw = attitude.tolist()
        rate_r, rate_p, rate_y = rates.tolist()
        # Yaw error wraps around +-pi.
        yaw_error = (target_y - yaw + math.pi) % (2.0 * math.pi) - math.pi
        kp, limit = self.angle_kp, self.max_rate_rad_s
        pid_r, pid_p, pid_y = self._rate_pids
        normalized_torque = np.array([
            pid_r.update(clip(kp * (target_r - roll), -limit, limit), rate_r, dt),
            pid_p.update(clip(kp * (target_p - pitch), -limit, limit), rate_p, dt),
            pid_y.update(clip(kp * yaw_error, -limit, limit), rate_y, dt),
        ])
        self.updates += 1
        # Scale by inertia so gains are airframe-size independent.
        return self.inertia_kg_m2 @ normalized_torque

    def reset(self) -> None:
        for pid in self._rate_pids:
            pid.reset()
        self.updates = 0

    @property
    def flops_per_update(self) -> int:
        """Angle P (9) + three rate PIDs (36) + inertia matvec (15)."""
        return 9 + sum(p.flops_per_update for p in self._rate_pids) + 15


def attitude_rows(
    controller: AttitudeController, target: np.ndarray, attitude: np.ndarray,
    body_rates: np.ndarray, integral: np.ndarray,
    last_rates: Optional[np.ndarray], dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The batched twin of :meth:`AttitudeController.update` over N
    vehicles' (N, 3) rows, bit for bit per row: the torque rows and the
    rate PIDs' new integral rows.  ``last_rates`` is None before the first
    update."""
    angle_error = target - attitude
    angle_error[:, 2] = (angle_error[:, 2] + np.pi) % (2.0 * np.pi) - np.pi
    limit = controller.max_rate_rad_s
    rate_setpoint = np.clip(controller.angle_kp * angle_error, -limit, limit)
    normalized, new_integral = pid_rows(
        controller._rate_pids[0], rate_setpoint, body_rates, integral, last_rates, dt
    )
    torque = np.matmul(controller.inertia_kg_m2, normalized[:, :, None])[:, :, 0]
    return torque, new_integral
