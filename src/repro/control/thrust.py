"""Low-level thrust controller (Table 2: 1 kHz update, 50 ms response).

Takes the collective-thrust and body-torque commands from the upper levels,
allocates them through the motor mixer, and applies first-order motor-ESC
lag — the electromechanical response that, per the paper, is what actually
limits inner-loop usefulness beyond ~1 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.mixer import MotorMixer


@dataclass
class ThrustController:
    """Wrench allocation plus motor response dynamics."""

    mixer: MotorMixer
    motor_time_constant_s: float = 0.030
    updates: int = field(default=0)
    _thrusts_n: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.motor_time_constant_s <= 0:
            raise ValueError("motor time constant must be positive")
        self._thrusts_n = np.zeros(4)

    @property
    def motor_thrusts_n(self) -> np.ndarray:
        """Current (lagged) per-motor thrusts."""
        return self._thrusts_n.copy()

    @hot_path
    def update(
        self,
        collective_thrust_n: float,
        torque_nm: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        """One 1 kHz step: returns the per-motor thrusts after motor lag."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        c0, c1, c2, c3 = self.mixer.mix(collective_thrust_n, torque_nm).tolist()
        # First-order lag: ESC + rotor inertia response, on floats in the
        # order of t + alpha * (c - t).
        alpha = dt / (self.motor_time_constant_s + dt)
        lag = self._thrusts_n
        t0, t1, t2, t3 = lag.tolist()
        lag[0] = t0 + alpha * (c0 - t0)
        lag[1] = t1 + alpha * (c1 - t1)
        lag[2] = t2 + alpha * (c2 - t2)
        lag[3] = t3 + alpha * (c3 - t3)
        self.updates += 1
        return self._thrusts_n.copy()

    def reset(self) -> None:
        self._thrusts_n = np.zeros(4)
        self.updates = 0

    @property
    def flops_per_update(self) -> int:
        """Mixer matvec (~28) plus the lag filter (8)."""
        return 36
