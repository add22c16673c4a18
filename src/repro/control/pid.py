"""Proportional-integral-derivative controller.

The paper's inner loop "extensively uses high-performance hierarchical PID
controllers" (Section 2.1.3-C).  This is a production-style discrete PID:
derivative-on-measurement (no derivative kick), integral anti-windup by
clamping, and optional output limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path


@hot_path
def clip(value: float, low: float, high: float) -> float:
    """``np.clip`` with array bounds, on one float: NaN passes through, and
    a bound equal to ``value`` wins, so ``-0.0`` clips to ``+0.0`` at a
    ``0.0`` bound while ``clip(-0.0, -m, m)`` keeps ``-0.0``.  (With scalar
    bounds NumPy keeps ``value`` on a tie; the two differ only at a
    signed-zero bound.)"""
    if value != value:
        return value
    if not value > low:
        value = low
    return value if value < high else high


@dataclass
class PidController:
    """Discrete PID with anti-windup and derivative-on-measurement."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0
    output_limits: Optional[Tuple[float, float]] = None
    integral_limit: Optional[float] = None
    _integral: float = field(default=0.0, repr=False)
    _last_measurement: Optional[float] = field(default=None, repr=False)
    #: Count of update() calls — the perf studies use this to account work.
    updates: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("PID gains must be non-negative")
        if self.output_limits is not None:
            low, high = self.output_limits
            if low >= high:
                raise ValueError(f"invalid output limits: ({low}, {high})")
        if self.integral_limit is not None and self.integral_limit <= 0:
            raise ValueError("integral limit must be positive")

    @hot_path
    def update(self, setpoint: float, measurement: float, dt: float) -> float:
        """One control step; returns the actuation command."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        error = setpoint - measurement
        self._integral += error * dt
        if self.integral_limit is not None:
            self._integral = max(
                -self.integral_limit, min(self.integral_limit, self._integral)
            )
        if self._last_measurement is None:
            derivative = 0.0
        else:
            # Derivative on measurement avoids spikes on setpoint changes.
            derivative = -(measurement - self._last_measurement) / dt
        self._last_measurement = measurement
        output = self.kp * error + self.ki * self._integral + self.kd * derivative
        if self.output_limits is not None:
            low, high = self.output_limits
            output = max(low, min(high, output))
        self.updates += 1
        return output

    def reset(self) -> None:
        self._integral = 0.0
        self._last_measurement = None
        self.updates = 0

    @property
    def flops_per_update(self) -> int:
        """Arithmetic operations per update — used by the inner-loop compute
        budget analysis (Section 2.1.3-D)."""
        return 12


def clamp_rows(values: np.ndarray, limit: float) -> np.ndarray:
    """``max(-limit, min(limit, x))`` elementwise, NaN order included."""
    step = np.where(values < limit, values, limit)
    return np.where(step > -limit, step, -limit)


def pid_rows(
    pid: PidController, setpoint: np.ndarray, measurement: np.ndarray,
    integral: np.ndarray, last_measurement: Optional[np.ndarray], dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The batched twin of :meth:`PidController.update` over rows of
    independent PIDs with ``pid``'s gains and integral limit (and no output
    limits): the (output, new integral) rows.  ``last_measurement`` is None
    before the first update."""
    error = setpoint - measurement
    assert pid.integral_limit is not None and pid.output_limits is None
    new_integral = clamp_rows(integral + error * dt, pid.integral_limit)
    if last_measurement is None:
        derivative = np.zeros(measurement.shape)
    else:
        derivative = -(measurement - last_measurement) / dt
    output = (pid.kp * error + pid.ki * new_integral) + pid.kd * derivative
    return output, new_integral
