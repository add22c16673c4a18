"""Motor mixer: collective thrust + body torques -> four rotor thrusts.

Inverts the X-configuration wrench map of
:meth:`repro.physics.rigid_body.QuadcopterBody.wrench_from_motor_thrusts`;
the low-level thrust controller (Table 2's 1 kHz loop) calls this every
update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.pid import clip
from repro.physics.rigid_body import (
    ROTOR_ANGLES_RAD,
    ROTOR_SPIN,
    TORQUE_THRUST_RATIO_M,
)


@dataclass
class MotorMixer:
    """Allocates a desired wrench across the four rotors.

    ``motor_health`` scales each rotor's thrust ceiling in [0, 1]: 1 is a
    healthy motor, fractions model ESC thermal throttling or a degraded
    motor/prop, and 0 is a dead rotor.  The fault-injection framework writes
    it; nominal flight never touches it.
    """

    #: Never shed more than half the commanded collective while desaturating:
    #: below that the airframe falls faster than attitude recovery helps.
    MIN_COLLECTIVE_SCALE = 0.5

    arm_length_m: float
    torque_thrust_ratio_m: float = TORQUE_THRUST_RATIO_M
    max_thrust_per_motor_n: float = 10.0
    motor_health: Optional[np.ndarray] = None
    #: Allocation statistics: total mixes and how many hit a thrust ceiling.
    #: The autopilot's thrust-saturation failsafe watches the ratio.
    mixes: int = 0
    saturations: int = 0

    def __post_init__(self) -> None:
        if self.arm_length_m <= 0:
            raise ValueError(f"arm length must be positive, got {self.arm_length_m}")
        if self.torque_thrust_ratio_m <= 0:
            raise ValueError("torque/thrust ratio must be positive")
        if self.max_thrust_per_motor_n <= 0:
            raise ValueError("max thrust must be positive")
        if self.motor_health is None:
            self.motor_health = np.ones(4)
        self.motor_health = np.asarray(self.motor_health, dtype=float)
        if self.motor_health.shape != (4,):
            raise ValueError("motor health must be a 4-vector")
        if np.any(self.motor_health < 0.0) or np.any(self.motor_health > 1.0):
            raise ValueError("motor health factors must be in [0, 1]")
        arm_x = self.arm_length_m * np.cos(ROTOR_ANGLES_RAD)
        arm_y = self.arm_length_m * np.sin(ROTOR_ANGLES_RAD)
        # Rows: total thrust, roll torque, pitch torque, yaw torque.
        mixing = np.vstack(
            [
                np.ones(4),
                arm_y,
                -arm_x,
                ROTOR_SPIN * self.torque_thrust_ratio_m,
            ]
        )
        self._inverse = np.linalg.inv(mixing)
        self._collective_column = self._inverse[:, 0].tolist()
        #: Per-mix scratch: the wrench vector the allocation matvecs read.
        self._wrench = np.zeros(4)

    @hot_path
    def mix(
        self,
        total_thrust_n: float,
        torque_nm: np.ndarray,
    ) -> np.ndarray:
        """Per-motor thrusts (N) for a desired collective thrust and torque.

        Commands are clipped to [0, max]; when saturated, yaw torque is shed
        first and then collective thrust is scaled down so roll/pitch
        authority survives, mirroring real attitude-priority mixers.

        Only the allocation matvecs stay in NumPy (BLAS rounds them with
        FMAs); the rest runs on floats in the operation order of the NumPy
        expressions it replaced, bit for bit (DESIGN.md §Performance).
        """
        if total_thrust_n < 0:
            raise ValueError(f"thrust cannot be negative, got {total_thrust_n}")
        torque = np.asarray(torque_nm, dtype=float)
        if torque.shape != (3,):
            raise ValueError(f"torque must be a 3-vector, got shape {torque.shape}")
        collective = float(total_thrust_n)
        assert self.motor_health is not None  # materialized in __post_init__
        h0, h1, h2, h3 = self.motor_health.tolist()
        ceiling = self.max_thrust_per_motor_n
        c0 = ceiling * h0
        c1 = ceiling * h1
        c2 = ceiling * h2
        c3 = ceiling * h3
        inverse = self._inverse
        wrench = self._wrench
        wrench[0] = collective
        wrench[1:] = torque
        thrusts = inverse @ wrench
        t0, t1, t2, t3 = thrusts.tolist()
        if (
            t0 < 0.0 or t1 < 0.0 or t2 < 0.0 or t3 < 0.0
            or t0 > c0 or t1 > c1 or t2 > c2 or t3 > c3
        ):
            # Desaturate with attitude priority (what real mixers do): shed
            # yaw first, then scale collective down until the roll/pitch
            # torque fits inside the per-motor ceilings.  Losing a little
            # altitude is recoverable; losing attitude authority flips the
            # airframe.
            wrench[0] = 0.0
            wrench[3] *= 0.25
            thrusts = inverse @ wrench
            p0, p1, p2, p3 = thrusts.tolist()
            k0, k1, k2, k3 = self._collective_column
            k0 *= collective
            k1 *= collective
            k2 *= collective
            k3 *= collective
            scale = 1.0
            if k0 > 1e-12:
                scale = min(scale, (c0 - p0) / k0)
            if k1 > 1e-12:
                scale = min(scale, (c1 - p1) / k1)
            if k2 > 1e-12:
                scale = min(scale, (c2 - p2) / k2)
            if k3 > 1e-12:
                scale = min(scale, (c3 - p3) / k3)
            # scale <= 1.0 already: only the lower clip bound can bind.
            if scale < self.MIN_COLLECTIVE_SCALE:
                scale = self.MIN_COLLECTIVE_SCALE
            t0 = p0 + scale * k0
            t1 = p1 + scale * k1
            t2 = p2 + scale * k2
            t3 = p3 + scale * k3
        self.mixes += 1
        if t0 > c0 + 1e-9 or t1 > c1 + 1e-9 or t2 > c2 + 1e-9 or t3 > c3 + 1e-9:
            self.saturations += 1
        # The matvec's fresh output array carries the clipped thrusts out.
        thrusts[0] = clip(t0, 0.0, c0)
        thrusts[1] = clip(t1, 0.0, c1)
        thrusts[2] = clip(t2, 0.0, c2)
        thrusts[3] = clip(t3, 0.0, c3)
        return thrusts

    def set_motor_health(self, motor_index: int, factor: float) -> None:
        """Derate (or restore) one rotor's thrust ceiling."""
        check_motor_health(motor_index, factor)
        self.motor_health[motor_index] = factor


def check_motor_health(motor_index: int, factor: float) -> None:
    """Raise ValueError unless ``motor_index`` names one of the four rotors
    and ``factor`` is a health factor in [0, 1]."""
    if not 0 <= motor_index < 4:
        raise ValueError(f"motor index must be 0-3, got {motor_index}")
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"health factor must be in [0, 1], got {factor}")


def mix_rows(
    mixer: MotorMixer, collective: np.ndarray, torque: np.ndarray,
    motor_health: np.ndarray, wrench: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The batched twin of :meth:`MotorMixer.mix` over N vehicles, with
    ``mixer``'s geometry and ceiling and each row's own ``motor_health``:
    the clipped thrust rows and which rows saturated.  ``wrench`` is (N,4)
    scratch."""
    inverse = mixer._inverse
    wrench[:, 0] = collective
    wrench[:, 1:4] = torque
    ceilings = mixer.max_thrust_per_motor_n * motor_health
    thrusts = np.matmul(inverse, wrench[:, :, None])[:, :, 0]
    need = np.any(thrusts < 0.0, axis=1) | np.any(thrusts > ceilings, axis=1)
    if need.any():
        # Attitude-priority desaturation, as the scalar mixer does it.
        wrench_no_yaw = wrench.copy()
        wrench_no_yaw[:, 3] *= 0.25
        wrench_no_yaw[:, 0] = 0.0
        torque_part = np.matmul(inverse, wrench_no_yaw[:, :, None])[:, :, 0]
        collective_part = inverse[:, 0] * collective[:, None]
        scale = np.ones(collective.shape[0])
        for rotor in range(4):
            candidate = (
                ceilings[:, rotor] - torque_part[:, rotor]
            ) / collective_part[:, rotor]
            usable = collective_part[:, rotor] > 1e-12
            take = usable & (candidate < scale)
            scale = np.where(take, candidate, scale)
        scale = np.clip(scale, mixer.MIN_COLLECTIVE_SCALE, 1.0)
        desat = torque_part + scale[:, None] * collective_part
        thrusts = np.where(need[:, None], desat, thrusts)
    saturated = np.any(thrusts > ceilings + 1e-9, axis=1)
    return np.clip(thrusts, 0.0, ceilings), saturated
