"""Magnetometer model (Table 2a: 10 Hz)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.markers import hot_path
from repro.physics.rigid_body import QuadcopterState, euler_from_quaternion_rows

MAG_RATE_HZ = 10.0


@dataclass
class Magnetometer:
    """Heading sensor with noise and hard-iron bias."""

    rate_hz: float = MAG_RATE_HZ
    noise_rad: float = 0.02
    hard_iron_bias_rad: float = 0.0
    seed: int = 4
    samples: int = field(default=0)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.1 <= self.rate_hz <= 1000.0:
            raise ValueError(f"magnetometer rate out of range: {self.rate_hz} Hz")
        if self.noise_rad < 0:
            raise ValueError("noise cannot be negative")
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)

    @property
    def period_s(self) -> float:
        return 1.0 / self.rate_hz

    @hot_path
    def sample(self, state: QuadcopterState) -> float:
        """Yaw measurement (rad), wrapped to (-pi, pi]."""
        assert self._rng is not None  # seeded in __post_init__
        yaw = float(state.euler_rad[2])
        measured = (
            yaw + self.hard_iron_bias_rad + float(self._rng.normal(0.0, self.noise_rad))
        )
        self.samples += 1
        return (measured + math.pi) % (2.0 * math.pi) - math.pi

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self.samples = 0


def sample_magnetometer_rows(
    mag: Magnetometer, quaternion: np.ndarray,
    gens: Sequence[np.random.Generator], lanes: List[int], noise: np.ndarray,
) -> np.ndarray:
    """The batched twin of :meth:`Magnetometer.sample` over the ``lanes``
    rows of (N,4) ``quaternion``, drawing into the ``noise`` scratch."""
    euler = euler_from_quaternion_rows(quaternion, lanes, np.empty((len(gens), 3)))
    for i in lanes:
        noise[i] = gens[i].normal(0.0, mag.noise_rad)
    measured = (euler[:, 2] + mag.hard_iron_bias_rad) + noise
    return (measured + math.pi) % (2.0 * math.pi) - math.pi
