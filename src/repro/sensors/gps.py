"""GPS receiver model (Table 2a: 1-40 Hz)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.markers import hot_path
from repro.physics.rigid_body import QuadcopterState

GPS_RATE_RANGE_HZ = (1.0, 40.0)


@dataclass
class Gps:
    """Position fix with horizontal noise and optional dropout (indoor)."""

    rate_hz: float = 10.0
    horizontal_noise_m: float = 1.2
    vertical_noise_m: float = 2.5
    available: bool = True
    seed: int = 3
    samples: int = field(default=0)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not GPS_RATE_RANGE_HZ[0] <= self.rate_hz <= GPS_RATE_RANGE_HZ[1]:
            raise ValueError(
                f"GPS rate {self.rate_hz} Hz outside {GPS_RATE_RANGE_HZ}"
            )
        if self.horizontal_noise_m < 0 or self.vertical_noise_m < 0:
            raise ValueError("noise cannot be negative")
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)

    @property
    def period_s(self) -> float:
        return 1.0 / self.rate_hz

    @hot_path
    def sample(self, state: QuadcopterState) -> np.ndarray:
        """Position fix (m, local frame).  Raises if the fix is unavailable
        (e.g. indoor flight) — callers must handle GPS-denied conditions."""
        if not self.available:
            raise GpsUnavailableError("no GPS fix (indoor or denied environment)")
        assert self._rng is not None  # seeded in __post_init__
        noise = np.array(
            [
                self._rng.normal(0.0, self.horizontal_noise_m),
                self._rng.normal(0.0, self.horizontal_noise_m),
                self._rng.normal(0.0, self.vertical_noise_m),
            ]
        )
        self.samples += 1
        return state.position_m + noise

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self.samples = 0


class GpsUnavailableError(RuntimeError):
    """Raised when a GPS fix is requested in a denied environment."""


def sample_gps_rows(
    gps: Gps, position_m: np.ndarray, gens: Sequence[np.random.Generator],
    fixed: List[int],
) -> np.ndarray:
    """The batched twin of :meth:`Gps.sample` for the ``fixed`` rows (the
    others stay zero): a denied row is left out of ``fixed`` and skips its
    draws, as the scalar receiver raises before drawing."""
    positions = np.zeros(position_m.shape)
    rows = position_m.tolist()
    hnoise, vnoise = gps.horizontal_noise_m, gps.vertical_noise_m
    for i in fixed:
        gen = gens[i]
        x, y, z = rows[i]
        positions[i] = (
            x + gen.normal(0.0, hnoise),
            y + gen.normal(0.0, hnoise),
            z + gen.normal(0.0, vnoise),
        )
    return positions
