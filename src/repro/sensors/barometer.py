"""Barometric altimeter model (Table 2a: 10-20 Hz)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.markers import hot_path
from repro.physics import constants
from repro.physics.rigid_body import QuadcopterState

BARO_RATE_RANGE_HZ = (10.0, 20.0)


@dataclass
class Barometer:
    """Pressure altimeter reporting altitude above the takeoff point."""

    rate_hz: float = 20.0
    noise_m: float = 0.3
    bias_m: float = 0.0
    seed: int = 2
    #: Fault flag: a frozen barometer keeps reporting its last altitude
    #: (a real failure mode — clogged static port, stuck conversion).
    frozen: bool = False
    samples: int = field(default=0)
    _last_altitude_m: float = field(default=0.0, repr=False)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.1 <= self.rate_hz <= 1000.0:
            raise ValueError(f"barometer rate out of range: {self.rate_hz} Hz")
        if self.noise_m < 0:
            raise ValueError("noise cannot be negative")
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)

    @property
    def period_s(self) -> float:
        return 1.0 / self.rate_hz

    @hot_path
    def sample(self, state: QuadcopterState) -> float:
        """Altitude measurement (m) with noise and bias."""
        self.samples += 1
        if self.frozen:
            return self._last_altitude_m
        assert self._rng is not None  # seeded in __post_init__
        self._last_altitude_m = (
            float(state.position_m[2])
            + self.bias_m
            + float(self._rng.normal(0.0, self.noise_m))
        )
        return self._last_altitude_m

    def pressure_pa(self, state: QuadcopterState) -> float:
        """Raw pressure reading (Pa) — what the sensor physically measures."""
        altitude = self.sample(state)
        return constants.SEA_LEVEL_PRESSURE_PA * (
            1.0
            - constants.TEMPERATURE_LAPSE_RATE_K_M
            * altitude
            / constants.SEA_LEVEL_TEMPERATURE_K
        ) ** 5.2561

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self.samples = 0
        self.frozen = False
        self._last_altitude_m = 0.0


def sample_barometer_rows(
    baro: Barometer, altitude_m: np.ndarray, frozen: np.ndarray,
    gens: Sequence[np.random.Generator], lanes: List[int],
    last_altitude_m: np.ndarray,
) -> np.ndarray:
    """The batched twin of :meth:`Barometer.sample` over the ``lanes`` rows,
    in place in ``last_altitude_m``: a frozen row skips its draw and keeps
    its stale altitude, as the scalar sensor does."""
    is_frozen = frozen.tolist()
    altitudes = altitude_m.tolist()
    for i in lanes:
        if not is_frozen[i]:
            noise = float(gens[i].normal(0.0, baro.noise_m))
            last_altitude_m[i] = (altitudes[i] + baro.bias_m) + noise
    return last_altitude_m
