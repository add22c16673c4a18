"""Environment model: air density, wind, and gusts.

Table 1 of the paper lists the unpredictable effects the inner-loop control
must compensate — wind gusts, local disturbances, atmospheric turbulence.
This module synthesizes those disturbances deterministically (seeded) so the
control-system experiments are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.physics import constants


@dataclass
class Wind:
    """Steady wind plus a Dryden-like first-order gust process.

    The gust component is an Ornstein-Uhlenbeck process per axis: band-limited
    noise whose intensity scales with ``gust_speed_m_s`` and whose bandwidth
    is ``1 / correlation_time_s``.
    """

    mean_m_s: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    gust_speed_m_s: float = 0.0
    correlation_time_s: float = 1.5
    seed: int = 0
    #: Gust and mean wind as floats (m/s per axis).
    _state: List[float] = field(init=False, repr=False)
    _mean: List[float] = field(init=False, repr=False)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.gust_speed_m_s < 0:
            raise ValueError(f"gust speed must be non-negative, got {self.gust_speed_m_s}")
        if self.correlation_time_s <= 0:
            raise ValueError("gust correlation time must be positive")
        self._state = [0.0, 0.0, 0.0]
        self._mean = np.asarray(self.mean_m_s, dtype=float).tolist()
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)

    @hot_path
    def step(self, dt: float) -> np.ndarray:
        """Advance the gust process by ``dt`` and return the wind vector (m/s).

        Runs on floats in the order of ``alpha * state + scale * noise`` and
        ``mean + state`` on arrays.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        s0, s1, s2 = self._state
        if self.gust_speed_m_s > 0:
            assert self._rng is not None  # seeded in __post_init__
            alpha = math.exp(-dt / self.correlation_time_s)
            noise_scale = self.gust_speed_m_s * math.sqrt(1.0 - alpha * alpha)
            n0, n1, n2 = self._rng.standard_normal(3).tolist()
            s0 = alpha * s0 + noise_scale * n0
            s1 = alpha * s1 + noise_scale * n1
            s2 = alpha * s2 + noise_scale * n2
            self._state = [s0, s1, s2]
        m0, m1, m2 = self._mean
        return np.array([m0 + s0, m1 + s1, m2 + s2])

    def reset(self) -> None:
        self._state = [0.0, 0.0, 0.0]
        self._rng = np.random.default_rng(self.seed)


class WindRows:
    """The batched twin of :meth:`Wind.step` over N vehicles, each row on
    its own generator seeded as its ``Wind``.

    The winds must share mean, gust and correlation parameters (only the
    seeds may differ).  ``commit(dst, src, mask)`` writes the masked rows
    of the gust state in place.
    """

    def __init__(self, winds: Sequence[Wind], dt: float,
                 commit: Callable[[np.ndarray, np.ndarray, np.ndarray], None]):
        first = winds[0]
        for wind in winds:
            if (
                tuple(wind.mean_m_s) != tuple(first.mean_m_s)
                or wind.gust_speed_m_s != first.gust_speed_m_s
                or wind.correlation_time_s != first.correlation_time_s
            ):
                raise ValueError(
                    "ensemble winds must share mean/gust/correlation "
                    "(only seeds may differ)"
                )
        self.winds = list(winds)
        self.states = np.zeros((len(self.winds), 3))
        self.gens = [np.random.default_rng(wind.seed) for wind in self.winds]
        self.gusty = first.gust_speed_m_s > 0
        self._commit = commit
        self._mean = np.asarray(first.mean_m_s, dtype=float)
        self._alpha = math.exp(-dt / first.correlation_time_s)
        self._noise_scale = first.gust_speed_m_s * math.sqrt(
            1.0 - self._alpha * self._alpha
        )
        self._block: Optional[np.ndarray] = None
        self._block_pos = 0

    def draw_block(self, live: np.ndarray, ticks: int) -> None:
        """Pregenerate ``ticks`` steps of every live row's noise.

        A ``standard_normal(3k)`` block equals k sequential
        ``standard_normal(3)`` draws, in values and generator state.
        """
        block = np.zeros((len(self.gens), ticks, 3))
        for i in np.flatnonzero(live):
            block[i] = self.gens[i].standard_normal(3 * ticks).reshape(ticks, 3)
        self._block = block
        self._block_pos = 0

    def _normals(self, live: np.ndarray) -> np.ndarray:
        """Next noise draw per row, from the pregenerated block while one
        lasts, else drawn row by row."""
        block = self._block
        if block is not None and self._block_pos < block.shape[1]:
            normals = block[:, self._block_pos, :]
            self._block_pos += 1
            return normals
        normals = np.zeros((len(self.gens), 3))
        for i in np.flatnonzero(live):
            normals[i] = self.gens[i].standard_normal(3)
        return normals

    def airspeed(self, velocity: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Advance the live rows' gusts one tick; air-relative velocities."""
        if self.gusty:
            gust = self._alpha * self.states + self._noise_scale * self._normals(
                live
            )
            self._commit(self.states, gust, live)
        return velocity - (self._mean + self.states)


@dataclass(frozen=True)
class Environment:
    """Ambient conditions seen by the airframe."""

    altitude_m: float = 0.0
    temperature_offset_k: float = 0.0

    @functools.cached_property
    def air_density(self) -> float:
        """ISA density at the (frozen) ambient conditions, computed once:
        the rigid body reads it every tick."""
        return constants.air_density_kg_m3(self.altitude_m, self.temperature_offset_k)

    @hot_path
    def drag_force_n(
        self,
        velocity_m_s: np.ndarray,
        drag_coefficient_area: float,
    ) -> np.ndarray:
        """Quadratic body drag opposing ``velocity_m_s``.

        ``drag_coefficient_area`` is Cd*A in m^2 — a lumped airframe constant.
        """
        if drag_coefficient_area < 0:
            raise ValueError("Cd*A must be non-negative")
        speed = float(np.linalg.norm(velocity_m_s))
        if speed == 0.0:
            return np.zeros(3)
        magnitude = 0.5 * self.air_density * drag_coefficient_area * speed * speed
        return -magnitude * velocity_m_s / speed
