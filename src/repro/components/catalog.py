"""Synthetic commercial-component catalog generator.

The paper's tradeoff curves come from a census of roughly 300 commercial
components (250 batteries, 40 ESCs, 25 frames) and motor data from 150
manufacturers.  That scrape is not redistributable, so this module generates
a *statistically equivalent* population: each family is sampled around the
paper's published regression lines with realistic manufacturer scatter, all
deterministically seeded.

``repro.core.tradeoffs`` re-derives the regression lines from this population
— the reproduction of Figures 7, 8a, and 8b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.components.base import manufacturer_names
from repro.components.battery import (
    C_RATING_RANGE,
    FIG7_WEIGHT_FITS,
    BatterySpec,
    make_battery,
)
from repro.components.esc import EscClass, EscSpec, make_esc
from repro.components.frame import (
    MAX_WHEELBASE_MM,
    MIN_WHEELBASE_MM,
    FrameSpec,
    make_frame,
)
from repro.components.motor import MotorSpec, motor_line_for_wheelbase

DEFAULT_SEED = 20210419  # ASPLOS '21 conference start date.

BATTERY_COUNT = 250
ESC_COUNT = 40
FRAME_COUNT = 25


@dataclass
class ComponentCatalog:
    """The full synthetic component census."""

    batteries: List[BatterySpec] = field(default_factory=list)
    escs: List[EscSpec] = field(default_factory=list)
    frames: List[FrameSpec] = field(default_factory=list)
    motors: List[MotorSpec] = field(default_factory=list)

    @property
    def size(self) -> int:
        return (
            len(self.batteries) + len(self.escs) + len(self.frames) + len(self.motors)
        )


def generate_batteries(
    count: int = BATTERY_COUNT, seed: int = DEFAULT_SEED
) -> List[BatterySpec]:
    """Sample ``count`` batteries around the Figure 7 population lines.

    Cell-count mix skews toward 3S/4S as hobby catalogs do; capacity spans
    the 0-10 Ah axis of Figure 7; higher discharge rates add weight that
    stays within the scatter of the per-configuration fit (paper: 'the
    resulting weight does not deviate from the extracted formulas').
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    makers = manufacturer_names()
    cell_choices = np.array([1, 2, 3, 4, 5, 6])
    cell_weights = np.array([0.10, 0.15, 0.25, 0.22, 0.12, 0.16])
    batteries = []
    for _ in range(count):
        cells = int(rng.choice(cell_choices, p=cell_weights))
        capacity = float(rng.uniform(300.0, 10_000.0))
        c_rating = float(rng.uniform(*C_RATING_RANGE))
        base_weight = FIG7_WEIGHT_FITS[cells].predict(capacity)
        # Manufacturer scatter (~6% of weight) plus a small C-rating penalty.
        noise = rng.normal(0.0, 0.06 * max(base_weight, 20.0))
        c_penalty = 0.02 * base_weight * (c_rating - 60.0) / 60.0
        batteries.append(
            make_battery(
                cells=cells,
                capacity_mah=capacity,
                c_rating=c_rating,
                manufacturer=str(rng.choice(makers)),
                weight_noise_g=noise + c_penalty,
            )
        )
    return batteries


def generate_escs(count: int = ESC_COUNT, seed: int = DEFAULT_SEED) -> List[EscSpec]:
    """Sample ``count`` ESCs around the two Figure 8a population lines."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed + 1)
    makers = manufacturer_names()
    escs = []
    for index in range(count):
        esc_class = EscClass.SHORT_FLIGHT if index % 3 == 0 else EscClass.LONG_FLIGHT
        current = float(rng.uniform(10.0, 90.0))
        noise = float(rng.normal(0.0, 2.0))
        escs.append(
            make_esc(
                max_continuous_current_a=current,
                esc_class=esc_class,
                manufacturer=str(rng.choice(makers)),
                weight_noise_g=noise,
            )
        )
    return escs


def generate_frames(count: int = FRAME_COUNT, seed: int = DEFAULT_SEED) -> List[FrameSpec]:
    """Sample ``count`` frames around the Figure 8b population line."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed + 2)
    makers = manufacturer_names()
    frames = []
    for _ in range(count):
        wheelbase = float(rng.uniform(MIN_WHEELBASE_MM + 20.0, MAX_WHEELBASE_MM - 100.0))
        noise = float(rng.normal(0.0, 12.0)) if wheelbase > 200 else float(
            rng.normal(0.0, 8.0)
        )
        frames.append(
            make_frame(
                wheelbase_mm=wheelbase,
                manufacturer=str(rng.choice(makers)),
                weight_noise_g=noise,
            )
        )
    return frames


def generate_motors(seed: int = DEFAULT_SEED) -> List[MotorSpec]:
    """Motor lines covering the paper's wheelbase classes and cell counts."""
    rng = np.random.default_rng(seed + 3)
    makers = manufacturer_names()
    motors: List[MotorSpec] = []
    thrust_targets = {
        50.0: [60.0, 120.0, 200.0],
        100.0: [150.0, 300.0, 500.0],
        200.0: [400.0, 800.0, 1200.0],
        450.0: [800.0, 1500.0, 2500.0],
        800.0: [1500.0, 3000.0, 5000.0],
    }
    for wheelbase, targets in thrust_targets.items():
        maker = str(rng.choice(makers))
        motors.extend(
            motor_line_for_wheelbase(
                wheelbase_mm=wheelbase,
                cells_options=[1, 2, 3, 4, 5, 6],
                thrust_targets_g=targets,
                manufacturer=maker,
            )
        )
    return motors


def generate_catalog(seed: int = DEFAULT_SEED) -> ComponentCatalog:
    """Generate the full synthetic census (same seed → same catalog)."""
    return ComponentCatalog(
        batteries=generate_batteries(seed=seed),
        escs=generate_escs(seed=seed),
        frames=generate_frames(seed=seed),
        motors=generate_motors(seed=seed),
    )


#: Seed-keyed memo for :func:`cached_catalog`.
_CATALOG_CACHE: Dict[int, ComponentCatalog] = {}


def cached_catalog(seed: int = DEFAULT_SEED) -> ComponentCatalog:
    """Memoized :func:`generate_catalog`, keyed by seed.

    Catalog generation samples ~300 components and costs milliseconds each
    time; sweeps and benches that re-derive fits used to regenerate it per
    call.  The returned catalog is shared between callers — treat it as
    read-only (use :func:`generate_catalog` for a private mutable copy).
    """
    catalog = _CATALOG_CACHE.get(seed)
    if catalog is None:
        catalog = generate_catalog(seed=seed)
        _CATALOG_CACHE[seed] = catalog
    return catalog


def clear_catalog_cache() -> None:
    """Drop every memoized catalog (test isolation hook)."""
    _CATALOG_CACHE.clear()
