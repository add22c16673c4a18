"""Common component abstractions for the synthetic commercial catalog.

The paper extracts its tradeoff curves from ~300 commercial components made
by ~150 manufacturers.  We cannot ship that proprietary scrape, so the
catalog is *synthesized*: each component family has a published regression
line in the paper (Figures 7, 8a, 8b) that we use as the population mean,
plus realistic manufacturer scatter.  ``repro.core.tradeoffs`` then re-derives
the fits from the synthetic population, closing the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

#: Synthetic manufacturer names; 150 of them to match the paper's census.
MANUFACTURER_COUNT = 150


def manufacturer_names(count: int = MANUFACTURER_COUNT) -> List[str]:
    """Deterministic list of synthetic manufacturer names."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    prefixes = [
        "Aero", "Sky", "Volt", "Prop", "Hover", "Swift", "Nimbus", "Falcon",
        "Zephyr", "Apex", "Orbit", "Pulse", "Vertex", "Glide", "Strato",
    ]
    suffixes = ["Dyne", "Tech", "Works", "Labs", "Motors", "Craft", "Systems",
                "RC", "Power", "Flight"]
    names = []
    index = 0
    while len(names) < count:
        prefix = prefixes[index % len(prefixes)]
        suffix = suffixes[(index // len(prefixes)) % len(suffixes)]
        series = index // (len(prefixes) * len(suffixes))
        name = f"{prefix}{suffix}" if series == 0 else f"{prefix}{suffix}-{series}"
        names.append(name)
        index += 1
    return names


@dataclass(frozen=True)
class Component:
    """Base class for every catalog item."""

    name: str
    manufacturer: str
    weight_g: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name cannot be empty")
        if self.weight_g < 0:
            raise ValueError(f"weight cannot be negative: {self.weight_g} g")


def linear_fit(x: Iterable[float], y: Iterable[float]) -> "LinearFit":
    """Ordinary least-squares line through (x, y); the paper's fit method."""
    x_arr = np.asarray(list(x), dtype=float)
    y_arr = np.asarray(list(y), dtype=float)
    if x_arr.size != y_arr.size:
        raise ValueError("x and y must have the same length")
    if x_arr.size < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x_arr, y_arr, 1)
    predicted = slope * x_arr + intercept
    residual = y_arr - predicted
    total = y_arr - y_arr.mean()
    denom = float(np.dot(total, total))
    r_squared = 1.0 - float(np.dot(residual, residual)) / denom if denom > 0 else 1.0
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


@dataclass(frozen=True)
class LinearFit:
    """A fitted line y = slope*x + intercept with its goodness of fit."""

    slope: float
    intercept: float
    r_squared: float = 1.0

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def __str__(self) -> str:
        return f"y = {self.slope:.4f}x + {self.intercept:.3f} (R^2={self.r_squared:.3f})"
