"""Drone design metrics (paper Table 3): the battery's continuous-current
limit and Equation 5's flight-time estimate."""

from __future__ import annotations

from dataclasses import dataclass

from repro.physics import constants


def max_continuous_current_a(capacity_mah: float, c_rating: float) -> float:
    """Battery discharge limit: I = Capacity(Ah) x C (Table 3)."""
    if capacity_mah <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_mah}")
    if c_rating <= 0:
        raise ValueError(f"C rating must be positive, got {c_rating}")
    return capacity_mah / 1000.0 * c_rating


@dataclass(frozen=True)
class FlightTimeEstimate:
    """A flight-time figure with the quantities it was derived from."""

    minutes: float
    usable_energy_wh: float
    average_power_w: float

    def __post_init__(self) -> None:
        if self.minutes < 0 or self.usable_energy_wh < 0 or self.average_power_w <= 0:
            raise ValueError("flight-time estimate fields must be non-negative")


def flight_time(
    capacity_mah: float,
    voltage_v: float,
    average_power_w: float,
    drain_limit: float = constants.LIPO_DRAIN_LIMIT,
) -> FlightTimeEstimate:
    """Equation 5: flight time from usable battery energy and average power."""
    if capacity_mah <= 0 or voltage_v <= 0:
        raise ValueError("battery capacity and voltage must be positive")
    if average_power_w <= 0:
        raise ValueError(f"average power must be positive, got {average_power_w}")
    if not 0.0 < drain_limit <= 1.0:
        raise ValueError(f"drain limit must be in (0, 1], got {drain_limit}")
    usable_wh = capacity_mah / 1000.0 * voltage_v * drain_limit
    minutes = usable_wh / average_power_w * 60.0
    return FlightTimeEstimate(
        minutes=minutes, usable_energy_wh=usable_wh, average_power_w=average_power_w
    )
