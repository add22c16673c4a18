"""Commercial drone reference database.

The paper validates its power model against released specs of commercial
drones (the diamond markers in Figure 10 and the whole of Figure 11).
Specs below are the publicly released weight / battery / flight-time numbers
for the drones the paper cites; derived quantities (hover power, maneuver
power, heavy-compute share) are computed with the same Equations 3-7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.physics import constants


@dataclass(frozen=True)
class CommercialDrone:
    """Released specifications of a commercial drone."""

    name: str
    weight_g: float
    wheelbase_mm: float
    battery_cells: int
    battery_mah: float
    flight_time_min: float

    def __post_init__(self) -> None:
        if self.weight_g <= 0:
            raise ValueError(f"weight must be positive, got {self.weight_g}")
        if self.battery_cells <= 0 or self.battery_mah <= 0:
            raise ValueError("battery configuration must be positive")
        if self.flight_time_min <= 0:
            raise ValueError(f"flight time must be positive: {self.flight_time_min}")

    @property
    def battery_voltage_v(self) -> float:
        return self.battery_cells * constants.LIPO_CELL_NOMINAL_V

    @property
    def usable_energy_wh(self) -> float:
        """Battery energy inside the 85% drain limit."""
        return (
            self.battery_mah / 1000.0
            * self.battery_voltage_v
            * constants.LIPO_DRAIN_LIMIT
        )

    @property
    def average_flight_power_w(self) -> float:
        """Average total power implied by released flight time and battery.

        This is the validation trick of Section 3.2: flight time and battery
        configuration are released, so average power falls out directly.
        """
        return self.usable_energy_wh / (self.flight_time_min / 60.0)

    def hover_power_w(self, hover_to_average: float = 0.85) -> float:
        """Hover power, slightly below the mission-average power."""
        if not 0.0 < hover_to_average <= 1.0:
            raise ValueError("hover/average ratio must be in (0, 1]")
        return self.average_flight_power_w * hover_to_average

    def maneuver_power_w(self, maneuver_to_average: float = 1.9) -> float:
        """Maneuvering power (60-70% load band vs hover's 20-30%)."""
        if maneuver_to_average < 1.0:
            raise ValueError("maneuver/average ratio must be >= 1")
        return self.average_flight_power_w * maneuver_to_average

    def heavy_compute_share_hovering(self, compute_power_w: float) -> float:
        """Fraction of hover power consumed by heavy computation (Fig 11)."""
        if compute_power_w < 0:
            raise ValueError("compute power cannot be negative")
        hover = self.hover_power_w()
        return compute_power_w / (hover + compute_power_w)


#: Drones plotted as validation diamonds in Figure 10 and bars in Figure 11.
COMMERCIAL_DRONES: List[CommercialDrone] = [
    CommercialDrone("Parrot Mambo", 63.0, 180.0, 1, 660.0, 9.0),
    CommercialDrone("Parrot Anafi", 320.0, 240.0, 2, 2700.0, 25.0),
    CommercialDrone("DJI Spark", 300.0, 170.0, 3, 1480.0, 16.0),
    CommercialDrone("DJI Mavic Air", 430.0, 213.0, 3, 2375.0, 21.0),
    CommercialDrone("Parrot Bebop 2", 500.0, 328.0, 3, 2700.0, 25.0),
    CommercialDrone("Skydio 2", 775.0, 350.0, 4, 4280.0, 23.0),
    CommercialDrone("DJI Mavic", 734.0, 335.0, 3, 3830.0, 27.0),
    CommercialDrone("DJI Phantom 4", 1380.0, 350.0, 4, 5350.0, 28.0),
    CommercialDrone("DJI Matrice 100", 2355.0, 650.0, 6, 4500.0, 22.0),
]

#: The drones in Figure 11's small-drone study, in the paper's plot order.
FIGURE11_DRONES = (
    "Parrot Mambo",
    "Parrot Anafi",
    "DJI Spark",
    "DJI Mavic Air",
    "Parrot Bebop 2",
    "Skydio 2",
)


def drones_by_name() -> Dict[str, CommercialDrone]:
    return {d.name: d for d in COMMERCIAL_DRONES}


def drones_for_wheelbase(wheelbase_mm: float, tolerance_mm: float = 250.0) -> List[CommercialDrone]:
    """Commercial drones comparable to a given wheelbase class (Fig 10 diamonds)."""
    if wheelbase_mm <= 0:
        raise ValueError(f"wheelbase must be positive, got {wheelbase_mm}")
    return [
        d
        for d in COMMERCIAL_DRONES
        if abs(d.wheelbase_mm - wheelbase_mm) <= tolerance_mm
    ]
