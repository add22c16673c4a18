"""External sensor products: FPV cameras, HD cameras, and drone LiDARs
(paper Table 4, 'External Sensors').

LiDAR solutions for drones are self-powered full-stack units weighing around
1 kg — the paper studies how adding them shrinks the compute-power
contribution boundary in large drones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.components.base import Component


class SensorKind(enum.Enum):
    FPV_CAMERA = "fpv_camera"
    HD_CAMERA = "hd_camera"
    LIDAR = "lidar"
    RGBD_CAMERA = "rgbd_camera"


@dataclass(frozen=True)
class SensorProduct(Component):
    """One external sensor product."""

    kind: SensorKind = SensorKind.FPV_CAMERA
    power_w: float = 0.5
    self_powered: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.power_w < 0:
            raise ValueError(f"power cannot be negative, got {self.power_w}")

    @property
    def bus_power_w(self) -> float:
        """Power drawn from the *drone's* battery (0 if self-powered)."""
        return 0.0 if self.self_powered else self.power_w


def table4_external_sensors() -> List[SensorProduct]:
    """The Table 4 census of external sensors."""
    return [
        SensorProduct(
            name="Bat 19S 800TVL", manufacturer="Eachine", weight_g=8.0,
            kind=SensorKind.FPV_CAMERA, power_w=0.05 * 5.0,
        ),
        SensorProduct(
            name="Night Eagle 2", manufacturer="RunCam", weight_g=14.5,
            kind=SensorKind.FPV_CAMERA, power_w=0.2 * 5.0,
        ),
        SensorProduct(
            name="HD Action Camera", manufacturer="generic", weight_g=100.0,
            kind=SensorKind.HD_CAMERA, power_w=4.0, self_powered=True,
        ),
        SensorProduct(
            name="HoverMap", manufacturer="Emesent", weight_g=1800.0,
            kind=SensorKind.LIDAR, power_w=50.0, self_powered=True,
        ),
        SensorProduct(
            name="Surveyor", manufacturer="YellowScan", weight_g=1600.0,
            kind=SensorKind.LIDAR, power_w=15.0, self_powered=True,
        ),
        SensorProduct(
            name="Ultra Puck", manufacturer="Velodyne", weight_g=925.0,
            kind=SensorKind.LIDAR, power_w=10.0, self_powered=True,
        ),
        SensorProduct(
            name="RGB-D Depth Camera", manufacturer="generic", weight_g=72.0,
            kind=SensorKind.RGBD_CAMERA, power_w=3.5,
        ),
    ]


def find_sensor(name: str) -> SensorProduct:
    """Look up a Table 4 sensor by (case-insensitive) name."""
    wanted = name.strip().lower()
    for sensor in table4_external_sensors():
        if sensor.name.lower() == wanted:
            return sensor
    known = ", ".join(s.name for s in table4_external_sensors())
    raise KeyError(f"unknown sensor {name!r}; known sensors: {known}")
