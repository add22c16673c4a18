"""DroneKit-like high-level vehicle API.

The paper uses DroneKit to "connect to the drone, issue flight commands,
and monitor the drone" from companion computers and ground stations.  This
module mirrors that API surface over our autopilot: ``connect`` returns a
:class:`Vehicle` with ``armed``, ``mode``, ``location``, ``battery``,
``simple_takeoff``, ``simple_goto``, and mission upload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.autopilot.arducopter import Autopilot, FlightMode, MissionItem
from repro.sim.simulator import DroneModel, FlightSimulator


@dataclass(frozen=True)
class LocationLocal:
    """Local-frame location (the LocationLocal analogue)."""

    north: float
    east: float
    down: float

    @property
    def altitude(self) -> float:
        return -self.down


@dataclass(frozen=True)
class BatteryInfo:
    voltage: float
    level: float  # fraction of charge remaining


class Vehicle:
    """High-level handle on a (simulated) drone."""

    def __init__(self, autopilot: Autopilot):
        self._autopilot = autopilot

    # -- attributes --------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._autopilot.armed

    @armed.setter
    def armed(self, value: bool) -> None:
        if value and not self._autopilot.armed:
            self._autopilot.arm()
        elif not value and self._autopilot.armed:
            self._autopilot.disarm()

    @property
    def mode(self) -> str:
        return self._autopilot.mode.value.upper()

    @mode.setter
    def mode(self, name: str) -> None:
        self._autopilot.set_mode(FlightMode(name.lower()))

    @property
    def location(self) -> LocationLocal:
        position = self._autopilot.sim.true_state.position_m
        return LocationLocal(
            north=float(position[1]), east=float(position[0]),
            down=-float(position[2]),
        )

    @property
    def battery(self) -> BatteryInfo:
        sim = self._autopilot.sim
        if not isinstance(sim, FlightSimulator):
            raise TypeError("the battery voltage is read from a FlightSimulator")
        battery = sim.battery
        return BatteryInfo(
            voltage=battery.terminal_voltage_v(0.0),
            level=battery.state_of_charge,
        )

    # -- commands ----------------------------------------------------------------

    def simple_takeoff(self, altitude_m: float, wait_s: float = 8.0) -> None:
        """Arm-checked takeoff; blocks (simulated time) until near altitude."""
        self._autopilot.takeoff(altitude_m)
        self.wait(wait_s)

    def simple_goto(self, east: float, north: float, altitude: float,
                    wait_s: float = 0.0) -> None:
        """Fly to a local-frame target in GUIDED mode."""
        self._autopilot.goto(np.array([east, north, altitude]))
        if wait_s > 0:
            self.wait(wait_s)

    def upload_mission(self, waypoints: Sequence[Sequence[float]],
                       hold_s: float = 0.0) -> None:
        items = [
            MissionItem(position_m=np.asarray(w, dtype=float), hold_s=hold_s)
            for w in waypoints
        ]
        self._autopilot.upload_mission(items)

    def wait(self, duration_s: float, step_s: float = 0.1) -> None:
        """Advance simulated time while the autopilot keeps running."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        elapsed = 0.0
        while elapsed < duration_s:
            step = min(step_s, duration_s - elapsed)
            self._autopilot.update(step)
            elapsed += step

    def events(self) -> List[tuple]:
        """The autopilot's event log (arming, mode changes, failsafes)."""
        return list(self._autopilot.events)

    def close(self) -> None:
        """Release the vehicle (parity with DroneKit's API)."""
        # The simulated vehicle holds no external resources.


def connect(
    model: Optional[DroneModel] = None, physics_rate_hz: float = 400.0
) -> Vehicle:
    """Create a simulated vehicle — the ``dronekit.connect`` analogue.

    >>> vehicle = connect()
    >>> vehicle.armed
    False
    """
    if model is None:
        model = DroneModel(
            mass_kg=1.071,
            wheelbase_mm=450.0,
            battery_cells=3,
            battery_capacity_mah=3000.0,
        )
    sim = FlightSimulator(model, physics_rate_hz=physics_rate_hz)
    return Vehicle(Autopilot(sim))
