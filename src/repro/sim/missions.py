"""Flight missions: scripted sequences of outer-loop targets.

A mission is the simulator-side analogue of the paper's "flight script
(pre-set commands for autopilot)" — takeoff, hover, waypoint legs,
maneuvering, and landing — and drives the Figure 16b whole-drone power
measurement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.sim.simulator import FlightSimulator


class PhaseKind(enum.Enum):
    TAKEOFF = "takeoff"
    HOVER = "hover"
    GOTO = "goto"
    ORBIT = "orbit"
    AGGRESSIVE = "aggressive"
    LAND = "land"


@dataclass(frozen=True)
class MissionPhase:
    """One scripted phase with a duration and an optional target."""

    kind: PhaseKind
    duration_s: float
    target_m: Optional[np.ndarray] = None
    speed_m_s: float = 2.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"phase duration must be positive: {self.duration_s}")
        if self.speed_m_s <= 0:
            raise ValueError(f"phase speed must be positive: {self.speed_m_s}")


@dataclass
class Mission:
    """An ordered list of phases, executable against a simulator."""

    phases: List[MissionPhase] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return sum(phase.duration_s for phase in self.phases)

    def run(self, sim: FlightSimulator, chunk_s: float = 0.5) -> None:
        """Execute the mission on ``sim``, retargeting as phases demand."""
        if not self.phases:
            raise ValueError("mission has no phases")
        if chunk_s <= 0:
            raise ValueError(f"chunk must be positive, got {chunk_s}")
        for phase in self.phases:
            self._enter_phase(sim, phase)
            elapsed = 0.0
            while elapsed < phase.duration_s:
                step = min(chunk_s, phase.duration_s - elapsed)
                if phase.kind is PhaseKind.ORBIT:
                    self._retarget_orbit(sim, phase, elapsed)
                elif phase.kind is PhaseKind.AGGRESSIVE:
                    self._retarget_aggressive(sim, phase, elapsed)
                sim.run_for(step)
                elapsed += step

    def _enter_phase(self, sim: FlightSimulator, phase: MissionPhase) -> None:
        if phase.kind in (PhaseKind.TAKEOFF, PhaseKind.GOTO, PhaseKind.HOVER):
            if phase.target_m is None:
                raise ValueError(f"{phase.kind.value} phase requires a target")
            sim.goto(phase.target_m)
        elif phase.kind is PhaseKind.LAND:
            current = sim.body.state.position_m
            sim.goto(np.array([current[0], current[1], 0.0]))

    def _retarget_orbit(
        self, sim: FlightSimulator, phase: MissionPhase, elapsed: float
    ) -> None:
        if phase.target_m is None:
            raise ValueError("orbit phase requires a center target")
        center = np.asarray(phase.target_m, dtype=float)
        radius = 3.0
        omega = phase.speed_m_s / radius
        angle = omega * elapsed
        offset = np.array([radius * np.cos(angle), radius * np.sin(angle), 0.0])
        sim.goto(center + offset)

    def _retarget_aggressive(
        self, sim: FlightSimulator, phase: MissionPhase, elapsed: float
    ) -> None:
        """Dash along ±x at ``phase.speed_m_s``, reversing every 2 s — the
        'maneuvering' load regime.  The phase requires a target but does not
        steer toward it."""
        if phase.target_m is None:
            raise ValueError("aggressive phase requires a center target")
        direction = 1.0 if int(elapsed / 2.0) % 2 == 0 else -1.0
        sim.set_velocity(np.array([direction * phase.speed_m_s, 0.0, 0.0]))


def survey_mission(
    area_side_m: float = 20.0,
    lane_spacing_m: float = 5.0,
    altitude_m: float = 10.0,
    leg_duration_s: float = 5.0,
) -> Mission:
    """Lawnmower coverage pattern — the aerial-mapping workload class."""
    if area_side_m <= 0 or lane_spacing_m <= 0:
        raise ValueError("area and lane spacing must be positive")
    lanes = max(1, int(area_side_m / lane_spacing_m))
    waypoints = []
    for lane in range(lanes + 1):
        y = lane * lane_spacing_m
        if lane % 2 == 0:
            waypoints.append([0.0, y, altitude_m])
            waypoints.append([area_side_m, y, altitude_m])
        else:
            waypoints.append([area_side_m, y, altitude_m])
            waypoints.append([0.0, y, altitude_m])
    return Mission(
        phases=[
            MissionPhase(
                PhaseKind.TAKEOFF,
                duration_s=6.0,
                target_m=np.array([0.0, 0.0, altitude_m]),
            )
        ]
        + [
            MissionPhase(
                PhaseKind.GOTO, duration_s=leg_duration_s, target_m=np.asarray(w)
            )
            for w in waypoints
        ]
        + [MissionPhase(PhaseKind.LAND, duration_s=8.0)]
    )


def figure16_mission(altitude_m: float = 5.0) -> Mission:
    """The Figure 16b flight: takeoff, hover, maneuver, hover, land."""
    target = np.array([0.0, 0.0, altitude_m])
    return Mission(
        phases=[
            MissionPhase(PhaseKind.TAKEOFF, duration_s=6.0, target_m=target),
            MissionPhase(PhaseKind.HOVER, duration_s=10.0, target_m=target),
            MissionPhase(
                PhaseKind.AGGRESSIVE, duration_s=10.0, target_m=target, speed_m_s=6.0
            ),
            MissionPhase(PhaseKind.HOVER, duration_s=10.0, target_m=target),
            MissionPhase(PhaseKind.LAND, duration_s=8.0),
        ]
    )
