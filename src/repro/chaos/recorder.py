"""Black-box flight recorder: bounded tick history + JSON crash traces.

Real flight controllers carry a black box: a ring buffer of recent state
that survives the crash and explains it.  :class:`FlightRecorder` is that
device for chaos trials — every control tick it snapshots vehicle state,
commands-in-effect, and failsafe ladder position into a ``deque`` with a
hard ``maxlen``, so a thousand-trial campaign holds memory flat and still
has the final seconds of every failure at full resolution.

On a violation or crash the runner freezes the buffer into a
:class:`BlackBoxTrace`: a JSON document carrying the trial's
:class:`~repro.chaos.campaign.TrialSpec` and the whole
:class:`~repro.chaos.campaign.CampaignConfig` it flew under, the verdict,
and the recorded ticks.  The trace file alone is a complete flight plan:
``replay_trial(trace, trace.config)`` re-flies the trial bit-for-bit.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.autopilot.arducopter import Autopilot
from repro.chaos.campaign import CampaignConfig, TrialSpec
from repro.chaos.invariants import Violation

#: Black-box trace format version (bump on incompatible schema changes).
#: Format 4 records the whole trial spec and campaign config.
TRACE_FORMAT = 4


def _vec3(values: Any) -> Tuple[float, float, float]:
    return (float(values[0]), float(values[1]), float(values[2]))


@dataclass(frozen=True)
class TickRecord:
    """One control tick of black-box state."""

    time_s: float
    position_m: Tuple[float, float, float]
    velocity_m_s: Tuple[float, float, float]
    euler_rad: Tuple[float, float, float]
    battery_soc: float
    failsafe: str
    mode: str
    active_faults: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "position_m": list(self.position_m),
            "velocity_m_s": list(self.velocity_m_s),
            "euler_rad": list(self.euler_rad),
            "battery_soc": self.battery_soc,
            "failsafe": self.failsafe,
            "mode": self.mode,
            "active_faults": list(self.active_faults),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TickRecord":
        return cls(
            time_s=float(data["time_s"]),
            position_m=_vec3(data["position_m"]),
            velocity_m_s=_vec3(data["velocity_m_s"]),
            euler_rad=_vec3(data["euler_rad"]),
            battery_soc=float(data["battery_soc"]),
            failsafe=str(data["failsafe"]),
            mode=str(data["mode"]),
            active_faults=tuple(str(v) for v in data["active_faults"]),
        )


class FlightRecorder:
    """Bounded ring buffer of per-tick state snapshots."""

    def __init__(self, maxlen: int = 400):
        if maxlen <= 0:
            raise ValueError(f"recorder maxlen must be positive: {maxlen}")
        self.maxlen = maxlen
        self.ticks: Deque[TickRecord] = deque(maxlen=maxlen)
        self.total_ticks = 0

    def record(
        self,
        autopilot: Autopilot,
        active_faults: Tuple[str, ...] = (),
    ) -> TickRecord:
        """Snapshot the stack's current state into the ring buffer."""
        state = autopilot.sim.true_state
        # euler_rad converts the quaternion on every read: read it once.
        roll, pitch, yaw = state.euler_rad.tolist()
        tick = TickRecord(
            time_s=autopilot.sim.time_s,
            position_m=(
                float(state.position_m[0]),
                float(state.position_m[1]),
                float(state.position_m[2]),
            ),
            velocity_m_s=(
                float(state.velocity_m_s[0]),
                float(state.velocity_m_s[1]),
                float(state.velocity_m_s[2]),
            ),
            euler_rad=(roll, pitch, yaw),
            battery_soc=autopilot.sim.state_of_charge,
            failsafe=autopilot.failsafe.name,
            mode=autopilot.mode.value,
            active_faults=active_faults,
        )
        self.ticks.append(tick)
        self.total_ticks += 1
        return tick

    @property
    def dropped_ticks(self) -> int:
        """Ticks that have rolled out of the ring buffer."""
        return self.total_ticks - len(self.ticks)


@dataclass
class BlackBoxTrace:
    """A dumped black box: the trial's spec and config + verdict + ticks."""

    spec: TrialSpec
    config: CampaignConfig
    verdict: str
    violation: Optional[Violation] = None
    events: Tuple[Tuple[float, str], ...] = ()
    ticks: List[TickRecord] = field(default_factory=list)
    dropped_ticks: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": TRACE_FORMAT,
            "spec": self.spec.to_dict(),
            "config": self.config.to_dict(),
            "verdict": self.verdict,
            "violation": (
                None if self.violation is None else self.violation.to_dict()
            ),
            "events": [[time_s, text] for time_s, text in self.events],
            "dropped_ticks": self.dropped_ticks,
            "ticks": [tick.to_dict() for tick in self.ticks],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BlackBoxTrace":
        found = data.get("format")
        if found != TRACE_FORMAT:
            raise ValueError(
                f"unsupported trace format {found!r}: expected {TRACE_FORMAT}"
            )
        violation = data.get("violation")
        return cls(
            spec=TrialSpec.from_dict(data["spec"]),
            config=CampaignConfig.from_dict(data["config"]),
            verdict=str(data["verdict"]),
            violation=None if violation is None else Violation.from_dict(violation),
            events=tuple(
                (float(time_s), str(text)) for time_s, text in data.get("events", [])
            ),
            ticks=[TickRecord.from_dict(item) for item in data.get("ticks", [])],
            dropped_ticks=int(data.get("dropped_ticks", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "BlackBoxTrace":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> Tuple:
        """Bit-for-bit comparison key used by the replay determinism check."""
        spec = self.spec
        return (
            spec.campaign_seed,
            spec.trial_index,
            spec.link_seed,
            spec.sensor_seed,
            self.verdict,
            tuple(spec.schedule.events),
            self.violation,
            self.events,
            tuple(self.ticks),
            self.dropped_ticks,
        )
