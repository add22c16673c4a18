"""Declarative per-tick safety invariants with first-violation attribution.

A *catalog* of machine-checkable safety properties — some terminal (the
airframe is gone), some contractual (the stack kept flying but broke a
promise: left the fence, flew below the mission floor, burned into the
battery reserve, reacted to a fault slower than the SLO, navigated on stale
offloaded poses).  The four terminal ``crash.*`` invariants, judged against
the shared :class:`repro.faults.envelope.CrashEnvelope`, are the one
definition of "crashed" for chaos trials and canned scenarios alike.

:class:`SafetyMonitor` evaluates the catalog every control tick and records
the **first** violation of each invariant with full attribution: what was
violated, when, which faults were active, and what failsafe rung the
autopilot occupied.  Those `(invariant, active faults, failsafe)` triples
are exactly the keys the triage layer buckets campaign failures by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.analysis.markers import hot_path, hot_path_safe
from repro.autopilot.arducopter import Autopilot, FlightMode
from repro.faults.envelope import DEFAULT_CRASH_ENVELOPE, CrashEnvelope
from repro.faults.schedule import FaultSchedule

#: Invariant-name prefix marking terminal (vehicle-lost) violations.
CRASH_PREFIX = "crash."


@dataclass(frozen=True)
class SafetyLimits:
    """Thresholds of the non-terminal (contract) invariants.

    The geofence here is an axis-aligned *box* around home — deliberately
    tighter and simpler than the autopilot's cylindrical
    :class:`repro.autopilot.arducopter.Geofence`, so the monitor catches
    excursions the flight code itself would tolerate.
    """

    #: Half-extent of the geofence box around home (x and y).
    fence_half_extent_m: float = 25.0
    #: Geofence altitude ceiling above home.
    fence_ceiling_m: float = 30.0
    #: Minimum altitude while navigating (AUTO/GUIDED, once airborne).
    altitude_floor_m: float = 0.5
    #: Altitude that arms the floor invariant after takeoff.
    altitude_arm_m: float = 1.5
    #: State of charge the vehicle must never burn below while airborne.
    battery_reserve_soc: float = 0.05
    #: Max latency from a fault onset to the autopilot's first reaction
    #: (DEGRADED or FAILSAFE event) — the failsafe-reaction SLO.
    reaction_slo_s: float = 5.0
    #: Max age of the newest offloaded pose while the watchdog is attached.
    pose_staleness_bound_s: float = 3.0

    def __post_init__(self) -> None:
        if self.fence_half_extent_m <= 0 or self.fence_ceiling_m <= 0:
            raise ValueError("geofence box dimensions must be positive")
        if self.altitude_arm_m <= self.altitude_floor_m:
            raise ValueError(
                "arming altitude must sit above the floor: "
                f"{self.altitude_arm_m} <= {self.altitude_floor_m}"
            )
        if not 0.0 <= self.battery_reserve_soc < 1.0:
            raise ValueError(
                f"battery reserve must be a fraction: {self.battery_reserve_soc}"
            )
        if self.reaction_slo_s <= 0 or self.pose_staleness_bound_s <= 0:
            raise ValueError("SLO bounds must be positive")


@dataclass(frozen=True)
class Violation:
    """One invariant violation, attributed to its context."""

    invariant: str
    time_s: float
    detail: str
    active_faults: Tuple[str, ...]
    failsafe: str
    mode: str

    @property
    def is_crash(self) -> bool:
        return self.invariant.startswith(CRASH_PREFIX)

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "time_s": self.time_s,
            "detail": self.detail,
            "active_faults": list(self.active_faults),
            "failsafe": self.failsafe,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(
            invariant=str(data["invariant"]),
            time_s=float(data["time_s"]),
            detail=str(data["detail"]),
            active_faults=tuple(data.get("active_faults", ())),
            failsafe=str(data["failsafe"]),
            mode=str(data["mode"]),
        )


@dataclass(frozen=True)
class Invariant:
    """One declarative safety property.

    ``check`` returns a human-readable violation detail, or None while the
    property holds.  ``terminal`` marks crash-class invariants: the run
    cannot meaningfully continue once they fire.
    """

    name: str
    description: str
    check: Callable[["SafetyMonitor"], Optional[str]]
    terminal: bool = False


def _check_tilt(monitor: "SafetyMonitor") -> Optional[str]:
    state = monitor.autopilot.sim.true_state
    tilt_rad = float(np.linalg.norm(state.euler_rad[0:2]))
    if tilt_rad > monitor.envelope.tilt_limit_rad:
        return (
            f"tilt {math.degrees(tilt_rad):.0f} deg exceeds "
            f"{math.degrees(monitor.envelope.tilt_limit_rad):.0f} deg"
        )
    return None


def _check_ground_impact(monitor: "SafetyMonitor") -> Optional[str]:
    altitude_m = monitor.altitude_m
    if altitude_m < monitor.envelope.impact_altitude_m:
        return f"altitude {altitude_m:.2f} m below terrain"
    return None


def _check_hard_landing(monitor: "SafetyMonitor") -> Optional[str]:
    state = monitor.autopilot.sim.true_state
    descent_m_s = float(state.velocity_m_s[2])
    if (
        monitor.altitude_m < monitor.envelope.touchdown_altitude_m
        and descent_m_s < -monitor.envelope.hard_landing_speed_m_s
    ):
        return f"touched down at {-descent_m_s:.1f} m/s"
    return None


def _check_depletion(monitor: "SafetyMonitor") -> Optional[str]:
    sim = monitor.autopilot.sim
    if sim.depleted and monitor.altitude_m > monitor.envelope.depleted_altitude_m:
        return f"battery depleted at {monitor.altitude_m:.1f} m"
    return None


def _check_geofence_box(monitor: "SafetyMonitor") -> Optional[str]:
    offset = (
        monitor.autopilot.sim.true_state.position_m - monitor.autopilot.home_m
    )
    limits = monitor.limits
    if (
        abs(float(offset[0])) > limits.fence_half_extent_m
        or abs(float(offset[1])) > limits.fence_half_extent_m
    ):
        return (
            f"horizontal excursion ({float(offset[0]):.1f}, "
            f"{float(offset[1]):.1f}) m outside the "
            f"{limits.fence_half_extent_m:.0f} m box"
        )
    if float(offset[2]) > limits.fence_ceiling_m:
        return f"altitude {float(offset[2]):.1f} m above the fence ceiling"
    return None


def _check_altitude_floor(monitor: "SafetyMonitor") -> Optional[str]:
    if not monitor.airborne:
        return None
    if monitor.autopilot.mode not in (FlightMode.AUTO, FlightMode.GUIDED):
        return None  # RTL/LAND legitimately descend
    altitude_m = monitor.altitude_m
    if altitude_m < monitor.limits.altitude_floor_m:
        return (
            f"sank to {altitude_m:.2f} m while navigating "
            f"(floor {monitor.limits.altitude_floor_m:.2f} m)"
        )
    return None


def _check_battery_reserve(monitor: "SafetyMonitor") -> Optional[str]:
    soc = monitor.autopilot.sim.state_of_charge
    if monitor.airborne and soc < monitor.limits.battery_reserve_soc:
        return (
            f"SoC {soc:.1%} below the "
            f"{monitor.limits.battery_reserve_soc:.0%} reserve"
        )
    return None


def _check_reaction_slo(monitor: "SafetyMonitor") -> Optional[str]:
    """First reaction after a fault onset must land within the SLO.

    The SLO judges reactions, not silence: a fault the ladder never reacts
    to may simply be benign (mild motor wear), so no violation is charged
    until a DEGRADED/FAILSAFE event actually appears — too late.
    """
    latency_s = monitor.reaction_latency_s()
    if latency_s is not None and latency_s > monitor.limits.reaction_slo_s:
        return (
            f"failsafe reacted {latency_s:.1f} s after fault onset "
            f"(SLO {monitor.limits.reaction_slo_s:.1f} s)"
        )
    return None


def _check_pose_staleness(monitor: "SafetyMonitor") -> Optional[str]:
    watchdog = monitor.autopilot.pose_watchdog
    if watchdog is None or watchdog.last_pose_s is None:
        return None
    staleness_s = monitor.time_s - watchdog.last_pose_s
    if staleness_s > monitor.limits.pose_staleness_bound_s:
        return (
            f"newest offloaded pose is {staleness_s:.1f} s old "
            f"(bound {monitor.limits.pose_staleness_bound_s:.1f} s)"
        )
    return None


def invariant_catalog() -> Tuple[Invariant, ...]:
    """The declarative catalog the monitor evaluates every tick."""
    return (
        Invariant(
            name="crash.tilt",
            description="combined roll/pitch stays inside the crash envelope",
            check=_check_tilt,
            terminal=True,
        ),
        Invariant(
            name="crash.ground-impact",
            description="the vehicle never descends below terrain",
            check=_check_ground_impact,
            terminal=True,
        ),
        Invariant(
            name="crash.hard-landing",
            description="touchdown descent speed stays survivable",
            check=_check_hard_landing,
            terminal=True,
        ),
        Invariant(
            name="crash.battery-depleted",
            description="the pack never empties while airborne",
            check=_check_depletion,
            terminal=True,
        ),
        Invariant(
            name="geofence-box",
            description="flight stays inside the campaign's box fence",
            check=_check_geofence_box,
        ),
        Invariant(
            name="altitude-floor",
            description="navigation never sinks below the mission floor",
            check=_check_altitude_floor,
        ),
        Invariant(
            name="battery-reserve",
            description="the landing reserve is never consumed in flight",
            check=_check_battery_reserve,
        ),
        Invariant(
            name="reaction-slo",
            description="the failsafe ladder reacts to faults within the SLO",
            check=_check_reaction_slo,
        ),
        Invariant(
            name="pose-staleness",
            description="offloaded poses feeding navigation stay fresh",
            check=_check_pose_staleness,
        ),
    )


class SafetyMonitor:
    """Evaluates the invariant catalog against a live autopilot stack.

    Call :meth:`check` once per control tick (after ``Autopilot.update``).
    Each invariant is charged at most once — its *first* violation — and the
    overall first violation carries the trial's verdict attribution.
    """

    def __init__(
        self,
        autopilot: Autopilot,
        schedule: FaultSchedule,
        limits: Optional[SafetyLimits] = None,
        envelope: CrashEnvelope = DEFAULT_CRASH_ENVELOPE,
    ):
        self.autopilot = autopilot
        self.schedule = schedule
        self.limits = limits if limits is not None else SafetyLimits()
        self.envelope = envelope
        self.invariants = invariant_catalog()
        self.violations: List[Violation] = []
        self.time_s = 0.0
        self.airborne = False
        self._violated_names: set = set()
        self._onsets_s: Tuple[float, ...] = tuple(
            sorted(event.start_s for event in schedule.events)
        )

    # -- context helpers ---------------------------------------------------------

    @property
    def altitude_m(self) -> float:
        return float(self.autopilot.sim.true_state.position_m[2])

    @hot_path_safe
    def active_fault_names(self) -> Tuple[str, ...]:
        """Kinds of the currently-active faults, sorted for determinism."""
        return tuple(
            sorted({event.kind.value for event in self.schedule.active(self.time_s)})
        )

    def reaction_latency_s(self) -> Optional[float]:
        """Latency from the most recent fault onset to the first reaction
        (DEGRADED/FAILSAFE event) after it; None before any reaction."""
        reactions = [
            time_s
            for time_s, text in self.autopilot.events
            if text.startswith("FAILSAFE") or text.startswith("DEGRADED")
        ]
        if not reactions:
            return None
        first_reaction_s = reactions[0]
        onset_s: Optional[float] = None
        for candidate_s in self._onsets_s:
            if candidate_s <= first_reaction_s + 1e-9:
                onset_s = candidate_s
            else:
                break
        if onset_s is None:
            return None
        return first_reaction_s - onset_s

    # -- evaluation --------------------------------------------------------------

    @hot_path
    def check(self, time_s: float) -> Optional[Violation]:
        """Evaluate every invariant at ``time_s``; returns the first *new*
        violation recorded this tick (None while all hold)."""
        self.time_s = time_s
        if not self.airborne and self.altitude_m > self.limits.altitude_arm_m:
            self.airborne = True
        newly_recorded: Optional[Violation] = None
        for invariant in self.invariants:
            if invariant.name in self._violated_names:
                continue
            detail = invariant.check(self)
            if detail is None:
                continue
            violation = Violation(
                invariant=invariant.name,
                time_s=time_s,
                detail=detail,
                active_faults=self.active_fault_names(),
                failsafe=self.autopilot.failsafe.name,
                mode=self.autopilot.mode.value,
            )
            self._violated_names.add(invariant.name)
            self.violations.append(violation)
            if newly_recorded is None:
                newly_recorded = violation
        return newly_recorded

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    @property
    def crashed(self) -> bool:
        """True once any terminal (``crash.*``) invariant has fired."""
        return any(violation.is_crash for violation in self.violations)

    @property
    def crash_violation(self) -> Optional[Violation]:
        for violation in self.violations:
            if violation.is_crash:
                return violation
        return None
