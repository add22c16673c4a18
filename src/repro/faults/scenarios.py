"""Canned fault scenarios and the closed-loop scenario runner.

Each scenario flies the same waypoint mission through a different corner of
the reliability envelope (GPS outage, link blackout, battery faults, motor
degradation, offload-node stalls) and reports survival, recovery time, and
mission-completion degradation.  Runs are deterministic: the same scenario
and seed reproduce the same metrics bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.autopilot.arducopter import Autopilot, FlightMode, MissionItem
from repro.autopilot.mavlink import Link, MessageType
from repro.autopilot.offload import PoseStalenessWatchdog
from repro.faults.envelope import DEFAULT_CRASH_ENVELOPE, CrashEnvelope
from repro.faults.injectors import FaultInjector
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.sim.simulator import DroneModel, FlightSimulator

#: The shared mission: an 8 m square at 4 m altitude, ~25 s of flying —
#: long enough that mid-mission faults abort real work.
DEFAULT_WAYPOINTS = (
    (8.0, 0.0, 4.0),
    (8.0, 8.0, 4.0),
    (0.0, 8.0, 4.0),
    (0.0, 0.0, 4.0),
)
DEFAULT_MODEL = dict(
    mass_kg=1.071,
    wheelbase_mm=450.0,
    battery_cells=3,
    battery_capacity_mah=3000.0,
)
TAKEOFF_ALTITUDE_M = 4.0
TAKEOFF_SETTLE_S = 6.0
CONTROL_STEP_S = 0.1
HEARTBEAT_PERIOD_S = 1.0


@dataclass(frozen=True)
class Scenario:
    """One mission x fault-schedule combination."""

    name: str
    schedule_factory: Callable[[], FaultSchedule]
    waypoints: Tuple[Tuple[float, float, float], ...] = DEFAULT_WAYPOINTS
    duration_s: float = 40.0
    #: EKF-in-the-loop flight (required for GPS/IMU fault scenarios).
    use_ekf: bool = False
    #: Attach a pose-staleness watchdog fed by a synthetic offload stream.
    offload: bool = False
    #: GCS heartbeats flowing (arms the autopilot's link-loss watchdog).
    heartbeats: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive: {self.duration_s}")
        if not self.waypoints:
            raise ValueError("scenario needs at least one waypoint")


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome metrics of one scenario run."""

    scenario: str
    survived: bool
    crash_reason: Optional[str]
    final_failsafe: str
    final_mode: str
    mission_completion: float
    #: Time from first fault onset to the autopilot's first reaction
    #: (DEGRADED or FAILSAFE event); None if it never reacted.
    recovery_time_s: Optional[float]
    min_soc: float
    landed: bool
    events: Tuple[Tuple[float, str], ...]

    def metrics(self) -> Tuple:
        """The determinism fingerprint: identical seeds must reproduce this
        tuple exactly (used by benchmarks/test_fault_scenarios.py)."""
        return (
            self.scenario,
            self.survived,
            self.crash_reason,
            self.final_failsafe,
            self.final_mode,
            self.mission_completion,
            self.recovery_time_s,
            self.min_soc,
            self.landed,
            self.events,
        )


def run_scenario(
    scenario: Scenario,
    seed: int = 7,
    physics_rate_hz: float = 400.0,
    envelope: CrashEnvelope = DEFAULT_CRASH_ENVELOPE,
) -> ScenarioResult:
    """Fly one scenario to completion and measure the outcome."""
    model = DroneModel(**DEFAULT_MODEL)
    sim = FlightSimulator(
        model, physics_rate_hz=physics_rate_hz, use_ekf=scenario.use_ekf
    )
    link = Link(seed=seed)
    autopilot = Autopilot(sim, link=link)
    if scenario.offload:
        autopilot.pose_watchdog = PoseStalenessWatchdog()
    schedule = scenario.schedule_factory()
    injector = FaultInjector(autopilot, schedule)

    min_soc = sim.battery.state_of_charge
    crash: Optional[str] = None
    next_heartbeat_s = 0.0

    def tick() -> bool:
        """One control cycle; returns False once the vehicle is lost."""
        nonlocal min_soc, crash, next_heartbeat_s
        now = sim.time_s
        injector.apply(now)
        if scenario.heartbeats and now + 1e-9 >= next_heartbeat_s:
            next_heartbeat_s = now + HEARTBEAT_PERIOD_S
            link.send(MessageType.HEARTBEAT)
        if scenario.offload and not injector.offload_blocked(now):
            autopilot.pose_watchdog.note_pose(now)
        autopilot.update(CONTROL_STEP_S)
        min_soc = min(min_soc, sim.battery.state_of_charge)
        crash = envelope.crash_reason(sim)
        return crash is None

    autopilot.arm()
    autopilot.takeoff(TAKEOFF_ALTITUDE_M)
    elapsed = 0.0
    alive = True
    while alive and elapsed < TAKEOFF_SETTLE_S:
        alive = tick()
        elapsed += CONTROL_STEP_S
    if alive:
        autopilot.upload_mission(
            [MissionItem(np.asarray(w, dtype=float)) for w in scenario.waypoints]
        )
        autopilot.set_mode(FlightMode.AUTO)
        while alive and elapsed < scenario.duration_s:
            alive = tick()
            elapsed += CONTROL_STEP_S

    completion = autopilot.mission_progress
    altitude = float(sim.body.state.position_m[2])
    return ScenarioResult(
        scenario=scenario.name,
        survived=crash is None,
        crash_reason=crash,
        final_failsafe=autopilot.failsafe.name,
        final_mode=autopilot.mode.value,
        mission_completion=completion,
        recovery_time_s=recovery_time_s(autopilot, schedule),
        min_soc=min_soc,
        landed=altitude < 0.3,
        events=tuple(autopilot.events),
    )


def recovery_time_s(
    autopilot: Autopilot, schedule: FaultSchedule
) -> Optional[float]:
    """Time from the first fault's onset to the first failsafe or
    degradation reaction (None without a fault or a reaction)."""
    onset = schedule.first_fault_s
    if math.isinf(onset):
        return None
    for time_s, text in autopilot.events:
        if time_s + 1e-9 >= onset and (
            text.startswith("FAILSAFE") or text.startswith("DEGRADED")
        ):
            return time_s - onset
    return None


# -- canned scenarios -------------------------------------------------------------


def low_battery_scenario(duration_s: float = 40.0) -> Scenario:
    """A cell goes bad mid-mission: SoC drops below the low threshold and the
    autopilot must abort to FAILSAFE_RTL."""
    return Scenario(
        name="low-battery",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.BATTERY_DRAIN, start_s=14.5, end_s=15.0, fraction=0.76
        ),
        duration_s=duration_s,
    )


def critical_battery_scenario(duration_s: float = 40.0) -> Scenario:
    """Worse capacity loss: SoC lands below critical -> FAILSAFE_LAND."""
    return Scenario(
        name="critical-battery",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.BATTERY_DRAIN, start_s=12.0, end_s=12.5, fraction=0.83
        ),
        duration_s=duration_s,
    )


def gps_loss_scenario(duration_s: float = 40.0) -> Scenario:
    """GPS denied for 14 s: dead-reckon (DEGRADED), then FAILSAFE_LAND once
    drift is unbounded."""
    return Scenario(
        name="gps-loss",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.GPS_LOSS, start_s=12.0, end_s=26.0
        ),
        duration_s=duration_s,
        use_ekf=True,
    )


def link_blackout_scenario(duration_s: float = 40.0) -> Scenario:
    """Total uplink outage: heartbeats stop, the link-loss watchdog fires
    FAILSAFE_RTL after the timeout."""
    return Scenario(
        name="link-blackout",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.LINK_BLACKOUT, start_s=10.0, end_s=26.0
        ),
        duration_s=duration_s,
        heartbeats=True,
    )


def motor_degradation_scenario(duration_s: float = 40.0) -> Scenario:
    """One rotor loses 20% of its thrust ceiling (prop damage): enough
    margin remains to finish the mission flying soft."""
    return Scenario(
        name="motor-degradation",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.MOTOR_DEGRADATION,
            start_s=10.0,
            motor_index=0,
            health=0.8,
        ),
        duration_s=duration_s,
    )


def motor_out_scenario(duration_s: float = 40.0) -> Scenario:
    """Severe single-rotor failure (40% ceiling): the thrust-saturation
    failsafe must catch the authority loss and force a LAND — whether the
    airframe survives the descent is up to the physics."""
    return Scenario(
        name="motor-out",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.MOTOR_DEGRADATION,
            start_s=10.0,
            motor_index=0,
            health=0.4,
        ),
        duration_s=duration_s,
    )


def esc_thermal_scenario(duration_s: float = 40.0) -> Scenario:
    """All four ESCs in thermal protection at 105 degC for 20 s: uniform
    derating leaves hover margin but clips maneuvering authority."""
    return Scenario(
        name="esc-thermal",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.ESC_THERMAL, start_s=8.0, end_s=28.0, temperature_c=105.0
        ),
        duration_s=duration_s,
    )


def imu_glitch_scenario(duration_s: float = 40.0) -> Scenario:
    """A 4 s IMU bias glitch while flying on the EKF estimate."""
    return Scenario(
        name="imu-glitch",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.IMU_BIAS,
            start_s=12.0,
            end_s=16.0,
            accel_bias_m_s2=0.8,
            gyro_bias_rad_s=0.03,
        ),
        duration_s=duration_s,
        use_ekf=True,
    )


def offload_stall_scenario(duration_s: float = 40.0) -> Scenario:
    """The off-board SLAM node stalls for 6 s: the staleness watchdog must
    fall back to onboard SLAM (DEGRADED) and recover when poses resume."""
    return Scenario(
        name="offload-stall",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.OFFLOAD_STALL, start_s=10.0, end_s=16.0
        ),
        duration_s=duration_s,
        offload=True,
    )


def combined_stress_scenario(duration_s: float = 40.0) -> Scenario:
    """Several simultaneous degradations: bursty link, battery sag, frozen
    barometer — the compounding-failure regime."""
    return Scenario(
        name="combined-stress",
        schedule_factory=lambda: FaultSchedule()
        .add(
            FaultKind.LINK_BURST,
            start_s=8.0,
            end_s=30.0,
            p_good_to_bad=0.1,
            p_bad_to_good=0.2,
            loss_bad=0.95,
        )
        .add(FaultKind.BATTERY_SAG, start_s=10.0, end_s=30.0, resistance_ohm=0.06)
        .add(FaultKind.BARO_FREEZE, start_s=14.0, end_s=24.0),
        duration_s=duration_s,
        heartbeats=True,
    )


def standard_scenarios() -> Tuple[Scenario, ...]:
    """The scenario matrix the robustness benchmark flies."""
    return (
        low_battery_scenario(),
        critical_battery_scenario(),
        gps_loss_scenario(),
        link_blackout_scenario(),
        motor_degradation_scenario(),
        motor_out_scenario(),
        esc_thermal_scenario(),
        imu_glitch_scenario(),
        offload_stall_scenario(),
        combined_stress_scenario(),
    )
