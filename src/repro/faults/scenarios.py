"""Canned fault scenarios, each flown as one chaos trial.

Each scenario flies the same square mission through a different corner of
the reliability envelope (GPS outage, link blackout, battery faults, motor
degradation, offload-node stalls) and reports survival, recovery time, and
mission-completion degradation.  :func:`run_scenario` flies it through the
chaos harness (:class:`~repro.chaos.runner.LaneHarness` and
:func:`~repro.chaos.runner.fly`), so a scenario is judged by the same
:class:`~repro.chaos.invariants.SafetyMonitor` as every campaign trial.
Runs are deterministic: the same scenario and seed reproduce the same
metrics bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.chaos.campaign import CampaignConfig, TrialSpec
from repro.chaos.runner import DEFAULT_MODEL, LaneHarness, fly
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.sim.simulator import DroneModel, FlightSimulator

#: The scenario flight: 400 Hz physics, 40 s with a 6 s takeoff settle, and
#: an 8 m square at 4 m (~25 s of flying, so mid-mission faults abort real
#: work).
SCENARIO_CONFIG = CampaignConfig(
    duration_s=40.0,
    physics_rate_hz=400.0,
    control_step_s=0.1,
    takeoff_altitude_m=4.0,
    settle_s=6.0,
    mission_half_extent_m=8.0,
)


@dataclass(frozen=True)
class Scenario:
    """One fault schedule flown over the shared mission."""

    name: str
    schedule_factory: Callable[[], FaultSchedule]
    #: EKF-in-the-loop flight (required for GPS/IMU fault scenarios).
    use_ekf: bool = False
    #: Attach a pose-staleness watchdog fed by a synthetic offload stream.
    offload: bool = False
    #: GCS heartbeats flowing (arms the autopilot's link-loss watchdog).
    heartbeats: bool = False


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome metrics of one scenario run."""

    scenario: str
    survived: bool
    #: Name of the ``crash.*`` invariant that ended the flight; None if it
    #: survived.
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


def run_scenario(scenario: Scenario, seed: int = 7) -> ScenarioResult:
    """Fly one scenario to completion (or loss) and measure the outcome."""
    spec = TrialSpec(
        campaign_seed=SCENARIO_CONFIG.campaign_seed,
        trial_index=0,
        link_seed=seed,
        schedule=scenario.schedule_factory(),
        use_ekf=scenario.use_ekf,
        heartbeats=scenario.heartbeats,
        offload=scenario.offload,
    )
    sim = FlightSimulator(
        DroneModel(**DEFAULT_MODEL),
        physics_rate_hz=SCENARIO_CONFIG.physics_rate_hz,
        use_ekf=spec.use_ekf,
    )
    harness = LaneHarness(spec, SCENARIO_CONFIG, sim)
    [trial] = fly([harness], sim.run_for, SCENARIO_CONFIG)
    crash = harness.monitor.crash_violation
    return ScenarioResult(
        scenario=scenario.name,
        survived=crash is None,
        crash_reason=None if crash is None else crash.invariant,
        final_failsafe=trial.final_failsafe,
        final_mode=trial.final_mode,
        mission_completion=trial.mission_completion,
        recovery_time_s=trial.recovery_time_s,
        min_soc=trial.min_soc,
        landed=trial.landed,
        events=tuple(harness.autopilot.events),
    )


# -- canned scenarios -------------------------------------------------------------


def low_battery_scenario() -> Scenario:
    """A cell goes bad mid-mission: SoC drops below the low threshold and the
    autopilot must abort to FAILSAFE_RTL."""
    return Scenario(
        name="low-battery",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.BATTERY_DRAIN, start_s=14.5, end_s=15.0, fraction=0.76
        ),
    )


def critical_battery_scenario() -> Scenario:
    """Worse capacity loss: SoC lands below critical -> FAILSAFE_LAND."""
    return Scenario(
        name="critical-battery",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.BATTERY_DRAIN, start_s=12.0, end_s=12.5, fraction=0.83
        ),
    )


def gps_loss_scenario() -> Scenario:
    """GPS denied for 14 s: dead-reckon (DEGRADED), then FAILSAFE_LAND once
    drift is unbounded."""
    return Scenario(
        name="gps-loss",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.GPS_LOSS, start_s=12.0, end_s=26.0
        ),
        use_ekf=True,
    )


def link_blackout_scenario() -> Scenario:
    """Total uplink outage: heartbeats stop, the link-loss watchdog fires
    FAILSAFE_RTL after the timeout."""
    return Scenario(
        name="link-blackout",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.LINK_BLACKOUT, start_s=10.0, end_s=26.0
        ),
        heartbeats=True,
    )


def motor_degradation_scenario() -> Scenario:
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
    )


def motor_out_scenario() -> Scenario:
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
    )


def esc_thermal_scenario() -> Scenario:
    """All four ESCs in thermal protection at 105 degC for 20 s: uniform
    derating leaves hover margin but clips maneuvering authority."""
    return Scenario(
        name="esc-thermal",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.ESC_THERMAL, start_s=8.0, end_s=28.0, temperature_c=105.0
        ),
    )


def imu_glitch_scenario() -> Scenario:
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
        use_ekf=True,
    )


def offload_stall_scenario() -> Scenario:
    """The off-board SLAM node stalls for 6 s: the staleness watchdog must
    fall back to onboard SLAM (DEGRADED) and recover when poses resume."""
    return Scenario(
        name="offload-stall",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.OFFLOAD_STALL, start_s=10.0, end_s=16.0
        ),
        offload=True,
    )


def combined_stress_scenario() -> Scenario:
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
