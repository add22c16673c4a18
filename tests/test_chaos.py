"""Unit tests for the chaos campaign engine's four layers.

Campaign generator (sampling + reproducibility contract), safety-invariant
monitor (catalog semantics, latching, attribution), black-box recorder
(ring bound, trace serialization), triage/aggregation, and the
``python -m repro.chaos`` CLI.  End-to-end replay determinism at campaign
scale lives in ``test_chaos_replay.py``.
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from repro.autopilot.arducopter import Autopilot, FlightMode
from repro.autopilot.offload import PoseStalenessWatchdog
from repro.chaos import (
    CHAOS_KINDS,
    CampaignConfig,
    CampaignReport,
    FlightRecorder,
    SafetyLimits,
    SafetyMonitor,
    TrialSpec,
    Violation,
    generate_campaign,
    generate_trial,
    invariant_catalog,
    percentile,
    sample_schedule,
    triage,
    trial_rng,
)
from repro.chaos.campaign import EKF_KINDS, LINK_KINDS
from repro.chaos.recorder import BlackBoxTrace, TickRecord
from repro.chaos.runner import (
    TrialResult, VERDICT_CRASH, VERDICT_SAFE, VERDICT_VIOLATION, replay_trial,
)
from repro.chaos.__main__ import build_parser, main as chaos_main
from repro.faults.envelope import DEFAULT_CRASH_ENVELOPE, CrashEnvelope
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.sim.simulator import DroneModel, FlightSimulator

CONFIG = CampaignConfig(
    campaign_seed=11,
    trials=30,
    duration_s=12.0,
    settle_s=4.0,
    min_onset_s=3.0,
)


def make_autopilot(**autopilot_kwargs) -> Autopilot:
    model = DroneModel(
        mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
        battery_capacity_mah=3000.0,
    )
    sim = FlightSimulator(model, physics_rate_hz=400.0, use_ekf=False)
    return Autopilot(sim, **autopilot_kwargs)


def make_monitor(
    schedule=None,
    limits=None,
    envelope=DEFAULT_CRASH_ENVELOPE,
    **autopilot_kwargs,
) -> SafetyMonitor:
    autopilot = make_autopilot(**autopilot_kwargs)
    return SafetyMonitor(
        autopilot,
        schedule if schedule is not None else FaultSchedule(),
        limits=limits,
        envelope=envelope,
    )


def set_roll(monitor: SafetyMonitor, roll_rad: float) -> None:
    """Tilt the vehicle by writing the quaternion (euler is derived)."""
    state = monitor.autopilot.sim.body.state
    state.quaternion[:] = [
        math.cos(roll_rad / 2.0), math.sin(roll_rad / 2.0), 0.0, 0.0,
    ]


#: Campaign 77's first eight link seeds and a digest of their schedules, as
#: generated before trials drew their own sensor seeds.
SEED77_LINK_SEEDS = [
    2079617830, 342673309, 1123152767, 334368952,
    213903275, 16809450, 287190215, 1132950998,
]
SEED77_SCHEDULES_SHA = "3953fdd4467c8639"


# -- campaign generator ---------------------------------------------------------


class TestCampaignGenerator:
    def test_trial_is_a_pure_function_of_identity(self):
        first = generate_trial(CONFIG, 5)
        second = generate_trial(CONFIG, 5)
        assert first == second
        assert first.schedule.events == second.schedule.events

    def test_distinct_trials_sample_distinct_schedules(self):
        specs = generate_campaign(CONFIG)
        assert len(specs) == CONFIG.trials
        assert len({tuple(spec.schedule.events) for spec in specs}) > 1
        assert len({spec.link_seed for spec in specs}) > 1

    def test_sampled_schedules_respect_config_bounds(self):
        latest_onset_s = CONFIG.min_onset_s + 0.75 * (
            CONFIG.duration_s - CONFIG.min_onset_s
        )
        for spec in generate_campaign(CONFIG):
            assert 1 <= len(spec.schedule) <= CONFIG.max_faults
            for event in spec.schedule.events:
                assert event.kind in CHAOS_KINDS
                assert CONFIG.min_onset_s <= event.start_s <= latest_onset_s
                assert event.end_s > event.start_s

    def test_severity_params_sampled_within_ranges(self):
        rng = trial_rng(3, 0)
        for _ in range(50):
            schedule = sample_schedule(CONFIG, rng)
            for event in schedule.events:
                params = event.param_dict
                if event.kind is FaultKind.BATTERY_DRAIN:
                    assert 0.30 <= params["fraction"] <= 0.85
                elif event.kind is FaultKind.MOTOR_DEGRADATION:
                    assert params["motor_index"] in (0.0, 1.0, 2.0, 3.0)
                    assert 0.35 <= params["health"] <= 0.90
                elif event.kind is FaultKind.ESC_THERMAL:
                    assert 95.0 <= params["temperature_c"] <= 125.0

    def test_harness_flags_follow_sampled_kinds(self):
        for spec in generate_campaign(CONFIG):
            kinds = {event.kind for event in spec.schedule.events}
            assert spec.use_ekf == bool(kinds & set(EKF_KINDS))
            assert spec.heartbeats == bool(kinds & set(LINK_KINDS))
            assert spec.offload == (FaultKind.OFFLOAD_STALL in kinds)

    def test_sensor_seed_drawn_last_keeps_schedules_and_link_seeds(self):
        config = CampaignConfig(campaign_seed=77, trials=8)
        specs = generate_campaign(config)
        assert [spec.link_seed for spec in specs] == SEED77_LINK_SEEDS
        schedules = json.dumps([spec.schedule.to_jsonable() for spec in specs])
        digest = hashlib.sha256(schedules.encode()).hexdigest()[:16]
        assert digest == SEED77_SCHEDULES_SHA
        for spec in specs:
            rng = trial_rng(77, spec.trial_index)
            assert sample_schedule(config, rng).events == spec.schedule.events
            assert int(rng.integers(0, 2**31 - 1)) == spec.link_seed
            assert int(rng.integers(0, 2**31 - 1)) == spec.sensor_seed
        assert len({spec.sensor_seed for spec in specs}) == len(specs)

    def test_trials_read_their_own_sensor_noise(self):
        config = CampaignConfig(campaign_seed=77, trials=8)
        first, second = generate_campaign(config)[:2]
        accels = []
        for spec in (first, second):
            sim = FlightSimulator(
                DroneModel(mass_kg=1.071, wheelbase_mm=450.0, battery_cells=3,
                           battery_capacity_mah=3000.0),
                physics_rate_hz=200.0,
                sensor_seed=spec.sensor_seed,
            )
            readings = sim.sensors.poll(sim.body.state, 0.005)
            assert readings.imu_fired
            accels.append(readings.accel_body_m_s2)
        assert first.sensor_seed != second.sensor_seed
        assert not np.array_equal(accels[0], accels[1])

    def test_spec_dict_requires_sensor_seed(self):
        data = generate_trial(CONFIG, 2).to_dict()
        assert isinstance(data["sensor_seed"], int)
        del data["sensor_seed"]
        with pytest.raises(KeyError):
            TrialSpec.from_dict(data)

    def test_trial_index_outside_campaign_rejected(self):
        with pytest.raises(ValueError):
            generate_trial(CONFIG, -1)
        with pytest.raises(ValueError):
            generate_trial(CONFIG, CONFIG.trials)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(duration_s=5.0, settle_s=5.0)
        with pytest.raises(ValueError):
            CampaignConfig(open_window_probability=1.5)
        with pytest.raises(ValueError):
            CampaignConfig(max_faults=0)
        with pytest.raises(ValueError, match="below the simulator's 100 Hz"):
            CampaignConfig(physics_rate_hz=50.0)

    def test_spec_serialization_roundtrip(self):
        spec = generate_trial(CONFIG, 2)
        restored = TrialSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_config_serialization_roundtrip(self):
        config = CampaignConfig(
            campaign_seed=4, duration_s=12.5, physics_rate_hz=200.0,
            limits=SafetyLimits(fence_half_extent_m=9.0),
            envelope=CrashEnvelope(hard_landing_speed_m_s=2.5),
        )
        data = json.loads(json.dumps(config.to_dict()))
        assert CampaignConfig.from_dict(data) == config

    def test_spec_roundtrip_preserves_open_ended_window(self):
        schedule = FaultSchedule().add(FaultKind.LINK_BLACKOUT, start_s=4.0)
        spec = TrialSpec(
            campaign_seed=1, trial_index=0, link_seed=9, schedule=schedule,
            use_ekf=False, heartbeats=True, offload=False,
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert data["sensor_seed"] is None
        restored = TrialSpec.from_dict(data)
        assert restored.schedule.events[0].end_s == math.inf
        assert restored == spec


# -- safety monitor -------------------------------------------------------------


class TestSafetyMonitor:
    def test_catalog_has_terminal_and_contract_invariants(self):
        catalog = invariant_catalog()
        names = {invariant.name for invariant in catalog}
        assert {
            "crash.tilt", "crash.ground-impact", "crash.hard-landing",
            "crash.battery-depleted", "geofence-box", "altitude-floor",
            "battery-reserve", "reaction-slo", "pose-staleness",
        } <= names
        assert all(
            invariant.terminal == invariant.name.startswith("crash.")
            for invariant in catalog
        )

    def test_nominal_state_raises_nothing(self):
        monitor = make_monitor()
        assert monitor.check(0.0) is None
        assert monitor.violations == []
        assert not monitor.crashed

    def test_tilt_violation_is_terminal(self):
        monitor = make_monitor()
        set_roll(monitor, math.radians(80.0))
        violation = monitor.check(1.0)
        assert violation is not None
        assert violation.invariant == "crash.tilt"
        assert violation.is_crash
        assert monitor.crashed
        assert monitor.crash_violation == violation

    @pytest.mark.parametrize(
        "altitude_m, climb_m_s, roll_deg, depleted, envelope, expected",
        [
            pytest.param(
                4.0, 0.0, 0.0, False, DEFAULT_CRASH_ENVELOPE, None,
                id="nominal-hover",
            ),
            pytest.param(
                4.0, 0.0, 80.0, False, DEFAULT_CRASH_ENVELOPE, "crash.tilt",
                id="tilt-beyond-limit",
            ),
            pytest.param(
                -0.5, 0.0, 0.0, False, DEFAULT_CRASH_ENVELOPE,
                "crash.ground-impact",
                id="ground-impact",
            ),
            pytest.param(
                0.1, -4.0, 0.0, False, DEFAULT_CRASH_ENVELOPE,
                "crash.hard-landing",
                id="hard-landing",
            ),
            # a hard landing needs both speed and ground proximity
            pytest.param(
                2.0, -4.0, 0.0, False, DEFAULT_CRASH_ENVELOPE, None,
                id="fast-descent-aloft",
            ),
            pytest.param(
                0.1, -1.0, 0.0, False, DEFAULT_CRASH_ENVELOPE, None,
                id="gentle-touchdown",
            ),
            pytest.param(
                3.0, 0.0, 0.0, True, DEFAULT_CRASH_ENVELOPE,
                "crash.battery-depleted",
                id="depleted-airborne",
            ),
            # a dead pack on the ground is a landing, not a crash
            pytest.param(
                0.0, 0.0, 0.0, True, DEFAULT_CRASH_ENVELOPE, None,
                id="depleted-on-ground",
            ),
            pytest.param(
                4.0, 0.0, 50.0, False, DEFAULT_CRASH_ENVELOPE, None,
                id="default-envelope-tolerates-50-deg",
            ),
            pytest.param(
                4.0, 0.0, 50.0, False,
                CrashEnvelope(tilt_limit_rad=math.radians(40.0)), "crash.tilt",
                id="tight-envelope",
            ),
        ],
    )
    def test_crash_invariants(
        self, altitude_m, climb_m_s, roll_deg, depleted, envelope, expected
    ):
        """The four ``crash.*`` invariants: the one definition of a lost
        vehicle, for campaign trials and canned scenarios alike."""
        monitor = make_monitor(envelope=envelope)
        sim = monitor.autopilot.sim
        sim.body.state.position_m[2] = altitude_m
        sim.body.state.velocity_m_s[2] = climb_m_s
        set_roll(monitor, math.radians(roll_deg))
        sim.depleted = depleted
        monitor.check(1.0)
        assert monitor.crashed == (expected is not None)
        crash = monitor.crash_violation
        assert (None if crash is None else crash.invariant) == expected

    def test_geofence_box_violation_is_contractual(self):
        monitor = make_monitor()
        monitor.autopilot.sim.body.state.position_m[0] = (
            monitor.autopilot.home_m[0] + 30.0
        )
        violation = monitor.check(2.0)
        assert violation is not None
        assert violation.invariant == "geofence-box"
        assert not violation.is_crash
        assert not monitor.crashed

    def test_altitude_floor_arms_only_after_takeoff(self):
        monitor = make_monitor()
        monitor.autopilot.mode = FlightMode.AUTO
        # still on the ground: low altitude is not a violation
        assert monitor.check(0.0) is None
        # climb above the arming altitude...
        monitor.autopilot.sim.body.state.position_m[2] = 2.0
        assert monitor.check(1.0) is None
        assert monitor.airborne
        # ...then sinking below the floor while navigating is one
        monitor.autopilot.sim.body.state.position_m[2] = 0.3
        violation = monitor.check(2.0)
        assert violation is not None
        assert violation.invariant == "altitude-floor"

    def test_altitude_floor_tolerates_landing_modes(self):
        monitor = make_monitor()
        monitor.autopilot.sim.body.state.position_m[2] = 2.0
        assert monitor.check(0.0) is None
        monitor.autopilot.mode = FlightMode.LAND
        monitor.autopilot.sim.body.state.position_m[2] = 0.3
        assert monitor.check(1.0) is None

    def test_battery_reserve_violation(self):
        monitor = make_monitor()
        monitor.autopilot.sim.body.state.position_m[2] = 2.0
        assert monitor.check(0.0) is None
        battery = monitor.autopilot.sim.battery
        battery.used_mah = 0.97 * battery.capacity_mah
        violation = monitor.check(1.0)
        assert violation is not None
        assert violation.invariant == "battery-reserve"

    def test_each_invariant_charged_once(self):
        monitor = make_monitor()
        set_roll(monitor, math.radians(80.0))
        assert monitor.check(1.0) is not None
        assert monitor.check(1.1) is None
        assert len(monitor.violations) == 1
        assert monitor.first_violation.time_s == 1.0

    def test_violation_attributes_active_faults_and_failsafe(self):
        schedule = FaultSchedule().add(
            FaultKind.MOTOR_DEGRADATION, start_s=0.5, end_s=5.0, health=0.5
        )
        monitor = make_monitor(schedule=schedule)
        set_roll(monitor, math.radians(80.0))
        violation = monitor.check(1.0)
        assert violation.active_faults == ("motor_degradation",)
        assert violation.failsafe == "NOMINAL"
        assert monitor.active_fault_names() == ("motor_degradation",)

    def test_pose_staleness_violation(self):
        watchdog = PoseStalenessWatchdog()
        monitor = make_monitor()
        monitor.autopilot.pose_watchdog = watchdog
        watchdog.note_pose(0.0)
        assert monitor.check(1.0) is None
        violation = monitor.check(5.0)
        assert violation is not None
        assert violation.invariant == "pose-staleness"

    def test_reaction_slo_judges_late_reactions_only(self):
        schedule = FaultSchedule().add(
            FaultKind.GPS_LOSS, start_s=1.0, end_s=20.0
        )
        monitor = make_monitor(schedule=schedule)
        # silence is not a violation: the ladder may have nothing to say
        assert monitor.check(9.0) is None
        monitor.autopilot.events.append((8.0, "FAILSAFE: RTL"))
        violation = monitor.check(9.1)
        assert violation is not None
        assert violation.invariant == "reaction-slo"
        assert monitor.reaction_latency_s() == pytest.approx(7.0)

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            SafetyLimits(altitude_arm_m=0.4, altitude_floor_m=0.5)
        with pytest.raises(ValueError):
            SafetyLimits(battery_reserve_soc=1.5)
        with pytest.raises(ValueError):
            SafetyLimits(reaction_slo_s=0.0)


# -- black-box recorder ---------------------------------------------------------


class TestFlightRecorder:
    def test_ring_buffer_bounds_memory(self):
        autopilot = make_autopilot()
        recorder = FlightRecorder(maxlen=5)
        for index in range(12):
            autopilot.sim.body.state.position_m[2] = float(index)
            recorder.record(autopilot, active_faults=("gps_loss",))
        assert len(recorder.ticks) == 5
        assert recorder.total_ticks == 12
        assert recorder.dropped_ticks == 7
        # the buffer keeps the *newest* ticks
        assert [tick.position_m[2] for tick in recorder.ticks] == [
            7.0, 8.0, 9.0, 10.0, 11.0,
        ]
        assert recorder.ticks[-1].active_faults == ("gps_loss",)

    def test_maxlen_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(maxlen=0)

    def test_trace_json_roundtrip(self):
        autopilot = make_autopilot()
        recorder = FlightRecorder(maxlen=8)
        for _ in range(3):
            recorder.record(autopilot)
        schedule = FaultSchedule().add(FaultKind.LINK_BLACKOUT, start_s=2.0)
        spec = TrialSpec(
            campaign_seed=7, trial_index=3, link_seed=42, schedule=schedule,
            use_ekf=False, heartbeats=True, offload=False, sensor_seed=1234,
        )
        config = CampaignConfig(
            campaign_seed=7, duration_s=12.0, physics_rate_hz=200.0,
            mission_half_extent_m=3.5,
            limits=SafetyLimits(fence_half_extent_m=9.0),
        )
        trace = BlackBoxTrace(
            spec=spec,
            config=config,
            verdict=VERDICT_VIOLATION,
            violation=Violation(
                invariant="geofence-box", time_s=4.5, detail="excursion",
                active_faults=("link_blackout",), failsafe="DEGRADED",
                mode="AUTO",
            ),
            events=((4.0, "DEGRADED: link quality"),),
            ticks=list(recorder.ticks),
            dropped_ticks=0,
        )
        restored = BlackBoxTrace.from_json(trace.to_json(indent=2))
        assert restored.fingerprint() == trace.fingerprint()
        assert restored.spec == spec
        assert restored.config == config
        assert restored.spec.schedule.events[0].end_s == math.inf
        assert isinstance(restored.ticks[0], TickRecord)

    def test_unknown_trace_format_rejected(self):
        data = _trace_dict()
        data["format"] = 99
        with pytest.raises(ValueError, match="format 99: expected 4"):
            BlackBoxTrace.from_dict(data)

    @pytest.mark.parametrize(
        "field, flown",
        [
            ("physics_rate_hz", 200.0),
            ("duration_s", 20.0),
            ("settle_s", 4.0),
            ("control_step_s", 0.05),
            ("mission_half_extent_m", 3.5),
            ("takeoff_altitude_m", 6.0),
            ("recorder_maxlen", 50),
            ("limits", SafetyLimits(fence_half_extent_m=9.0)),
            ("envelope", CrashEnvelope(hard_landing_speed_m_s=2.5)),
        ],
    )
    def test_replay_refuses_a_config_the_trace_was_not_flown_with(
        self, field, flown
    ):
        """Replaying a trace under another config would fly another flight
        or judge it by other rules: the error names the field, before
        anything flies."""
        trace = BlackBoxTrace.from_dict(_trace(**{field: flown}).to_dict())
        with pytest.raises(ValueError, match=re.escape(f"{field}={flown!r}")):
            replay_trial(trace, CampaignConfig())

    def test_trace_below_the_physics_floor_fails_to_load(self):
        data = _trace_dict()
        data["config"]["physics_rate_hz"] = 50.0
        with pytest.raises(ValueError, match="below the simulator's 100 Hz"):
            BlackBoxTrace.from_dict(data)

    @pytest.mark.parametrize("found", [1, 2, 3, None])
    def test_old_or_missing_trace_format_rejected(self, found):
        """Format 1 carried no sensor seed, format 2 no replay config and
        format 3 only four config fields, and a trace with no ``format``
        key is not taken for current: all name found and expected."""
        data = _trace_dict()
        del data["spec"]
        del data["config"]
        if found is None:
            del data["format"]
        else:
            data["format"] = found
        with pytest.raises(ValueError, match=rf"format {found}: expected 4"):
            BlackBoxTrace.from_dict(data)


def _trace(**config) -> BlackBoxTrace:
    """A crash trace flown at ``CampaignConfig`` defaults, except for the
    fields in ``config``."""
    spec = TrialSpec(
        campaign_seed=1, trial_index=0, link_seed=0, schedule=FaultSchedule(),
        use_ekf=False, heartbeats=False, offload=False,
    )
    return BlackBoxTrace(
        spec=spec, config=CampaignConfig(**config), verdict=VERDICT_CRASH
    )


def _trace_dict() -> dict:
    return _trace().to_dict()


# -- triage ---------------------------------------------------------------------


def make_result(
    index: int,
    verdict: str = VERDICT_SAFE,
    invariant: str = "geofence-box",
    active=("gps_loss",),
    failsafe: str = "NOMINAL",
    completion: float = 1.0,
    recovery_s=None,
) -> TrialResult:
    spec = TrialSpec(
        campaign_seed=5, trial_index=index, link_seed=0,
        schedule=FaultSchedule(), use_ekf=False, heartbeats=False,
        offload=False,
    )
    violation = None
    if verdict != VERDICT_SAFE:
        violation = Violation(
            invariant=invariant, time_s=6.0, detail="synthetic",
            active_faults=tuple(active), failsafe=failsafe, mode="AUTO",
        )
    return TrialResult(
        spec=spec, verdict=verdict, violation=violation,
        final_failsafe=failsafe, final_mode="AUTO",
        mission_completion=completion, recovery_time_s=recovery_s,
        min_soc=0.5, landed=False, fault_kinds=("gps_loss",),
        violation_count=0 if violation is None else 1, trace=None,
    )


class TestTriage:
    def test_percentile_interpolates_deterministically(self):
        assert percentile([4.0], 0.9) == 4.0
        assert percentile([0.0, 10.0], 0.5) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_buckets_keyed_by_failure_triple_and_sorted(self):
        results = [
            make_result(0),
            make_result(1, VERDICT_VIOLATION, "geofence-box"),
            make_result(2, VERDICT_VIOLATION, "geofence-box"),
            make_result(3, VERDICT_CRASH, "crash.tilt", failsafe="FAILSAFE_RTL"),
            make_result(4, VERDICT_VIOLATION, "geofence-box", active=()),
        ]
        report = triage(results)
        assert (report.safe, report.violations, report.crashes) == (1, 3, 1)
        assert report.survival_rate == pytest.approx(0.8)
        assert report.clean_rate == pytest.approx(0.2)
        assert report.buckets[0].count == 2
        assert report.buckets[0].invariant == "geofence-box"
        assert report.buckets[0].trial_indices == (1, 2)
        # same invariant, different active-fault context: a separate bucket
        keys = {bucket.key for bucket in report.buckets}
        assert len(keys) == len(report.buckets) == 3
        assert dict(report.invariant_counts)["geofence-box"] == 3

    def test_mttr_and_completion_statistics(self):
        results = [
            make_result(0, completion=1.0, recovery_s=1.0),
            make_result(1, completion=0.5, recovery_s=3.0),
            make_result(2, completion=0.0),
        ]
        report = triage(results)
        assert report.mttr_p50_s == pytest.approx(2.0)
        assert report.completion_mean == pytest.approx(0.5)
        assert report.completion_min == 0.0
        parsed = json.loads(report.to_json())
        assert parsed["trials"] == 3
        assert parsed["mttr_p50_s"] == pytest.approx(2.0)

    def test_mttr_none_without_reactions(self):
        report = triage([make_result(0), make_result(1)])
        assert report.mttr_p50_s is None
        assert report.buckets == ()
        with pytest.raises(ValueError):
            triage([])

    def test_report_roundtrips_through_json(self):
        report = triage([make_result(0, VERDICT_VIOLATION)])
        parsed = json.loads(report.to_json(indent=None))
        assert parsed["buckets"][0]["invariant"] == "geofence-box"
        assert isinstance(report, CampaignReport)


# -- CLI ------------------------------------------------------------------------


class TestChaosCli:
    def test_smoke_campaign_with_artifacts(self, tmp_path, capsys):
        output_dir = tmp_path / "chaos-out"
        code = chaos_main([
            "--seed", "3", "--trials", "3", "--duration", "6.5",
            "--inline", "--output", str(output_dir), "--replay-failures",
        ])
        assert code == 0
        report = json.loads((output_dir / "campaign.json").read_text())
        assert report["trials"] == 3
        assert CampaignConfig.from_dict(report["config"]) == CampaignConfig(
            campaign_seed=3, trials=3, duration_s=6.5
        )
        traces = sorted((output_dir / "traces").glob("trial_*.json")) if (
            output_dir / "traces"
        ).exists() else []
        assert len(traces) == report["violations"] + report["crashes"]
        stdout = capsys.readouterr().out
        assert "chaos campaign seed=3 trials=3" in stdout

    def test_quarantine_report_names_the_trials_of_a_group(
        self, tmp_path, capsys, monkeypatch
    ):
        """A quarantined ensemble group is reported by the trials it held."""
        from repro.chaos import ensemble as chaos_ensemble

        real = chaos_ensemble.run_trials_ensemble

        def poisoned(specs, config):
            if any(spec.trial_index == 0 for spec in specs):
                raise RuntimeError("poisoned group")
            return real(specs, config)

        monkeypatch.setattr(chaos_ensemble, "run_trials_ensemble", poisoned)
        code = chaos_main([
            "--trials", "20", "--duration", "8", "--inline",
            "--checkpoint", str(tmp_path / "journal.jsonl"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "QUARANTINED ensemble group 0: RuntimeError" in captured.err
        assert f"QUARANTINED trials (not judged): {list(range(16))}" in (
            captured.err
        )
        assert "trials=4" in captured.out

    def test_campaign_defaults_come_from_the_config(self):
        """The CLI keeps no second copy of the campaign defaults."""
        args = build_parser().parse_args([])
        defaults = CampaignConfig()
        assert args.physics_rate == defaults.physics_rate_hz
        assert (args.seed, args.trials, args.duration, args.max_faults) == (
            defaults.campaign_seed,
            defaults.trials,
            defaults.duration_s,
            defaults.max_faults,
        )

    def test_resume_with_other_options_is_a_usage_error(self, tmp_path, capsys):
        """A journal written at another physics rate is not resumed."""
        journal = str(tmp_path / "journal.jsonl")
        common = ["--trials", "1", "--duration", "6.5", "--inline",
                  "--checkpoint", journal]
        assert chaos_main(common + ["--physics-rate", "200"]) == 0
        assert chaos_main(common + ["--resume"]) == 2
        assert "belongs to a different run" in capsys.readouterr().err

    def test_resume_of_a_journal_of_another_trace_format_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.chaos import runner

        common = ["--trials", "1", "--duration", "6.5", "--inline",
                  "--checkpoint", str(tmp_path / "journal.jsonl")]
        monkeypatch.setattr(runner, "TRACE_FORMAT", runner.TRACE_FORMAT - 1)
        assert chaos_main(common) == 0
        monkeypatch.undo()
        assert chaos_main(common + ["--resume"]) == 2
        assert "belongs to a different run" in capsys.readouterr().err

    def test_invalid_config_is_a_usage_error(self, capsys):
        assert chaos_main(["--trials", "0"]) == 2
        assert chaos_main(["--duration", "3.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_physics_rate_below_the_floor_is_a_usage_error(
        self, tmp_path, capsys
    ):
        """Refused before anything flies, so no journal is left behind to
        block the corrected rerun."""
        journal = tmp_path / "journal.jsonl"
        assert chaos_main([
            "--physics-rate", "50", "--trials", "1", "--duration", "6",
            "--inline", "--checkpoint", str(journal),
        ]) == 2
        assert "below the simulator's 100 Hz floor" in capsys.readouterr().err
        assert not journal.exists()
