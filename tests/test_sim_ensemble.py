"""Equivalence tests for the ensemble flight simulator.

The contract under test (see ``repro.sim.ensemble`` and DESIGN.md's
Performance section): an :class:`EnsembleFlightSimulator` stepping N lanes
in lockstep is **bit-for-bit** equal to N independent scalar
:class:`FlightSimulator` runs — state trajectories, telemetry samples,
sensor RNG streams, mixer counters, and (through the chaos driver) entire
campaign fingerprints including black-box crash traces.  Every assertion
here is exact equality, never ``allclose``.
"""

import inspect

import numpy as np
import pytest

from repro.autopilot.arducopter import Autopilot
from repro.autopilot.dronekit import Vehicle
from repro.chaos import (
    CampaignConfig,
    generate_campaign,
    run_campaign,
    run_campaign_supervised,
    run_trials_ensemble,
    verify_replay,
)
from repro.chaos import ensemble as chaos_ensemble
from repro.chaos.campaign import TrialSpec
from repro.chaos.runner import run_trial
from repro.core.parallel import SweepRunnerConfig
from repro.control.estimation import InsEkf
from repro.faults.scenarios import DEFAULT_MODEL
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.physics.environment import Wind
from repro.sim import ensemble as sim_ensemble
from repro.sim.ensemble import EnsembleFlightSimulator, hover_gust_monte_carlo
from repro.sim.simulator import DroneModel, FlightSimulator, FlightVehicle
from tests.equivalence import BLAS, LIBM, golden

#: Keep the raw-stepping tests at the campaign default rate — cheap, and
#: the rate campaigns fly.
RATE_HZ = CampaignConfig.physics_rate_hz

TARGETS = ([2.0, 0.0, 4.0], [0.0, -3.0, 5.0], [-1.0, 1.0, 6.0])


def _model() -> DroneModel:
    return DroneModel(**DEFAULT_MODEL)


def _wind(seed: int) -> Wind:
    return Wind(gust_speed_m_s=2.0, seed=seed)


def _assert_state_equal(state, ref) -> None:
    np.testing.assert_array_equal(state.position_m, ref.position_m)
    np.testing.assert_array_equal(state.velocity_m_s, ref.velocity_m_s)
    np.testing.assert_array_equal(state.quaternion, ref.quaternion)
    np.testing.assert_array_equal(
        state.angular_velocity_rad_s, ref.angular_velocity_rad_s
    )


def _assert_samples_equal(samples, ref_samples) -> None:
    assert len(samples) == len(ref_samples)
    for got, want in zip(samples, ref_samples):
        assert got.time_s == want.time_s
        np.testing.assert_array_equal(got.position_m, want.position_m)
        np.testing.assert_array_equal(got.velocity_m_s, want.velocity_m_s)
        np.testing.assert_array_equal(got.euler_rad, want.euler_rad)
        np.testing.assert_array_equal(got.motor_thrusts_n, want.motor_thrusts_n)
        assert got.electrical_power_w == want.electrical_power_w
        assert got.battery_voltage_v == want.battery_voltage_v
        assert got.battery_soc == want.battery_soc


def _lane_ekf(lane):
    """A scalar simulator's EKF, or a snapshot of an ensemble lane's EKF
    rows with the same attribute names."""
    if isinstance(lane, FlightSimulator):
        return lane.ekf
    rows, index = lane._ens._ekf, lane._index
    snapshot = InsEkf()
    snapshot.state = rows.state[index]
    snapshot.covariance = rows.cov[index]
    snapshot.flops = int(rows.flops[index])
    snapshot.predictions = int(rows.predictions[index])
    snapshot.corrections = int(rows.corrections[index])
    return snapshot


def _assert_ekf_equal(ekf, ref) -> None:
    np.testing.assert_array_equal(ekf.state, ref.state)
    np.testing.assert_array_equal(ekf.covariance, ref.covariance)
    assert ekf.flops == ref.flops
    assert ekf.predictions == ref.predictions
    assert ekf.corrections == ref.corrections


def _assert_lane_matches(lane, sim) -> None:
    _assert_state_equal(lane.true_state, sim.true_state)
    assert lane.state_of_charge == sim.state_of_charge
    assert lane.depleted == sim.depleted
    assert lane.ekf_resets == sim.ekf_resets
    assert lane.use_ekf is sim.use_ekf
    _assert_ekf_equal(_lane_ekf(lane), sim.ekf)
    if not sim.use_ekf:
        # A truth-state lane never runs its EKF, inside a mixed group too.
        _assert_ekf_equal(_lane_ekf(lane), InsEkf())
        assert lane.ekf_resets == 0
    assert lane.mix_counts() == sim.mix_counts()
    _assert_samples_equal(lane.samples, sim.samples)


#: One flag per lane: EKF and truth-state lanes stepping in one group.
MIXED_EKF = [False, True, False]
#: One sensor seed per lane: distinct noise streams, and the built-in ones.
SENSOR_SEEDS = [11, None, 2**31 - 2]


class TestLockstepEquivalence:
    @pytest.mark.parametrize(
        "use_ekf", [False, True, pytest.param(MIXED_EKF, id="mixed")]
    )
    def test_three_lanes_match_scalar_runs(self, use_ekf):
        """Distinct targets, per-lane gusty wind and per-lane sensor seeds,
        stepped in uneven chunks."""
        model = _model()
        ens = EnsembleFlightSimulator(
            model,
            n_lanes=3,
            physics_rate_hz=RATE_HZ,
            use_ekf=use_ekf,
            winds=[_wind(10 + i) for i in range(3)],
            sensor_seeds=SENSOR_SEEDS,
        )
        flags = use_ekf if isinstance(use_ekf, list) else [use_ekf] * 3
        scalars = [
            FlightSimulator(
                model,
                physics_rate_hz=RATE_HZ,
                use_ekf=flags[i],
                wind=_wind(10 + i),
                sensor_seed=SENSOR_SEEDS[i],
            )
            for i in range(3)
        ]
        for index, target in enumerate(TARGETS):
            ens.set_lane_target(index, target)
            scalars[index].goto(target)
        for chunk_s in (0.5, 0.75, 1.0):
            ens.run_for(chunk_s)
            for sim in scalars:
                sim.run_for(chunk_s)
        for index, sim in enumerate(scalars):
            _assert_lane_matches(ens.lane(index), sim)

    def test_gust_monte_carlo_matches_scalar_loop(self):
        """`hover_gust_monte_carlo` == one scalar flight per wind seed."""
        model = _model()
        seeds = (3, 5, 9)
        target = [0.0, 0.0, 5.0]
        errors = hover_gust_monte_carlo(
            model,
            seeds,
            gust_speed_m_s=3.0,
            duration_s=4.0,
            physics_rate_hz=RATE_HZ,
            target_m=target,
        )
        for seed, error in zip(seeds, errors):
            sim = FlightSimulator(
                model,
                physics_rate_hz=RATE_HZ,
                wind=Wind(
                    gust_speed_m_s=3.0, correlation_time_s=1.5, seed=seed
                ),
            )
            sim.goto(target)
            sim.run_for(4.0)
            assert error == sim.hover_position_error_m(
                np.asarray(target), since_s=2.0
            )


class TestFaultFacades:
    def test_sensor_and_actuator_faults_desync_and_restore(self):
        """Fault-knob writes mid-run stay bitwise equal to scalar writes.

        GPS denial and a barometer freeze make the affected EKF lanes skip
        draws the other lanes make; each lane's own generators must stay
        aligned with its scalar run through the fault and the restore.
        """
        model = _model()
        ens = EnsembleFlightSimulator(
            model,
            n_lanes=3,
            physics_rate_hz=RATE_HZ,
            use_ekf=[True, True, False],
            sensor_seeds=SENSOR_SEEDS,
        )
        scalars = [
            FlightSimulator(
                model,
                physics_rate_hz=RATE_HZ,
                use_ekf=flag,
                sensor_seed=seed,
            )
            for flag, seed in zip([True, True, False], SENSOR_SEEDS)
        ]
        for index in range(3):
            ens.set_lane_target(index, TARGETS[index])
            scalars[index].goto(TARGETS[index])
        ens.run_for(1.0)
        for sim in scalars:
            sim.run_for(1.0)

        lanes = [ens.lane(index) for index in range(3)]
        for target in (lanes[0], scalars[0]):
            target.gps_available = False
            target.set_imu_bias((0.3, -0.1, 0.05), (0.0, 0.0, 0.0))
        for target in (lanes[1], scalars[1]):
            target.set_baro_frozen(True)
            target.set_motor_health(2, 0.7)
            target.inject_drain(200.0)
            target.fault_resistance_ohm = 0.05
        ens.run_for(1.0)
        for sim in scalars:
            sim.run_for(1.0)

        for target in (lanes[0], scalars[0]):
            target.gps_available = True
            target.set_imu_bias((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        for target in (lanes[1], scalars[1]):
            target.set_baro_frozen(False)
            target.set_motor_health(2, 1.0)
        ens.run_for(1.0)
        for sim in scalars:
            sim.run_for(1.0)

        for index, sim in enumerate(scalars):
            _assert_lane_matches(lanes[index], sim)
            assert lanes[index].gps_fix_age_s() == sim.gps_fix_age_s()


class TestMaterializedCopy:
    @pytest.mark.parametrize(
        "use_ekf",
        [
            pytest.param(False, id="truth-only"),
            pytest.param(MIXED_EKF, id="mixed-ekf"),
        ],
    )
    def test_copy_and_ensemble_fly_on_bitwise(self, use_ekf):
        """A mid-flight copy of lane 1 and the whole ensemble both fly on
        bit for bit with their scalar twins: the lane's rows hold its whole
        scalar state, and the copy shares no generator, list or row with
        the lane it was copied from."""
        model = _model()
        ens = EnsembleFlightSimulator(
            model,
            n_lanes=3,
            physics_rate_hz=RATE_HZ,
            use_ekf=use_ekf,
            winds=[_wind(20 + i) for i in range(3)],
            sensor_seeds=SENSOR_SEEDS,
        )
        flags = use_ekf if isinstance(use_ekf, list) else [use_ekf] * 3
        scalars = [
            FlightSimulator(
                model,
                physics_rate_hz=RATE_HZ,
                use_ekf=flags[i],
                wind=_wind(20 + i),
                sensor_seed=SENSOR_SEEDS[i],
            )
            for i in range(3)
        ]
        for index, target in enumerate(TARGETS):
            ens.set_lane_target(index, target)
            scalars[index].goto(target)
        ens.run_for(1.5)
        for sim in scalars:
            sim.run_for(1.5)

        copy = ens.materialize_lane(1)
        assert ens.live.all()
        assert copy.use_ekf is flags[1]
        assert copy.sensor_seed == SENSOR_SEEDS[1]
        assert not np.shares_memory(copy.motor_health, ens.lane(1).motor_health)
        for chunk_s in (1.0, 0.5):
            ens.run_for(chunk_s)
            copy.run_for(chunk_s)
            for sim in scalars:
                sim.run_for(chunk_s)
        for index, sim in enumerate(scalars):
            _assert_lane_matches(ens.lane(index), sim)
        _assert_lane_matches(copy, scalars[1])

        ens.freeze_lane(1)
        with pytest.raises(RuntimeError, match="lane 1 is frozen"):
            ens.materialize_lane(1)


def _paired_flights(n_lanes: int):
    """An ensemble and its scalar twins, lanes on their own targets and
    sensor seeds, EKF and truth-state lanes mixed."""
    model = _model()
    flags = MIXED_EKF[:n_lanes]
    seeds = SENSOR_SEEDS[:n_lanes]
    ens = EnsembleFlightSimulator(
        model, n_lanes=n_lanes, physics_rate_hz=RATE_HZ, use_ekf=flags,
        sensor_seeds=seeds,
    )
    scalars = [
        FlightSimulator(
            model, physics_rate_hz=RATE_HZ, use_ekf=flag, sensor_seed=seed
        )
        for flag, seed in zip(flags, seeds)
    ]
    for index in range(n_lanes):
        ens.set_lane_target(index, TARGETS[index])
        scalars[index].goto(TARGETS[index])
    return ens, scalars


class TestRecording:
    """The ensemble records row blocks and builds samples on read; what a
    reader sees is exactly the scalar simulator's samples."""

    def test_reads_mid_flight_extend_one_list(self):
        ens, scalars = _paired_flights(3)
        for sim in [ens, *scalars]:
            sim.run_for(0.75)
        first = [ens.lane(index).samples for index in range(3)]
        for lane_samples, sim in zip(first, scalars):
            _assert_samples_equal(lane_samples, sim.samples)
        for sim in [ens, *scalars]:
            sim.run_for(0.5)
        for index, sim in enumerate(scalars):
            assert ens.lane(index).samples is first[index]
            _assert_samples_equal(first[index], sim.samples)

    def test_frozen_lane_gains_no_samples(self):
        ens, scalars = _paired_flights(2)
        for sim in [ens, *scalars]:
            sim.run_for(0.5)
        ens.freeze_lane(1)
        ens.run_for(0.5)
        scalars[0].run_for(0.5)
        _assert_samples_equal(ens.lane(1).samples, scalars[1].samples)
        _assert_samples_equal(ens.lane(0).samples, scalars[0].samples)
        assert len(ens.lane(0).samples) > len(ens.lane(1).samples)

    def test_materialized_copy_gets_the_built_samples(self):
        ens, scalars = _paired_flights(2)
        for sim in [ens, *scalars]:
            sim.run_for(0.5)
        copy = ens.materialize_lane(1)
        lane_samples = ens.lane(1).samples
        assert copy.samples is not lane_samples
        _assert_samples_equal(copy.samples, scalars[1].samples)
        _assert_samples_equal(lane_samples, scalars[1].samples)
        copy.run_for(0.5)
        assert len(lane_samples) == len(scalars[1].samples)

    def test_chaos_group_builds_no_sample(self, monkeypatch):
        """A chaos trial judges its black box, so its lane's telemetry
        stays in row blocks."""
        built = []

        class CountingEnsemble(EnsembleFlightSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def refuse(**fields):
            raise AssertionError("a chaos group built a SimSample")

        monkeypatch.setattr(
            chaos_ensemble, "EnsembleFlightSimulator", CountingEnsemble
        )
        monkeypatch.setattr(sim_ensemble, "SimSample", refuse)
        config = CampaignConfig(campaign_seed=3, trials=3, duration_s=8.0)
        results = run_trials_ensemble(generate_campaign(config), config)
        assert len(results) == 3
        [ens] = built
        assert ens._blocks
        assert ens._sample_rows == [[], [], []]


def _assert_campaign_matches_reference(config, vector):
    """Fingerprints (and crash traces) of the campaign match the scalar
    reference ``run_trial`` per spec and replay, and the vector pins them
    across commits."""
    scalar = [run_trial(spec, config) for spec in generate_campaign(config)]
    ensemble = run_campaign(config, ensemble_width=3)
    assert [r.metrics() for r in scalar] == [r.metrics() for r in ensemble]
    for ref, got in zip(scalar, ensemble):
        assert (ref.trace is None) == (got.trace is None)
        if ref.trace is not None:
            assert ref.trace.fingerprint() == got.trace.fingerprint()
    assert verify_replay(ensemble[0], config)
    golden(
        vector,
        lambda: (
            [r.metrics() for r in scalar],
            [None if r.trace is None else r.trace.fingerprint()
             for r in scalar],
        ),
        uses=(BLAS, LIBM),
    )


class TestChaosCampaignEquivalence:
    def test_engines_produce_identical_campaigns(self):
        config = CampaignConfig(
            campaign_seed=77, trials=8, duration_s=12.0, physics_rate_hz=200.0
        )
        _assert_campaign_matches_reference(config, "chaos/campaign/seed77_8_trials")

    def test_engines_produce_identical_campaigns_at_100_hz(self):
        config = CampaignConfig(
            campaign_seed=77, trials=8, duration_s=12.0, physics_rate_hz=100.0
        )
        _assert_campaign_matches_reference(
            config, "chaos/campaign/seed77_8_trials_100_hz"
        )

    def test_64_trial_campaign_replays_identically(self):
        """64 chaos trials: the campaign against the scalar reference."""
        config = CampaignConfig(campaign_seed=9, trials=64, duration_s=10.0)
        scalar = [run_trial(spec, config) for spec in generate_campaign(config)]
        ensemble = run_campaign(config)
        assert len(ensemble) == 64
        assert [r.metrics() for r in scalar] == [
            r.metrics() for r in ensemble
        ]
        for ref, got in zip(scalar, ensemble):
            if ref.trace is not None:
                assert got.trace is not None
                assert ref.trace.fingerprint() == got.trace.fingerprint()

    def test_parallel_and_supervised_paths_agree(self):
        config = CampaignConfig(campaign_seed=5, trials=6, duration_s=8.0)
        base = run_campaign(config, ensemble_width=4)
        parallel = run_campaign(
            config,
            SweepRunnerConfig(parallel=True, max_workers=2, chunk_size=1),
            ensemble_width=2,
        )
        assert [r.metrics() for r in base] == [
            r.metrics() for r in parallel
        ]
        supervised = run_campaign_supervised(config, ensemble_width=4)
        assert not supervised.quarantined
        assert [r.metrics() for r in base] == [
            r.metrics() for r in supervised.results
        ]


class TestEnsembleApi:
    def test_unknown_engine_rejected(self):
        config = CampaignConfig(trials=2, duration_s=8.0)
        with pytest.raises(ValueError, match="engine 'warp'"):
            run_campaign_supervised(config, engine="warp")

    def test_nonpositive_width_rejected(self, tmp_path):
        """Rejected by both entry points before any trial flies or any
        journal line is written."""
        config = CampaignConfig(trials=4, duration_s=8.0)
        journal = tmp_path / "journal.jsonl"
        for width in (0, -1):
            message = f"width must be positive: {width}"
            with pytest.raises(ValueError, match=message):
                run_campaign(config, ensemble_width=width)
            with pytest.raises(ValueError, match=message):
                run_campaign_supervised(
                    config, journal_path=journal, ensemble_width=width
                )
            assert not journal.exists()

    def test_lanes_report_their_own_use_ekf(self):
        ens = EnsembleFlightSimulator(
            _model(), n_lanes=3, physics_rate_hz=RATE_HZ, use_ekf=MIXED_EKF
        )
        assert [ens.lane(i).use_ekf for i in range(3)] == MIXED_EKF
        uniform = EnsembleFlightSimulator(
            _model(), n_lanes=2, physics_rate_hz=RATE_HZ, use_ekf=True
        )
        assert [uniform.lane(i).use_ekf for i in range(2)] == [True, True]

    @pytest.mark.parametrize("index", [-1, 3])
    def test_freeze_lane_rejects_an_out_of_range_index(self, index):
        ens = EnsembleFlightSimulator(_model(), n_lanes=3, physics_rate_hz=RATE_HZ)
        with pytest.raises(IndexError, match="out of range"):
            ens.freeze_lane(index)
        assert ens.live.tolist() == [True, True, True]

    def test_vehicles_implement_every_flight_vehicle_member(self):
        """``LaneHarness`` flies a ``FlightSimulator`` or a ``LaneSim``
        through the ``FlightVehicle`` protocol: both implement every member,
        every method is callable and the two fault-knob attributes are
        settable."""
        declared = {name for name in vars(FlightVehicle) if not name.startswith("_")}
        settable = set(FlightVehicle.__annotations__)
        assert declared | settable == {
            "model", "use_ekf", "time_s", "depleted", "true_state",
            "state_of_charge", "gps_fix_age_s", "mix_counts", "motor_health",
            "goto", "gps_available", "imu_bias", "set_imu_bias",
            "set_baro_frozen", "fault_resistance_ohm", "inject_drain",
            "set_motor_health",
        }
        ens = EnsembleFlightSimulator(_model(), n_lanes=1, physics_rate_hz=RATE_HZ)
        vehicles = (FlightSimulator(_model(), physics_rate_hz=RATE_HZ), ens.lane(0))
        for vehicle in vehicles:
            kind = type(vehicle).__name__
            for name in sorted(declared):
                value = getattr(vehicle, name)
                if inspect.isfunction(inspect.getattr_static(FlightVehicle, name)):
                    assert callable(value), f"{kind}.{name} is not callable"
            for name, new in (("gps_available", False), ("fault_resistance_ohm", 0.25)):
                setattr(vehicle, name, new)
                assert getattr(vehicle, name) == new, f"{kind}.{name} is not settable"

    def test_a_lane_is_stepped_and_read_only_through_the_protocol(self):
        """Stepping and the battery voltage are not protocol members: over a
        lane, ``Autopilot.update`` and the DroneKit battery read refuse with
        a ``TypeError`` instead of reaching for a scalar attribute."""
        ens = EnsembleFlightSimulator(_model(), n_lanes=1, physics_rate_hz=RATE_HZ)
        autopilot = Autopilot(ens.lane(0))
        with pytest.raises(TypeError, match="EnsembleFlightSimulator.run_for"):
            autopilot.update(0.1)
        with pytest.raises(TypeError, match="FlightSimulator"):
            Vehicle(autopilot).battery
        assert ens.time_s == 0.0

    def test_use_ekf_sequence_length_must_match_lanes(self):
        with pytest.raises(ValueError, match="use_ekf"):
            EnsembleFlightSimulator(
                _model(), n_lanes=2, physics_rate_hz=RATE_HZ, use_ekf=MIXED_EKF
            )

    def test_mixed_ekf_specs_fly_as_one_group_in_input_order(self, monkeypatch):
        """Mixed use_ekf specs share one ensemble; results match run_trial."""
        built = []

        class CountingEnsemble(EnsembleFlightSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(
            chaos_ensemble, "EnsembleFlightSimulator", CountingEnsemble
        )
        config = CampaignConfig(trials=4, duration_s=8.0)
        specs = [
            TrialSpec(
                campaign_seed=1,
                trial_index=index,
                link_seed=100 + index,
                schedule=FaultSchedule(),
                use_ekf=(index % 2 == 1),
                heartbeats=False,
                offload=False,
            )
            for index in range(4)
        ]
        results = run_trials_ensemble(specs, config)
        assert len(built) == 1
        assert built[0].ekf_lanes.tolist() == [False, True, False, True]
        assert [r.spec.trial_index for r in results] == [0, 1, 2, 3]
        assert [r.spec.use_ekf for r in results] == [False, True, False, True]
        assert [r.metrics() for r in results] == [
            run_trial(spec, config).metrics() for spec in specs
        ]

    def test_crashed_lane_is_frozen_once_and_never_stepped(self, monkeypatch):
        """A crash freezes its lane exactly once; no later step moves it."""
        freezes = []
        live_per_step = []

        class CountingEnsemble(EnsembleFlightSimulator):
            def freeze_lane(self, index):
                freezes.append(index)
                super().freeze_lane(index)

            def run_for(self, duration_s):
                live_per_step.append(self.live.copy())
                super().run_for(duration_s)

        monkeypatch.setattr(
            chaos_ensemble, "EnsembleFlightSimulator", CountingEnsemble
        )
        config = CampaignConfig(trials=3, duration_s=10.0)
        motor_out = FaultSchedule().add(
            FaultKind.MOTOR_DEGRADATION, start_s=6.5, health=0.0
        )
        specs = [
            TrialSpec(
                campaign_seed=1,
                trial_index=index,
                link_seed=100 + index,
                schedule=motor_out if index == 1 else FaultSchedule(),
                use_ekf=False,
                heartbeats=False,
                offload=False,
            )
            for index in range(3)
        ]
        results = run_trials_ensemble(specs, config)
        assert [r.verdict for r in results] == ["safe", "crash", "safe"]
        assert freezes == [1]
        frozen_from = next(
            step for step, live in enumerate(live_per_step) if not live[1]
        )
        assert frozen_from > 0
        assert not any(live[1] for live in live_per_step[frozen_from:])
        assert all(live[0] and live[2] for live in live_per_step)
        assert [r.metrics() for r in results] == [
            run_trial(spec, config).metrics() for spec in specs
        ]
