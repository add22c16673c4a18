#!/usr/bin/env python
"""Performance benchmark runner: grid evaluation, simulator, SLAM, platform.

Times the hot paths of the repository and writes/compares baselines:

* ``BENCH_sweep.json`` — the Figure 10 design-space grid (3 wheelbases x
  3 cell counts x 29 capacities = 261 points) evaluated by the scalar
  oracle (one ``DroneDesign.evaluate()`` per point) and by the vectorized
  engine (one ``evaluate_batch`` call).
* ``BENCH_sim.json`` — a 30 s closed-loop simulator run of the paper's
  test drone, and a 10-frame SLAM pipeline step.
* ``BENCH_slam.json`` — global bundle adjustment on a converged MH01 map
  (the Figure 17 backend workload), scalar oracle (:mod:`repro.oracles`)
  vs the vectorized einsum/``np.add.at`` kernels.
* ``BENCH_platform.json`` — the Figure 15 autopilot+SLAM co-run trace
  through the microarchitecture simulator, per-access oracle
  (:mod:`repro.oracles`) vs the batch trace engine.
* ``BENCH_ensemble.json`` (``--suite ensemble`` only) — a 64-trial
  fault-free chaos campaign (30 s at 500 Hz), serial ``run_trial`` loop
  vs the vectorized :func:`repro.chaos.ensemble.run_trials_ensemble`
  group, with cross-engine fingerprint, ``verify_replay``, and
  steady-state allocation-budget checks.

Each scalar-vs-batch pair records its speedup; the grid speedup is gated
by ``--min-speedup``, the SLAM/platform kernel speedups by
``--min-kernel-speedup``, and the campaign speedup by
``--min-ensemble-speedup``.  Every baseline written is also mirrored to
the repository root.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py               # write baselines here
    PYTHONPATH=src python benchmarks/perf/run_perf.py --suite slam
    PYTHONPATH=src python benchmarks/perf/run_perf.py --compare benchmarks/perf

``--compare DIR`` exits non-zero when any workload's median regresses more
than ``--tolerance`` (default 25%) against the baselines found in DIR.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np

from harness import (
    DEFAULT_TOLERANCE,
    TimingResult,
    compare_to_baseline,
    count_array_constructions,
    load_baseline,
    time_callable,
    write_baseline,
)

from repro import oracles
from repro.chaos.campaign import CampaignConfig, TrialSpec
from repro.chaos.ensemble import run_trials_ensemble
from repro.chaos.runner import TrialResult, run_trial, verify_replay
from repro.core.batch import evaluate_batch
from repro.core.design import DroneDesign
from repro.core.equations import InfeasibleDesignError
from repro.core.explorer import (
    CAPACITY_SWEEP_MAH,
    FIG10_CELL_COUNTS,
    FIG10_WHEELBASES_MM,
)
from repro.faults.scenarios import DEFAULT_MODEL
from repro.faults.schedule import FaultSchedule
from repro.platforms.cpu import InOrderCore
from repro.platforms.workload import autopilot_trace, interleave, slam_trace
from repro.sim.ensemble import EnsembleFlightSimulator
from repro.sim.simulator import DroneModel, FlightSimulator
from repro.slam.bundle_adjustment import global_bundle_adjust
from repro.slam.dataset import all_sequence_names, cached_sequence
from repro.slam.pipeline import SlamPipeline, run_slam

#: Simulated duration of the simulator workload (seconds of flight).
SIM_DURATION_S = 30.0

#: Frames for the SLAM pipeline step — enough to exercise every stage
#: (tracking, triangulation, local BA) without CI-hostile runtimes.
SLAM_FRAMES = 10

#: Frames fed to the pipeline before timing bundle adjustment — enough
#: for several keyframes and a hundred-odd map points (Figure 17's MH01
#: backend load).
BA_MAP_FRAMES = 60

#: The Figure 15 co-run: a control-rate autopilot burst preempting a long
#: SLAM grind on the same core, 2.2M instructions total.
CORUN_AUTOPILOT_INSTR = 200_000
CORUN_SLAM_INSTR = 2_000_000
CORUN_QUANTUM_AUTOPILOT = 1_500
CORUN_QUANTUM_SLAM = 16_000

#: The ensemble campaign benchmark: a fault-free 64-trial chaos campaign at
#: the simulator's top physics rate, serial scalar loop vs one vectorized
#: ensemble group.  Fault-free isolates the physics-stepping speedup — no
#: trial defects mid-flight, so the ensemble carries all 64 lanes end to end.
ENSEMBLE_TRIALS = 64
ENSEMBLE_DURATION_S = 30.0
ENSEMBLE_PHYSICS_RATE_HZ = 500.0
#: Ensemble trials replayed through the scalar engine by ``verify_replay``
#: (each replay re-flies a full 30 s trial, so sample rather than sweep).
ENSEMBLE_REPLAY_SAMPLES = 2

#: Steady-state construction budgets (Python-level NumPy constructions per
#: physics step, see ``harness.count_array_constructions``).  Measured: the
#: scalar step constructs ~2.7 arrays/step and a 16-lane ensemble ~8.7 —
#: per-tick scratch is preallocated, so the budgets are fixed ceilings,
#: not per-lane ones.
SCALAR_STEP_CONSTRUCTION_BUDGET = 6.0
ENSEMBLE_STEP_CONSTRUCTION_BUDGET = 12.0
ALLOC_CHECK_LANES = 16

SUITES = ("sweep", "sim", "slam", "platform")


def _fig10_grid_arrays():
    cells = np.repeat(
        np.asarray(FIG10_CELL_COUNTS, dtype=np.int64), len(CAPACITY_SWEEP_MAH)
    )
    capacities = np.tile(
        np.asarray(CAPACITY_SWEEP_MAH, dtype=float), len(FIG10_CELL_COUNTS)
    )
    wheelbases = np.concatenate(
        [np.full(cells.size, wb) for wb in FIG10_WHEELBASES_MM]
    )
    return wheelbases, np.tile(cells, 3), np.tile(capacities, 3)


def sweep_workloads(runs: int, warmup: int) -> List[TimingResult]:
    """Scalar-oracle vs batched-engine evaluation of the Figure 10 grid."""
    wheelbases, cells, capacities = _fig10_grid_arrays()

    def scalar_grid() -> None:
        for wb, cell_count, capacity in zip(wheelbases, cells, capacities):
            try:
                DroneDesign(
                    wheelbase_mm=float(wb),
                    battery_cells=int(cell_count),
                    battery_capacity_mah=float(capacity),
                ).evaluate()
            except InfeasibleDesignError:
                pass

    def batch_grid() -> None:
        evaluate_batch(wheelbases, cells, capacities)

    return [
        time_callable("scalar_grid_eval", scalar_grid, warmup=warmup, runs=runs),
        time_callable("batch_grid_eval", batch_grid, warmup=warmup, runs=runs),
    ]


def sim_workload(runs: int, warmup: int) -> TimingResult:
    """A 30 s closed-loop hover flight of the paper's test drone."""
    model = DroneModel(
        mass_kg=1.071,
        wheelbase_mm=450.0,
        battery_cells=3,
        battery_capacity_mah=3000.0,
        compute_power_w=4.56,
        sensors_power_w=1.0,
    )

    def fly() -> None:
        sim = FlightSimulator(model, physics_rate_hz=500.0)
        sim.goto([0.0, 0.0, 5.0])
        sim.run_for(SIM_DURATION_S)

    return time_callable("sim_30s_hover", fly, warmup=warmup, runs=runs)


def slam_workload(runs: int, warmup: int) -> TimingResult:
    """One short SLAM pipeline run over the first benchmark sequence."""
    sequence = all_sequence_names()[0]

    def step() -> None:
        run_slam(sequence, max_frames=SLAM_FRAMES)

    return time_callable("slam_pipeline_step", step, warmup=warmup, runs=runs)


def slam_ba_workloads(runs: int, warmup: int) -> List[TimingResult]:
    """Scalar vs batch global bundle adjustment on a converged MH01 map.

    The map is built once and converged with one BA pass beforehand, so
    every timed invocation does identical work (fixed iteration count,
    unchanged observation structure) for both engines.
    """
    sequence = cached_sequence("MH01")
    pipeline = SlamPipeline(sequence)
    for index in range(BA_MAP_FRAMES):
        pipeline.process_frame(sequence.generate_frame(index))
    slam_map = pipeline.slam_map
    global_bundle_adjust(slam_map, sequence.camera)

    def scalar_ba() -> None:
        oracles.global_bundle_adjust(slam_map, sequence.camera)

    def batch_ba() -> None:
        global_bundle_adjust(slam_map, sequence.camera)

    return [
        time_callable("scalar_ba_mh01", scalar_ba, warmup=warmup, runs=runs),
        time_callable("batch_ba_mh01", batch_ba, warmup=warmup, runs=runs),
    ]


def platform_corun_workloads(runs: int, warmup: int) -> List[TimingResult]:
    """Scalar vs batch trace engine on the Figure 15 co-run.

    A fresh core is constructed inside each timed run so both engines
    always start from cold microarchitectural state.
    """
    autopilot = autopilot_trace(CORUN_AUTOPILOT_INSTR, seed=6)
    slam = slam_trace(CORUN_SLAM_INSTR, seed=7)
    segments = interleave(
        autopilot, slam, CORUN_QUANTUM_AUTOPILOT, CORUN_QUANTUM_SLAM
    )

    def scalar_corun() -> None:
        oracles.run_segments(InOrderCore(), segments)

    def batch_corun() -> None:
        InOrderCore().run_segments(segments)

    return [
        time_callable("scalar_corun_fig15", scalar_corun,
                      warmup=warmup, runs=runs),
        time_callable("batch_corun_fig15", batch_corun,
                      warmup=warmup, runs=runs),
    ]


def _ensemble_specs() -> List[TrialSpec]:
    """Hand-built fault-free trial specs: physics stepping is the workload."""
    return [
        TrialSpec(
            campaign_seed=2021,
            trial_index=index,
            link_seed=1000 + index,
            schedule=FaultSchedule(),
            use_ekf=False,
            heartbeats=False,
            offload=False,
        )
        for index in range(ENSEMBLE_TRIALS)
    ]


def _ensemble_config() -> CampaignConfig:
    return CampaignConfig(
        campaign_seed=2021,
        trials=ENSEMBLE_TRIALS,
        duration_s=ENSEMBLE_DURATION_S,
        physics_rate_hz=ENSEMBLE_PHYSICS_RATE_HZ,
    )


def ensemble_workloads(
    runs: int, warmup: int
) -> Tuple[List[TimingResult], List[TrialResult], List[TrialResult]]:
    """Serial scalar campaign vs one 64-lane ensemble group.

    Both engines fly the same specs; the trial results of the final timed
    invocation are returned so the caller can check the engines' campaign
    fingerprints against each other (and replay a sample through
    ``verify_replay``).
    """
    specs = _ensemble_specs()
    config = _ensemble_config()
    scalar_results: List[TrialResult] = []
    ensemble_results: List[TrialResult] = []

    def scalar_campaign() -> None:
        scalar_results[:] = [run_trial(spec, config) for spec in specs]

    def ensemble_campaign() -> None:
        ensemble_results[:] = run_trials_ensemble(specs, config)

    results = [
        time_callable(
            "scalar_campaign_64x30s", scalar_campaign, warmup=warmup, runs=runs
        ),
        time_callable(
            "ensemble_campaign_64x30s", ensemble_campaign,
            warmup=warmup, runs=runs,
        ),
    ]
    return results, scalar_results, ensemble_results


def ensemble_allocation_check() -> List[str]:
    """Steady-state construction-budget check on the preallocated step paths.

    Runs the scalar simulator and a 16-lane ensemble into steady state,
    then counts Python-level NumPy array constructions over one simulated
    second.  A leak of even one construction per step blows the budget by
    an order of magnitude, so the fixed ceilings are tight in practice
    while staying robust to control-tick phase.
    """
    failures: List[str] = []
    steps = int(ENSEMBLE_PHYSICS_RATE_HZ)
    model = DroneModel(**DEFAULT_MODEL)
    target = np.array([0.0, 0.0, 5.0])

    sim = FlightSimulator(model, physics_rate_hz=ENSEMBLE_PHYSICS_RATE_HZ)
    sim.goto(target)
    sim.run_for(2.0)
    scalar_count = count_array_constructions(lambda: sim.run_for(1.0))
    scalar_budget = SCALAR_STEP_CONSTRUCTION_BUDGET * steps
    print(
        f"  scalar step constructions: {scalar_count} over {steps} steps "
        f"({scalar_count / steps:.2f}/step, budget "
        f"{SCALAR_STEP_CONSTRUCTION_BUDGET:.0f}/step)"
    )
    if scalar_count > scalar_budget:
        failures.append(
            f"scalar sim.step allocates {scalar_count} arrays over {steps} "
            f"steps, budget {scalar_budget:.0f}"
        )

    ensemble = EnsembleFlightSimulator(
        model, ALLOC_CHECK_LANES, physics_rate_hz=ENSEMBLE_PHYSICS_RATE_HZ
    )
    for lane in range(ALLOC_CHECK_LANES):
        ensemble.set_lane_target(lane, target)
    ensemble.run_for(2.0)
    ensemble_count = count_array_constructions(lambda: ensemble.run_for(1.0))
    ensemble_budget = ENSEMBLE_STEP_CONSTRUCTION_BUDGET * steps
    print(
        f"  {ALLOC_CHECK_LANES}-lane ensemble constructions: "
        f"{ensemble_count} over {steps} steps "
        f"({ensemble_count / steps:.2f}/step, budget "
        f"{ENSEMBLE_STEP_CONSTRUCTION_BUDGET:.0f}/step)"
    )
    if ensemble_count > ensemble_budget:
        failures.append(
            f"{ALLOC_CHECK_LANES}-lane ensemble allocates {ensemble_count} "
            f"arrays over {steps} steps, budget {ensemble_budget:.0f}"
        )
    return failures


def _pair_speedup(results: List[TimingResult], scalar: str, batch: str) -> float:
    by_name = {r.name: r for r in results}
    return by_name[scalar].median_s / by_name[batch].median_s


def _print_results(results: List[TimingResult]) -> None:
    for result in results:
        print(
            f"  {result.name}: median {result.median_s * 1e3:.3f} ms "
            f"(min {result.min_s * 1e3:.3f} ms, n={result.runs})"
        )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=SUITES + ("ensemble", "all"),
        default="all",
        help="which benchmark suite to run (default: all).  The heavy "
        "'ensemble' campaign suite must be requested explicitly; 'all' "
        "covers the original four.",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path(__file__).resolve().parent,
        help="directory to write BENCH_*.json files into",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE_DIR",
        help="compare against baselines in this directory instead of "
        "only writing new ones; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fractional median regression allowed in --compare mode",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="required batch-vs-scalar grid speedup (0 disables the check)",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=5.0,
        help="required batch-vs-scalar speedup for the SLAM BA and "
        "platform co-run workloads (0 disables the check)",
    )
    parser.add_argument(
        "--min-ensemble-speedup",
        type=float,
        default=5.0,
        help="required ensemble-vs-serial campaign speedup "
        "(0 disables the check)",
    )
    parser.add_argument(
        "--sweep-runs", type=int, default=15, help="timed runs per sweep workload"
    )
    parser.add_argument(
        "--heavy-runs", type=int, default=3, help="timed runs for sim/SLAM workloads"
    )
    args = parser.parse_args(argv)
    suites = SUITES if args.suite == "all" else (args.suite,)

    # Load baselines up front so comparing against the default output
    # directory still sees the *previous* run, not the files written below.
    baseline_names = tuple(f"BENCH_{suite}.json" for suite in suites)
    baselines = {}
    if args.compare is not None:
        for name in baseline_names:
            baseline_path = args.compare / name
            if baseline_path.exists():
                baselines[name] = load_baseline(baseline_path)
            else:
                print(f"no baseline {baseline_path}; skipping its compare")

    #: (baseline file name, results, extra metadata) per executed suite.
    written = []
    failed = False

    if "sweep" in suites:
        print("timing design-space grid evaluation (261-point Figure 10 grid)...")
        sweep_results = sweep_workloads(runs=args.sweep_runs, warmup=5)
        speedup = _pair_speedup(sweep_results, "scalar_grid_eval",
                                "batch_grid_eval")
        _print_results(sweep_results)
        print(f"  batch speedup over scalar: {speedup:.1f}x")
        written.append((
            "BENCH_sweep.json",
            sweep_results,
            {
                "speedup": speedup,
                "grid_points": 261,
                "wheelbases_mm": list(FIG10_WHEELBASES_MM),
            },
        ))
        if args.min_speedup > 0 and speedup < args.min_speedup:
            print(
                f"FAIL: batch speedup {speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x"
            )
            failed = True

    if "sim" in suites:
        print(f"timing {SIM_DURATION_S:.0f} s simulator run...")
        sim_result = sim_workload(runs=args.heavy_runs, warmup=1)
        print(f"  {sim_result.name}: median {sim_result.median_s:.3f} s")
        print(f"timing SLAM pipeline step ({SLAM_FRAMES} frames)...")
        slam_result = slam_workload(runs=args.heavy_runs, warmup=1)
        print(f"  {slam_result.name}: median {slam_result.median_s:.3f} s")
        written.append((
            "BENCH_sim.json",
            [sim_result, slam_result],
            {
                "sim_duration_s": SIM_DURATION_S,
                "slam_frames": SLAM_FRAMES,
            },
        ))

    if "slam" in suites:
        print(f"timing MH01 global bundle adjustment "
              f"({BA_MAP_FRAMES}-frame map)...")
        ba_results = slam_ba_workloads(runs=9, warmup=2)
        ba_speedup = _pair_speedup(ba_results, "scalar_ba_mh01",
                                   "batch_ba_mh01")
        _print_results(ba_results)
        print(f"  batch speedup over scalar: {ba_speedup:.1f}x")
        written.append((
            "BENCH_slam.json",
            ba_results,
            {"speedup": ba_speedup, "map_frames": BA_MAP_FRAMES},
        ))
        if args.min_kernel_speedup > 0 and ba_speedup < args.min_kernel_speedup:
            print(
                f"FAIL: BA batch speedup {ba_speedup:.1f}x below required "
                f"{args.min_kernel_speedup:.1f}x"
            )
            failed = True

    if "platform" in suites:
        instr = CORUN_AUTOPILOT_INSTR + CORUN_SLAM_INSTR
        print(f"timing Figure 15 co-run trace ({instr / 1e6:.1f}M instructions)...")
        corun_results = platform_corun_workloads(runs=args.heavy_runs, warmup=1)
        corun_speedup = _pair_speedup(corun_results, "scalar_corun_fig15",
                                      "batch_corun_fig15")
        _print_results(corun_results)
        print(f"  batch speedup over scalar: {corun_speedup:.1f}x")
        written.append((
            "BENCH_platform.json",
            corun_results,
            {
                "speedup": corun_speedup,
                "autopilot_instructions": CORUN_AUTOPILOT_INSTR,
                "slam_instructions": CORUN_SLAM_INSTR,
            },
        ))
        if (args.min_kernel_speedup > 0
                and corun_speedup < args.min_kernel_speedup):
            print(
                f"FAIL: co-run batch speedup {corun_speedup:.1f}x below "
                f"required {args.min_kernel_speedup:.1f}x"
            )
            failed = True

    if "ensemble" in suites:
        # One timed run per engine: each invocation is a full 64-trial
        # campaign (minutes of work for the serial engine), long enough to
        # swamp scheduler noise without median-of-N.
        print(
            f"timing {ENSEMBLE_TRIALS}-trial fault-free campaign "
            f"({ENSEMBLE_DURATION_S:.0f} s at "
            f"{ENSEMBLE_PHYSICS_RATE_HZ:.0f} Hz), serial vs ensemble..."
        )
        ensemble_results, scalar_trials, ensemble_trials = ensemble_workloads(
            runs=1, warmup=0
        )
        ensemble_speedup = _pair_speedup(
            ensemble_results, "scalar_campaign_64x30s",
            "ensemble_campaign_64x30s",
        )
        _print_results(ensemble_results)
        print(f"  ensemble speedup over serial scalar: {ensemble_speedup:.1f}x")

        fingerprints_equal = [s.metrics() for s in scalar_trials] == [
            e.metrics() for e in ensemble_trials
        ]
        print(
            f"  campaign fingerprints ensemble==scalar: {fingerprints_equal} "
            f"({len(ensemble_trials)} trials)"
        )
        if not fingerprints_equal:
            print("FAIL: ensemble campaign fingerprints diverge from scalar")
            failed = True
        config = _ensemble_config()
        replays_ok = all(
            verify_replay(result, config)
            for result in ensemble_trials[:ENSEMBLE_REPLAY_SAMPLES]
        )
        print(
            f"  verify_replay on {ENSEMBLE_REPLAY_SAMPLES} sampled ensemble "
            f"trials: {replays_ok}"
        )
        if not replays_ok:
            print("FAIL: ensemble trial does not replay bit-for-bit")
            failed = True

        print("checking steady-state allocation budgets...")
        alloc_failures = ensemble_allocation_check()
        for line in alloc_failures:
            print(f"FAIL: {line}")
            failed = True

        written.append((
            "BENCH_ensemble.json",
            ensemble_results,
            {
                "speedup": ensemble_speedup,
                "trials": ENSEMBLE_TRIALS,
                "duration_s": ENSEMBLE_DURATION_S,
                "physics_rate_hz": ENSEMBLE_PHYSICS_RATE_HZ,
                "fingerprints_equal": fingerprints_equal,
                "verify_replay_samples": ENSEMBLE_REPLAY_SAMPLES,
                "verify_replay_ok": replays_ok,
                "allocation_budget_ok": not alloc_failures,
            },
        ))
        if (args.min_ensemble_speedup > 0
                and ensemble_speedup < args.min_ensemble_speedup):
            print(
                f"FAIL: ensemble speedup {ensemble_speedup:.1f}x below "
                f"required {args.min_ensemble_speedup:.1f}x"
            )
            failed = True

    args.output_dir.mkdir(parents=True, exist_ok=True)
    repo_root = Path(__file__).resolve().parents[2]
    for name, results, extra in written:
        path = args.output_dir / name
        write_baseline(path, results, extra=extra)
        print(f"wrote {path}")
        # Mirror every baseline to the repository root so the latest
        # numbers are one `cat BENCH_*.json` away from a fresh checkout.
        root_copy = repo_root / name
        if root_copy != path.resolve():
            shutil.copyfile(path, root_copy)
            print(f"copied {name} -> {root_copy}")

    if args.compare is not None:
        regressions: List[str] = []
        compared = 0
        for name, results, _ in written:
            baseline = baselines.get(name)
            if baseline is None:
                continue
            compared += len(results)
            regressions.extend(
                compare_to_baseline(results, baseline, tolerance=args.tolerance)
            )
        if regressions:
            print("PERF REGRESSIONS:")
            for line in regressions:
                print(f"  {line}")
            failed = True
        else:
            print(f"compare vs {args.compare}: no regressions "
                  f"(tolerance {args.tolerance:.0%}, {compared} workloads)")

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
