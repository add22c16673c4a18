"""Repository benchmark: ``flight``, ``campaign`` and ``outer_loop``.

Usage, from the repository root::

    python3 perfbench/run.py --workload flight --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` wraps every layer's public entry points with span
shims (see ``spans.py``) and prints the per-layer metrics.  Both print a
report line (environment, output digest, named rates, failures), then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans of a traced run are written to
``.perfbench/trace-<workload>-<seed>.npz``.

The end-to-end rates and times of an untraced run are in reference-host
units: ``hostspeed.py`` samples a fixed kernel throughout the run, and each
op's rate is scaled by how much slower than the reference host the kernel
ran during that op, so that drift of a shared host cancels out.  The raw
rates and the run's ``host_slowdown`` are on the report line.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Layers whose self time is reported, as named by ``install_layers``.
LAYERS = (
    "sensors", "ekf", "controller", "mixer", "rigid_body", "battery", "sim",
    "ensemble", "chaos.inject", "chaos.autopilot", "chaos.invariants",
    "chaos.blackbox", "chaos.driver", "exec", "exec.journal",
    "slam", "slam.extract", "slam.match", "slam.track", "slam.local_ba",
    "slam.global_ba", "platforms", "platforms.tracegen", "platforms.core",
    "driver",
)
SLAM_STAGES = {
    "extract_match": ("slam.extract", "slam.match"),
    "track": ("slam.track",),
    "local_ba": ("slam.local_ba",),
    "global_ba": ("slam.global_ba",),
}


def self_time_metric(layer: str) -> str:
    """``sensors`` -> ``sensors.self_s``; ``chaos.inject`` -> ``chaos.inject_s``."""
    return f"{layer}_s" if "." in layer else f"{layer}.self_s"


#: Per-layer metrics (traced runs): name -> (unit, better).  Self times
#: and counts are per operation; a layer a workload does not run reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{self_time_metric(layer): ("s", "lower") for layer in LAYERS},
    "dataset.self_s": ("s", "lower"),
    "sensors.calls": ("count", "lower"),
    "ekf.predicts": ("count", "lower"),
    "ekf.updates": ("count", "lower"),
    "ekf.resets": ("count", "lower"),
    "mixer.saturation_ratio": ("ratio", "lower"),
    "sim.samples": ("count", "lower"),
    "ensemble.steps": ("count", "lower"),
    "ensemble.lane_occupancy": ("ratio", "higher"),
    "ensemble.frozen_lanes": ("count", "lower"),
    "ensemble.defected_lanes": ("count", "lower"),
    "exec.journal_bytes": ("bytes", "lower"),
    "exec.chunks": ("count", "lower"),
    "exec.retries": ("count", "lower"),
    "exec.quarantined": ("count", "lower"),
    **{f"slam.{stage}.ops": ("count", "lower") for stage in SLAM_STAGES},
    **{f"slam.{stage}.mops_per_s": ("Mop/s", "higher") for stage in SLAM_STAGES},
    "slam.ba_time_share": ("ratio", "lower"),
    "slam.ba_op_share": ("ratio", "lower"),
    "slam.tracking_success_ratio": ("ratio", "higher"),
    "platforms.instructions": ("count", "higher"),
    "platforms.core.minstr_per_s": ("Minstr/s", "higher"),
    "platforms.batch_fallbacks": ("count", "lower"),
    "platforms.ipc_degradation": ("ratio", "lower"),
    "platforms.tlb_miss_multiplier": ("ratio", "lower"),
    "platforms.l1_miss_rate": ("ratio", "lower"),
    "platforms.corun_ipc": ("ratio", "higher"),
    "platforms.corun_llc_miss_rate": ("ratio", "lower"),
    "platforms.corun_tlb_miss_rate": ("ratio", "lower"),
    "platforms.corun_branch_miss_rate": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("flight", "campaign", "outer_loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def guarded_op(workload, tracer):
    """One op; an exception becomes a failed op instead of ending the run."""
    from workloads import OpResult

    try:
        return workload.run_op(tracer)
    except Exception:  # a failing op is counted, and the run goes on
        return OpResult(
            samples=[],
            digest="error",
            attempted=workload.attempted_per_op,
            failures=[traceback.format_exc(limit=3)],
        )


def run_ops(workload, host, seconds: float) -> Tuple[list, List[float]]:
    """Run untraced ops until ``seconds`` have passed (at least one).

    Returns the ops and each op's work rate in reference-host units: the
    rate with the host-speed handler's time taken out, times the op's
    host slowdown.
    """
    from hostspeed import slowdown

    ops, rates = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        # Free the last op's cyclic garbage first: when the collector runs
        # depends on the host-speed handler's allocations, and peak memory
        # must not.
        gc.collect()
        mark = host.mark()
        t0 = time.perf_counter()
        op = guarded_op(workload, None)
        wall = time.perf_counter() - t0
        kernel_s, handler_s = host.window(mark)
        work = sum(work for work, _ in op.samples)
        timed = op.wall_s * (1.0 - handler_s / wall)
        ops.append(op)
        if timed > 0:
            rates.append(work / timed * slowdown(kernel_s))
    return ops, rates


def run_paired_ops(workload, tracer, seconds: float) -> Tuple[list, list]:
    """Alternate untraced and traced ops until ``seconds`` have passed.

    Pairing the ops cancels drift in host speed out of the tracing
    overhead; traced op ``k`` is run ``k`` of the tracer.
    """
    from workloads import install_layers

    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(guarded_op(workload, None))
        install_layers(tracer)
        tracer.run_id = len(traced)
        try:
            traced.append(guarded_op(workload, tracer))
        finally:
            tracer.restore()
    return untraced, traced


def accounting(ops: list, reference: str) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages); an op whose digest differs from
    ``reference`` counts one failure."""
    attempted = failed = 0
    messages: List[str] = []
    for op in ops:
        failures = list(op.failures)
        if op.digest != reference and op.digest != "error":
            failures.append(f"digest {op.digest} differs from {reference}")
        attempted += op.attempted
        failed += min(op.attempted, len(failures))
        messages.extend(failures)
    return attempted, failed, messages


def layer_metrics(workload, tracer, ops: list, overhead: float) -> Dict[str, float]:
    n = len(ops)
    runs = range(n)
    self_s = tracer.layer_self_times(runs)
    setup_self = tracer.layer_self_times([-1])
    counts = collections.defaultdict(int, {**tracer.call_counts(runs), **tracer.counts})
    metrics = {self_time_metric(layer): self_s.get(layer, 0.0) / n for layer in LAYERS}
    metrics["dataset.self_s"] = setup_self.get("dataset", 0.0) / workload.setup_repeats
    lane_steps = counts["ensemble.lane_steps"]
    core_calls = counts["platforms.core:run_segments"]
    l1_accesses = counts["platforms.l1_accesses"]
    metrics.update(
        {
            "sensors.calls": counts["sensors:poll"] / n,
            "ekf.predicts": counts["ekf:predict"] / n,
            "ekf.updates": sum(
                counts[f"ekf:update_{kind}"] for kind in ("gps", "barometer", "magnetometer")
            ) / n,
            "ekf.resets": (counts["ekf:reset"] + counts["ekf.lane_resets"]) / n,
            "ensemble.steps": counts["ensemble:step"] / n,
            "ensemble.lane_occupancy": counts["ensemble.live_lane_steps"] / lane_steps if lane_steps else 0.0,
            "ensemble.frozen_lanes": counts["ensemble:freeze_lane"] / n,
            "ensemble.defected_lanes": counts["ensemble:materialize_lane"] / n,
            "platforms.instructions": counts["platforms.instructions"] / n,
            "platforms.batch_fallbacks": (core_calls - counts["platforms.batch_runs"]) / n,
            "platforms.l1_miss_rate": counts["platforms.l1_misses"] / l1_accesses if l1_accesses else 0.0,
        }
    )
    core_s = metrics["platforms.core_s"]
    metrics["platforms.core.minstr_per_s"] = (
        metrics["platforms.instructions"] / 1e6 / core_s if core_s else 0.0
    )
    for op in ops:
        for name, value in op.stats.items():
            metrics[name] = metrics.get(name, 0.0) + value / n
    for stage, layers in SLAM_STAGES.items():
        seconds = sum(metrics[self_time_metric(layer)] for layer in layers)
        ops_ = metrics.get(f"slam.{stage}.ops", 0.0)
        metrics[f"slam.{stage}.mops_per_s"] = ops_ / 1e6 / seconds if seconds else 0.0
    slam_layers = [layer for layer in LAYERS if layer == "slam" or layer.startswith("slam.")]
    slam_s = sum(metrics[self_time_metric(layer)] for layer in slam_layers)
    ba_s = metrics["slam.local_ba_s"] + metrics["slam.global_ba_s"]
    metrics["slam.ba_time_share"] = ba_s / slam_s if slam_s else 0.0
    wall = sum(op.wall_s for op in ops)
    metrics["trace.coverage"] = 1.0 - self_s.get("driver", 0.0) / wall if wall else 0.0
    metrics["trace.overhead_frac"] = overhead
    run_ids = tracer.spans()["run"]
    metrics["trace.spans"] = float((run_ids >= 0).sum()) / n
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}


def measure(args: argparse.Namespace) -> Tuple[dict, dict]:
    """Run the workload; returns (report, result)."""
    from harness import time_callable

    from hostspeed import HostSpeed, slowdown
    from spans import Tracer
    from workloads import WORKLOADS, install_layers

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    host_slowdown = None
    try:
        if tracer is None:
            # Untraced runs report times in reference-host units.
            with HostSpeed() as host:
                t0 = time.perf_counter()
                setup = time_callable("setup", workload.setup, warmup=0, runs=workload.setup_repeats)
                kernel_s, handler_s = host.window((0, 0.0))
                wall = time.perf_counter() - t0
                setup_s = setup.median_s * (1.0 - handler_s / wall) / slowdown(kernel_s)
                ops, work_rates = run_ops(workload, host, args.seconds)
            host_slowdown = slowdown(host.kernel_s)
            metrics = {
                "work_per_s": float(statistics.median(work_rates)) if work_rates else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            # Set-up spans (dataset synthesis) form run -1.
            install_layers(tracer)
            try:
                time_callable("setup", workload.setup, warmup=0, runs=workload.setup_repeats)
            finally:
                tracer.restore()
            tracer.counts.clear()
            untraced, traced = run_paired_ops(workload, tracer, args.seconds)
            ratios = [t.wall_s / u.wall_s - 1.0 for u, t in zip(untraced, traced) if u.wall_s and t.wall_s]
            overhead = statistics.median(ratios) if ratios else 0.0
            metrics = layer_metrics(workload, tracer, traced, overhead)
            ops = untraced + traced
            tracer.save(workdir / f"trace-{args.workload}-{args.seed}.npz")
    finally:
        workload.close()
    reference = ops[0].digest
    attempted, failed, messages = accounting(ops, reference)
    rates: Dict[str, List[float]] = {}
    for op in ops:
        for name, value in op.rates.items():
            rates.setdefault(name, []).append(value)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "ops": len(ops),
        "digest": reference,
        "failed_fraction": failed / attempted,
        "rates": {name: statistics.median(values) for name, values in rates.items()},
        "host_slowdown": host_slowdown,
        "failures": messages[:20],
    }
    units = END_TO_END if not args.trace else {n: u for n, (u, _) in PER_LAYER.items()}
    result = {
        "correct": failed == 0 and reference != "error",
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not (ROOT / "benchmarks" / "perf" / "harness.py").is_file():
        print("perfbench: benchmarks/perf/harness.py is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf"), str(HERE)]
    report, result = measure(args)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
