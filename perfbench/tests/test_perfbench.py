"""Tests of the benchmark itself: metric names, span arithmetic, and a
tiny end-to-end run of every workload.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S, HostSpeed, slowdown  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_spec():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_children_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


class _Clock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class _Toy:
    def outer(self, depth: int) -> int:
        return self.inner() + depth

    def inner(self) -> int:
        return 1


def test_tracer_self_times_and_counts_on_wrapped_calls():
    tracer = Tracer(clock=_Clock())
    original = _Toy.__dict__["outer"]
    tracer.wrap(_Toy, "outer", "outer")
    tracer.wrap(_Toy, "inner", "inner")
    try:
        tracer.run_id = 0
        assert _Toy().outer(2) == 3
        tracer.run_id = 1
        _Toy().outer(0)
    finally:
        tracer.restore()
    assert _Toy.__dict__["outer"] is original
    # Clock readings per run: outer start 1, inner 2..3, outer end 4.
    assert tracer.layer_self_times([0]) == {"outer": 2.0, "inner": 1.0}
    assert tracer.layer_self_times() == {"outer": 4.0, "inner": 2.0}
    assert tracer.call_counts() == {"outer:outer": 2, "inner:inner": 2}
    assert tracer.spans()["parent"].tolist() == [-1, 0, -1, 2]


def test_host_speed_samples_the_kernel_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed(period_s=0.01) as host:
        mark = host.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        kernel_s, handler_s = host.window(mark)
    assert len(kernel_s) >= 3
    assert sum(kernel_s) <= handler_s
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert slowdown([REFERENCE_KERNEL_S, 3 * REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S]) == 2.0
    assert slowdown([]) == 1.0


def _measure(workload: str, trace: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.01, trace=trace)
    report, result = run.measure(args)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert set(result["metrics"]) == set(expected)
    return report, result


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    # Legs too short to settle: the hover bound only has to catch divergence.
    monkeypatch.setattr(workloads, "LEG_S", 3)
    monkeypatch.setattr(workloads, "HOVER_WINDOW_S", 1.0)
    monkeypatch.setattr(workloads, "HOVER_BOUND_M", 5.0)
    monkeypatch.setattr(workloads, "CAMPAIGN_TRIALS", 4)
    monkeypatch.setattr(workloads.Campaign, "attempted_per_op", 4)
    monkeypatch.setattr(
        workloads, "CampaignConfig", functools.partial(workloads.CampaignConfig, duration_s=7.0)
    )
    monkeypatch.setattr(workloads, "SLAM_SEQUENCES", ("V203",))
    monkeypatch.setattr(
        workloads.platforms_perf,
        "run_interference_study",
        functools.partial(workloads.platforms_perf.run_interference_study, trace_length=20_000),
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_end_to_end_traced_and_untraced(tiny, workload):
    report, result = _measure(workload, trace=0)
    assert result["metrics"]["work_per_s"]["value"] > 0
    assert result["metrics"]["setup_s"]["value"] > 0
    assert report["env"]["seed"] == 3
    traced_report, traced = _measure(workload, trace=1)
    # Observation does not change what is simulated.
    assert traced_report["digest"] == report["digest"]
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.95


def test_exits_without_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "flight", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
