"""Unit tests for the perf-regression timing harness.

``benchmarks/perf`` is not an importable package (it's a script directory),
so the harness module is loaded by file path.  These tests cover the
measurement mechanics and the baseline compare logic — the actual workload
timings are exercised by the CI ``perf`` job, not here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_HARNESS_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "harness.py"
)


def _load_harness():
    spec = importlib.util.spec_from_file_location("perf_harness", _HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Register before exec: dataclass processing resolves the module by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _load_harness()


class TestTimeCallable:
    def test_runs_and_reports_sane_statistics(self):
        calls = []
        result = harness.time_callable(
            "noop", lambda: calls.append(1), warmup=2, runs=5
        )
        assert len(calls) == 7  # warmup + timed
        assert result.name == "noop"
        assert result.runs == 5
        assert result.warmup == 2
        assert 0.0 <= result.min_s <= result.median_s
        assert result.median_s <= result.mean_s * 5  # loose sanity bound

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="run"):
            harness.time_callable("x", lambda: None, runs=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            harness.time_callable("x", lambda: None, warmup=-1)


def _result(name: str, median_s: float) -> "harness.TimingResult":
    return harness.TimingResult(
        name=name,
        median_s=median_s,
        min_s=median_s * 0.9,
        mean_s=median_s * 1.05,
        runs=9,
        warmup=3,
    )


class TestBaselineRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        harness.write_baseline(
            path, [_result("workload_a", 0.010)], extra={"speedup": 11.5}
        )
        payload = harness.load_baseline(path)
        assert payload["schema"] == harness.SCHEMA_VERSION
        assert payload["speedup"] == 11.5
        assert payload["workloads"]["workload_a"]["median_s"] == 0.010

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 999, "workloads": {}}))
        with pytest.raises(ValueError, match="schema"):
            harness.load_baseline(path)


class TestCompareToBaseline:
    def _baseline(self, median_s: float) -> dict:
        return {
            "schema": harness.SCHEMA_VERSION,
            "workloads": {"w": {"median_s": median_s}},
        }

    def test_within_tolerance_passes(self):
        regressions = harness.compare_to_baseline(
            [_result("w", 0.0120)], self._baseline(0.0100), tolerance=0.25
        )
        assert regressions == []

    def test_regression_beyond_tolerance_flagged(self):
        regressions = harness.compare_to_baseline(
            [_result("w", 0.0130)], self._baseline(0.0100), tolerance=0.25
        )
        assert len(regressions) == 1
        assert "w" in regressions[0]

    def test_faster_than_baseline_passes(self):
        assert (
            harness.compare_to_baseline(
                [_result("w", 0.005)], self._baseline(0.0100)
            )
            == []
        )

    def test_workload_missing_from_baseline_skipped(self):
        baseline = {"schema": harness.SCHEMA_VERSION, "workloads": {}}
        assert harness.compare_to_baseline([_result("new", 1.0)], baseline) == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            harness.compare_to_baseline([], self._baseline(1.0), tolerance=-0.1)


class TestCommittedBaselines:
    """The committed BENCH files must stay loadable and self-consistent."""

    @pytest.mark.parametrize("name", ["BENCH_sweep.json", "BENCH_sim.json"])
    def test_baseline_loads(self, name):
        payload = harness.load_baseline(_HARNESS_PATH.parent / name)
        assert payload["workloads"], f"{name} has no workloads"
        for workload, stats in payload["workloads"].items():
            assert stats["median_s"] > 0.0, workload


class TestCountArrayConstructions:
    def test_counts_named_constructors(self):
        import numpy as np

        def workload():
            np.zeros(3)
            np.array([1.0, 2.0])
            np.empty(2)
            np.ones(4)
            np.full(2, 7.0)

        assert harness.count_array_constructions(workload) == 5

    def test_zero_for_construction_free_workload(self):
        import numpy as np

        buffer = np.zeros(3)
        assert harness.count_array_constructions(
            lambda: np.add(buffer, 1.0, out=buffer)
        ) == 0

    def test_restores_constructors_after_exception(self):
        import numpy as np

        originals = tuple(
            getattr(np, name) for name in harness._CONSTRUCTOR_NAMES
        )

        def boom():
            raise RuntimeError("workload failed")

        with pytest.raises(RuntimeError, match="workload failed"):
            harness.count_array_constructions(boom)
        restored = tuple(
            getattr(np, name) for name in harness._CONSTRUCTOR_NAMES
        )
        assert restored == originals

    def test_ensemble_baseline_loads_when_committed(self):
        path = _HARNESS_PATH.parent / "BENCH_ensemble.json"
        payload = harness.load_baseline(path)
        assert payload["speedup"] >= 5.0
        assert payload["trials"] == 64
        assert payload["fingerprints_equal"] is True
        assert payload["verify_replay_ok"] is True
        assert payload["allocation_budget_ok"] is True
