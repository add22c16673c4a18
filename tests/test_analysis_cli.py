"""CLI and plumbing contract tests for ``python -m repro.analysis``.

Exit codes, the baseline gate (fail only on NEW violations), the JSON
report artifact, and discovery pruning.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.analysis import baseline as baseline_mod
from repro.analysis.base import Violation
from repro.analysis.runner import discover

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


def _violation(rule="purity", path="a.py", line=1, message="m"):
    return Violation(rule=rule, path=path, line=line, col=0, message=message)


class TestExitCodes:
    def test_clean_run_exits_zero(self):
        proc = run_cli(FIXTURES / "skipped.py")
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_violations_exit_one(self):
        proc = run_cli(FIXTURES / "purity_bad.py")
        assert proc.returncode == 1
        assert "purity" in proc.stdout

    def test_usage_error_exits_two(self):
        assert run_cli(FIXTURES / "no_such_file.quux").returncode == 2
        assert run_cli("--rules", "no-such-rule", FIXTURES).returncode == 2
        assert run_cli("--update-baseline", FIXTURES).returncode == 2

    def test_rules_filter_scopes_the_run(self):
        proc = run_cli("--rules", "hotpath-escape", FIXTURES / "purity_bad.py")
        assert proc.returncode == 0  # purity findings filtered out


class TestJsonReport:
    def test_json_schema(self):
        proc = run_cli("--json", FIXTURES / "interunits_bad.py")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] == 3
        for entry in payload["violations"]:
            assert set(entry) == {"rule", "path", "line", "col", "message"}
            assert entry["rule"] == "inter-units"

    def test_output_flag_writes_the_report_file(self, tmp_path):
        report = tmp_path / "report.json"
        proc = run_cli("--output", report, FIXTURES / "interunits_bad.py")
        assert proc.returncode == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["count"] == 3


class TestBaselineGate:
    def test_update_then_gate_exits_zero(self, tmp_path):
        accepted = tmp_path / "baseline.json"
        proc = run_cli(
            "--baseline", accepted, "--update-baseline", FIXTURES / "purity_bad.py"
        )
        assert proc.returncode == 0
        assert "baseline updated" in proc.stdout
        payload = json.loads(accepted.read_text(encoding="utf-8"))
        assert len(payload["entries"]) == 5

        gated = run_cli("--baseline", accepted, FIXTURES / "purity_bad.py")
        assert gated.returncode == 0
        assert "clean" in gated.stdout
        assert "5 accepted" in gated.stdout

    def test_new_violations_still_fail(self, tmp_path):
        accepted = tmp_path / "baseline.json"
        run_cli("--baseline", accepted, "--update-baseline", FIXTURES / "purity_bad.py")
        proc = run_cli(
            "--baseline",
            accepted,
            FIXTURES / "purity_bad.py",
            FIXTURES / "interunits_bad.py",
        )
        assert proc.returncode == 1
        assert "inter-units" in proc.stdout
        assert "purity" not in proc.stdout.split("baseline:")[0]  # accepted: hidden

    def test_fixed_violations_are_reported(self, tmp_path):
        accepted = tmp_path / "baseline.json"
        run_cli("--baseline", accepted, "--update-baseline", FIXTURES / "purity_bad.py")
        proc = run_cli("--baseline", accepted, FIXTURES / "skipped.py")
        assert proc.returncode == 0
        assert "5 fixed" in proc.stdout

    def test_corrupt_baseline_is_a_usage_error(self, tmp_path):
        accepted = tmp_path / "baseline.json"
        accepted.write_text('{"version": 999, "entries": []}', encoding="utf-8")
        assert run_cli("--baseline", accepted, FIXTURES / "skipped.py").returncode == 2


def _baseline_of(*violations):
    return Counter(baseline_mod.fingerprint(v) for v in violations)


class TestBaselineModule:
    def test_gate_partitions_new_known_fixed(self):
        old = _violation(message="accepted")
        result = baseline_mod.gate(
            [old, _violation(message="fresh")], _baseline_of(old)
        )
        assert [v.message for v in result.new] == ["fresh"]
        assert [v.message for v in result.known] == ["accepted"]
        assert result.fixed == 0

    def test_fingerprints_are_multisets(self):
        # Two identical findings, one accepted: the second is NEW.
        twin = _violation(message="dup")
        result = baseline_mod.gate([twin, twin], _baseline_of(twin))
        assert len(result.new) == 1
        assert len(result.known) == 1

    def test_line_moves_do_not_invalidate_the_baseline(self):
        result = baseline_mod.gate(
            [_violation(line=99)], _baseline_of(_violation(line=10))
        )
        assert result.new == []
        assert result.fixed == 0

    def test_missing_file_is_an_empty_baseline(self, tmp_path):
        assert baseline_mod.load(str(tmp_path / "absent.json")) == Counter()


class TestDiscover:
    def test_generated_trees_are_pruned(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n", encoding="utf-8")
        for junk in ("__pycache__", ".git", "build", ".venv", "pkg.egg-info"):
            (tmp_path / junk).mkdir()
            (tmp_path / junk / "junk.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / ".hidden.py").write_text("x = 1\n", encoding="utf-8")
        found = discover([str(tmp_path)])
        assert found == [str(tmp_path / "pkg" / "mod.py")]

    def test_nested_pycache_is_pruned(self, tmp_path):
        deep = tmp_path / "pkg" / "__pycache__" / "sub"
        deep.mkdir(parents=True)
        (deep / "stale.py").write_text("x = 1\n", encoding="utf-8")
        assert discover([str(tmp_path)]) == []

    def test_explicitly_named_files_bypass_pruning(self, tmp_path):
        cache_dir = tmp_path / "__pycache__"
        cache_dir.mkdir()
        named = cache_dir / "direct.py"
        named.write_text("x = 1\n", encoding="utf-8")
        assert discover([str(named)]) == [str(named)]
