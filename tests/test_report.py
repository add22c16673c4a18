"""Tests for the CSV report exporter."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.report import (
    export_component_fits,
    export_power_traces,
    export_reference_build,
)


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


class TestReportExports:
    def test_component_fits_export(self, tmp_path):
        summary = []
        export_component_fits(str(tmp_path), summary)
        battery = read_csv(tmp_path / "fig07_battery_fits.csv")
        assert battery[0][0] == "config"
        assert len(battery) == 7  # header + 6 configs
        esc = read_csv(tmp_path / "fig08a_esc_fits.csv")
        assert len(esc) == 3  # header + 2 classes
        assert summary  # a summary line was appended

    def test_reference_build_export(self, tmp_path):
        summary = []
        export_reference_build(str(tmp_path), summary)
        rows = read_csv(tmp_path / "fig14_weight_breakdown.csv")
        assert len(rows) == 14  # header + 13 parts
        weights = [float(row[1]) for row in rows[1:]]
        assert sum(weights) == pytest.approx(1071.0)

    def test_microarchitecture_export(self, tmp_path):
        from repro.report import export_microarchitecture

        summary = []
        export_microarchitecture(str(tmp_path), summary, trace_length=15_000)
        rows = read_csv(tmp_path / "fig15_perf_counters.csv")
        assert len(rows) == 4  # header + 3 workloads
        assert any("fig15" in line for line in summary)

    def test_slam_studies_export(self, tmp_path):
        from repro.report import export_slam_studies

        summary = []
        export_slam_studies(str(tmp_path), summary, max_frames=25)
        speedups = read_csv(tmp_path / "fig17_slam_speedups.csv")
        assert len(speedups) == 1 + 11 * 3  # header + 11 seqs x 3 platforms
        table5 = read_csv(tmp_path / "table5_platform_costs.csv")
        assert [row[0] for row in table5[1:]] == ["RPi", "TX2", "FPGA", "ASIC"]

    def test_power_trace_export(self, tmp_path):
        summary = []
        export_power_traces(str(tmp_path), summary)
        trace = read_csv(tmp_path / "fig16a_rpi_power.csv")
        assert trace[0] == ["time_s", "power_w"]
        assert len(trace) > 100
        assert os.path.exists(tmp_path / "fig16b_drone_power.csv")
        assert any("fig16" in line for line in summary)


class TestReportCli:
    """``python -m repro.report`` parses its options before writing."""

    @staticmethod
    def _run(cwd, *args):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-m", "repro.report", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_help_prints_usage_and_writes_nothing(self, tmp_path):
        result = self._run(tmp_path, "--help")
        assert result.returncode == 0
        assert "usage: python -m repro.report" in result.stdout
        assert list(tmp_path.iterdir()) == []

    def test_unknown_option_is_a_usage_error(self, tmp_path):
        result = self._run(tmp_path, "--no-such-option")
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
        assert list(tmp_path.iterdir()) == []
