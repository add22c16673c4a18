"""Integration tests: Figure 15 interference, Figure 17 speedups, Table 5."""

import pytest

from repro.platforms.accelerator import navion_asic, zynq_ba_accelerator
from repro.platforms.perf import run_interference_study
from repro.platforms.profiles import (
    all_profiles,
    asic_profile,
    best_platform,
    figure17_study,
    fpga_profile,
    rpi4_profile,
    table5,
    tx2_profile,
)
from repro.slam.pipeline import Stage
from tests.equivalence import golden


class TestInterference(object):
    """Figure 15 (uses the shared reduced-size study fixture)."""

    def test_ipc_degradation_direction_and_magnitude(self, interference):
        """Paper: autopilot IPC drops by ~1.7x when SLAM co-runs."""
        assert 1.3 < interference.ipc_degradation < 3.5

    def test_tlb_multiplier_near_4p5(self, interference):
        """Paper: 4.5x as many TLB misses with SLAM present."""
        assert 2.5 < interference.tlb_miss_multiplier < 8.0

    def test_llc_miss_rate_increases(self, interference):
        assert interference.llc_miss_rate_increase > 0.0

    def test_branch_miss_rate_increases(self, interference):
        assert interference.branch_miss_rate_increase > 0.0

    def test_slam_ipc_below_autopilot(self, interference):
        rows = interference.figure15_rows()
        assert rows["slam"]["ipc"] < rows["autopilot"]["ipc"]

    def test_miss_rates_in_figure15_axis_range(self, interference):
        """Figure 15's primary axis runs 0-16%-ish."""
        rows = interference.figure15_rows()
        for row in rows.values():
            assert 0.0 < row["llc_miss_rate_pct"] < 35.0
            assert 0.0 < row["branch_miss_rate_pct"] < 35.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_interference_study(trace_length=0)


class TestGoldenCounters:
    """All four Figure 15 ``PerfCounters``, pinned under
    ``tests/fixtures/platforms/counters.json``.  The counters are integers
    and the cycles integer-valued floats (integral base CPI), so no case
    depends on BLAS or libm and every host checks them."""

    def test_defaults(self):
        golden("platforms/counters/defaults", run_interference_study)

    def test_seed_1(self):
        golden("platforms/counters/seed_1", run_interference_study, seed=1)

    def test_trace_length_40k(self, interference):
        golden("platforms/counters/trace_length_40k", lambda: interference)


class TestAcceleratorModels:
    def test_fpga_power_matches_paper(self):
        design = zynq_ba_accelerator()
        assert design.total_power_w == pytest.approx(0.417, abs=0.01)

    def test_asic_power_matches_navion(self):
        design = navion_asic()
        assert design.total_power_w == pytest.approx(0.024, abs=0.001)

    def test_fpga_fits_xc7z020(self):
        """The XC7Z020 has 220 DSP slices; the design must fit."""
        blocks = zynq_ba_accelerator().blocks.values()
        assert sum(block.dsp_slices for block in blocks) <= 220

    def test_block_throughput(self):
        design = zynq_ba_accelerator()
        engine = design.blocks["ba_matrix_engine"]
        assert engine.throughput_ops_s == pytest.approx(
            engine.lanes * 100e6 * engine.efficiency
        )

    def test_utilization_report_per_block(self):
        blocks = zynq_ba_accelerator().blocks
        assert set(blocks) == {
            "ba_matrix_engine", "feature_front_end", "tracking_solver",
        }

    def test_validation(self):
        from repro.platforms.accelerator import AcceleratorBlock

        with pytest.raises(ValueError):
            AcceleratorBlock("x", lanes=0, clock_hz=1e8, efficiency=0.9,
                             dsp_slices=1, bram_kb=1)
        with pytest.raises(ValueError):
            AcceleratorBlock("x", lanes=8, clock_hz=1e8, efficiency=1.2,
                             dsp_slices=1, bram_kb=1)


class TestProfilesAndFigure17:
    def test_rpi_ba_time_fraction_near_90pct(self, slam_mh01):
        """Paper: BA is ~90% of ORB-SLAM execution time on the RPi."""
        fraction = rpi4_profile().ba_time_fraction(slam_mh01.breakdown)
        assert 0.75 < fraction < 0.95

    def test_fpga_shifts_bottleneck_off_ba(self, slam_mh01):
        fpga_fraction = fpga_profile().ba_time_fraction(slam_mh01.breakdown)
        rpi_fraction = rpi4_profile().ba_time_fraction(slam_mh01.breakdown)
        assert fpga_fraction < rpi_fraction

    def test_geomeans_match_paper(self, slam_mh01):
        """TX2 2.16x, FPGA 30.7x, ASIC 23.53x (ours within ~25%)."""
        study = figure17_study([slam_mh01])
        assert study.geomean("TX2") == pytest.approx(2.16, rel=0.25)
        assert study.geomean("FPGA") == pytest.approx(30.7, rel=0.30)
        assert study.geomean("ASIC") == pytest.approx(23.53, rel=0.30)

    def test_fpga_beats_asic_beats_tx2(self, slam_mh01):
        study = figure17_study([slam_mh01])
        assert (
            study.geomean("FPGA")
            > study.geomean("ASIC")
            > study.geomean("TX2")
            > 1.0
        )

    def test_stage_speedups_reported(self, slam_mh01):
        study = figure17_study([slam_mh01])
        entry = study.for_sequence("MH01", "FPGA")
        assert entry.stage_speedup[Stage.LOCAL_BA] > 20.0
        assert entry.stage_speedup[Stage.FEATURE_EXTRACTION] > 5.0
        assert sum(entry.stage_time_share.values()) == pytest.approx(1.0)

    def test_all_implementations_meet_sensor_rate(self, slam_mh01):
        """Paper: even the slowest platform meets camera rates (20+ FPS)."""
        duration_s = slam_mh01.frames_processed / 20.0
        for profile in all_profiles():
            assert profile.total_time_s(slam_mh01.breakdown) < duration_s

    def test_unknown_platform_raises(self, slam_mh01):
        study = figure17_study([slam_mh01])
        with pytest.raises(KeyError):
            study.geomean("TPU")


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self, slam_mh01):
        return table5(figure17_study([slam_mh01]))

    def as_map(self, rows):
        return {row.platform: row for row in rows}

    def test_rpi_baseline_row(self, rows):
        rpi = self.as_map(rows)["RPi"]
        assert rpi.slam_speedup == 1.0
        assert rpi.gained_flight_time_small_min == 0.0

    def test_tx2_loses_flight_time(self, rows):
        """Paper Table 5: TX2 ~-4 min small, ~-1.5 min large."""
        tx2 = self.as_map(rows)["TX2"]
        assert -6.0 < tx2.gained_flight_time_small_min < -2.5
        assert -2.5 < tx2.gained_flight_time_large_min < -0.8

    def test_fpga_gains_match_paper(self, rows):
        """Paper: FPGA ~2-3 min small, ~1 min large."""
        fpga = self.as_map(rows)["FPGA"]
        assert 2.0 < fpga.gained_flight_time_small_min < 3.5
        assert 0.7 < fpga.gained_flight_time_large_min < 1.4

    def test_asic_gains_match_paper(self, rows):
        """Paper: ASIC ~2.2-3.2 min small, ~1 min large; only seconds
        better than FPGA."""
        mapped = self.as_map(rows)
        asic = mapped["ASIC"]
        fpga = mapped["FPGA"]
        assert 2.2 <= asic.gained_flight_time_small_min <= 3.4
        extra_seconds = (
            asic.gained_flight_time_small_min - fpga.gained_flight_time_small_min
        ) * 60.0
        assert 0.0 < extra_seconds < 40.0

    def test_cost_columns(self, rows):
        mapped = self.as_map(rows)
        assert mapped["ASIC"].integration_cost == "High"
        assert mapped["FPGA"].integration_cost == "Medium"
        assert mapped["RPi"].integration_cost == "Low"

    def test_fpga_is_best_platform(self, rows):
        """The paper's conclusion: FPGA is the most cost-effective."""
        assert best_platform(rows).platform == "FPGA"
