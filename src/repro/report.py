"""Regenerate every paper artifact into CSV files.

``python -m repro.report [output_dir]`` runs the full reproduction —
component fits, design-space sweeps, the commercial-drone studies, the
interference experiment, the power traces, the SLAM platform studies — and
writes one CSV per paper figure/table plus a summary.txt, so results can be
plotted or diffed without re-running anything.

This is the batch-mode counterpart of ``pytest benchmarks/``; the benches
assert the shapes, this module exports the data.
"""

from __future__ import annotations

import argparse
import csv
import os
from typing import Iterable, List, Optional


def _write_csv(path: str, headers: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))


def export_component_fits(output_dir: str, summary: List[str]) -> None:
    """Figures 7, 8a, 8b: recovered vs published fits."""
    from repro.components.catalog import generate_catalog
    from repro.core.tradeoffs import (
        compare_battery_fits,
        compare_esc_fits,
        fit_frame_weight,
    )

    catalog = generate_catalog()
    rows = [
        (c.label, c.recovered.slope, c.recovered.intercept,
         c.published.slope, c.published.intercept, c.recovered.r_squared)
        for c in compare_battery_fits(catalog)
    ]
    _write_csv(
        os.path.join(output_dir, "fig07_battery_fits.csv"),
        ("config", "slope", "intercept", "paper_slope", "paper_intercept",
         "r_squared"),
        rows,
    )
    rows = [
        (c.label, c.recovered.slope, c.recovered.intercept,
         c.published.slope, c.published.intercept)
        for c in compare_esc_fits(catalog)
    ]
    _write_csv(
        os.path.join(output_dir, "fig08a_esc_fits.csv"),
        ("class", "slope", "intercept", "paper_slope", "paper_intercept"),
        rows,
    )
    frame_fit = fit_frame_weight(catalog.frames)
    _write_csv(
        os.path.join(output_dir, "fig08b_frame_fit.csv"),
        ("slope", "intercept", "r_squared"),
        [(frame_fit.slope, frame_fit.intercept, frame_fit.r_squared)],
    )
    summary.append(
        f"fig07/08: fits recovered; frame fit "
        f"y = {frame_fit.slope:.3f}x + {frame_fit.intercept:.1f} "
        f"(paper 1.277x - 167.6)"
    )


def export_design_space(output_dir: str, summary: List[str]) -> None:
    """Figures 9, 10a-f, 11 and the commercial validation."""
    import numpy as np

    from repro.core.explorer import computation_footprint, sweep_wheelbase
    from repro.core.tradeoffs import motor_current_curves
    from repro.core.validation import (
        figure11_small_drone_study,
        validate_against_commercial,
    )

    rows = []
    for wheelbase in (50.0, 100.0, 200.0, 450.0, 800.0):
        for curve in motor_current_curves(
            wheelbase, basic_weights_g=np.arange(100.0, 1801.0, 100.0)
        ):
            for weight, current in zip(curve.basic_weights_g, curve.currents_a):
                rows.append(
                    (wheelbase, curve.cells, curve.propeller_inch,
                     weight, current, curve.kv_at_max_weight)
                )
    _write_csv(
        os.path.join(output_dir, "fig09_motor_current.csv"),
        ("wheelbase_mm", "cells", "prop_inch", "basic_weight_g",
         "current_a", "kv_at_max"),
        rows,
    )

    power_rows = []
    footprint_rows = []
    best_lines = []
    for wheelbase in (100.0, 450.0, 800.0):
        sweep = sweep_wheelbase(wheelbase)
        for point in sweep.points:
            power_rows.append(
                (wheelbase, point.cells, point.capacity_mah,
                 point.weight_g, point.hover_power_w, point.flight_time_min)
            )
        for chip, series in computation_footprint(sweep).items():
            for fp in series:
                footprint_rows.append(
                    (wheelbase, chip, fp.weight_g,
                     fp.share_hovering, fp.share_maneuvering)
                )
        best = sweep.best_configuration()
        best_lines.append(
            f"{wheelbase:.0f}mm best: {best.cells}S {best.capacity_mah:.0f} mAh"
            f" -> {best.flight_time_min:.1f} min @ {best.weight_g:.0f} g"
        )
    _write_csv(
        os.path.join(output_dir, "fig10abc_power_sweep.csv"),
        ("wheelbase_mm", "cells", "capacity_mah", "weight_g",
         "hover_power_w", "flight_time_min"),
        power_rows,
    )
    _write_csv(
        os.path.join(output_dir, "fig10def_compute_footprint.csv"),
        ("wheelbase_mm", "chip_w", "weight_g", "share_hovering",
         "share_maneuvering"),
        footprint_rows,
    )
    summary.extend(best_lines)

    _write_csv(
        os.path.join(output_dir, "fig10_validation_diamonds.csv"),
        ("drone", "weight_g", "model_hover_w", "implied_avg_w", "ratio"),
        [
            (p.drone.name, p.drone.weight_g, p.model_hover_power_w,
             p.implied_average_power_w, p.power_ratio)
            for p in validate_against_commercial()
        ],
    )
    _write_csv(
        os.path.join(output_dir, "fig11_small_drones.csv"),
        ("drone", "hover_w", "maneuver_w", "heavy_compute_share",
         "flight_time_min"),
        [
            (r.name, r.hovering_power_w, r.maneuvering_power_w,
             r.heavy_compute_share_hovering, r.flight_time_min)
            for r in figure11_small_drone_study()
        ],
    )


def export_reference_build(output_dir: str, summary: List[str]) -> None:
    """Figure 14."""
    from repro.reference.build import total_weight_g, weight_breakdown

    _write_csv(
        os.path.join(output_dir, "fig14_weight_breakdown.csv"),
        ("part", "weight_g", "share"),
        [(p.name, p.weight_g, p.share) for p in weight_breakdown()],
    )
    summary.append(f"fig14: reference drone total {total_weight_g():.0f} g")


def export_microarchitecture(output_dir: str, summary: List[str],
                             trace_length: int) -> None:
    """Figure 15 and the Table 2 rates."""
    from repro.platforms.perf import run_interference_study, separate_rpi_speedup

    report = run_interference_study(trace_length=trace_length)
    _write_csv(
        os.path.join(output_dir, "fig15_perf_counters.csv"),
        ("workload", "llc_miss_rate", "branch_miss_rate", "ipc"),
        [
            (name, row["llc_miss_rate_pct"] / 100.0,
             row["branch_miss_rate_pct"] / 100.0, row["ipc"])
            for name, row in report.figure15_rows().items()
        ],
    )
    summary.append(
        f"fig15: IPC degradation {report.ipc_degradation:.2f}x (paper 1.7x), "
        f"TLB x{report.tlb_miss_multiplier:.2f} (paper 4.5x), "
        f"separate-RPi {separate_rpi_speedup(report):.2f}x (paper 2.3x)"
    )


def export_power_traces(output_dir: str, summary: List[str]) -> None:
    """Figure 16."""
    from repro.sim.power_trace import figure16a_trace, figure16b_trace

    trace_a = figure16a_trace()
    _write_csv(
        os.path.join(output_dir, "fig16a_rpi_power.csv"),
        ("time_s", "power_w"),
        zip(trace_a.times_s, trace_a.powers_w),
    )
    trace_b = figure16b_trace()
    _write_csv(
        os.path.join(output_dir, "fig16b_drone_power.csv"),
        ("time_s", "power_w"),
        zip(trace_b.times_s, trace_b.powers_w),
    )
    summary.append(
        f"fig16: RPi phases "
        f"{trace_a.phase_mean_w('autopilot'):.2f}/"
        f"{trace_a.phase_mean_w('autopilot+slam-idle'):.2f}/"
        f"{trace_a.phase_mean_w('autopilot+slam-flying'):.2f} W; "
        f"drone avg {trace_b.mean_power_w(6, 36):.0f} W, "
        f"peak {trace_b.peak_power_w():.0f} W"
    )


def export_slam_studies(output_dir: str, summary: List[str],
                        max_frames: int) -> None:
    """Figure 17 and Table 5."""
    from repro.platforms.profiles import figure17_study, rpi4_profile, table5
    from repro.slam.dataset import all_sequence_names
    from repro.slam.pipeline import run_slam

    results = [
        run_slam(name, max_frames=max_frames) for name in all_sequence_names()
    ]
    study = figure17_study(results)
    rows = [
        (e.sequence, e.platform, e.total_speedup)
        for e in study.speedups
    ]
    _write_csv(
        os.path.join(output_dir, "fig17_slam_speedups.csv"),
        ("sequence", "platform", "speedup_over_rpi"),
        rows,
    )
    _write_csv(
        os.path.join(output_dir, "table5_platform_costs.csv"),
        ("platform", "speedup", "power_w", "weight_g", "integration",
         "fabrication", "gain_small_min", "gain_large_min"),
        [
            (r.platform, r.slam_speedup, r.power_overhead_w,
             r.weight_overhead_g, r.integration_cost, r.fabrication_cost,
             r.gained_flight_time_small_min, r.gained_flight_time_large_min)
            for r in table5(study)
        ],
    )
    rpi = rpi4_profile()
    ba_fractions = [rpi.ba_time_fraction(r.breakdown) for r in results]
    summary.append(
        f"fig17: GMEAN TX2 {study.geomean('TX2'):.2f}x (paper 2.16x), "
        f"FPGA {study.geomean('FPGA'):.2f}x (paper 30.70x), "
        f"ASIC {study.geomean('ASIC'):.2f}x (paper 23.53x); "
        f"RPi BA time share {min(ba_fractions):.0%}-{max(ba_fractions):.0%}"
    )


def generate_report(
    output_dir: str = "results",
    slam_frames: int = 80,
    trace_length: int = 60_000,
) -> List[str]:
    """Run every reproduction and export CSVs; returns the summary lines."""
    os.makedirs(output_dir, exist_ok=True)
    summary: List[str] = ["repro report — paper artifacts regenerated", ""]
    export_component_fits(output_dir, summary)
    export_design_space(output_dir, summary)
    export_reference_build(output_dir, summary)
    export_microarchitecture(output_dir, summary, trace_length)
    export_power_traces(output_dir, summary)
    export_slam_studies(output_dir, summary, slam_frames)
    with open(os.path.join(output_dir, "summary.txt"), "w") as handle:
        handle.write("\n".join(summary) + "\n")
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Regenerate every paper artifact into CSV files.",
    )
    parser.add_argument(
        "output_dir", nargs="?", default="results",
        help="directory for the CSVs and summary.txt (default: results)",
    )
    output_dir = parser.parse_args(argv).output_dir
    summary = generate_report(output_dir=output_dir)
    print("\n".join(summary))
    print(f"\nCSV artifacts written to {output_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
