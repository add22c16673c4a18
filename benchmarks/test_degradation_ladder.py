"""Robustness benchmark: the autonomy degradation ladder, end to end.

Drives the perception fault matrix (feature droughts, frame corruption,
compute throttling) through the supervised SLAM pipeline and the
unsupervised baseline, replays a burst-lossy offload stream through the
fallback chain, and prices every fallback tier in the paper's design-space
currency (watts, flight minutes, deadline misses).  The acceptance bar:
the supervised pipeline recovers a valid pose in >=90% of loss episodes
and never emits NaN/Inf, while the baseline demonstrably dead-reckons into
unbounded error/staleness.  Every number is bit-for-bit deterministic.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.autopilot.mavlink import GilbertElliott, Link
from repro.autopilot.offload import OffboardComputeNode
from repro.faults import perception_scenarios
from repro.platforms.profiles import rpi4_profile, tx2_profile
from repro.resilience import (
    OffloadSupervisor,
    degradation_study,
    fallback_tier_costs,
    rpi4_compute_thermal,
    run_perception_scenario,
    simulate_fallback_chain,
    thermal_deadline_study,
    tx2_compute_thermal,
)

from conftest import print_table

#: Host-dependent floats, so the artifact goes to the git-ignored
#: ``.benchmarks/`` directory, not the tracked ``results/``.
RESULTS_JSON = pathlib.Path(__file__).resolve().parent.parent / ".benchmarks" / (
    "degradation_ladder.json"
)


@pytest.fixture(scope="module")
def study_pairs():
    """(supervised, baseline) outcomes over the perception fault matrix."""
    return degradation_study()


def test_supervised_pipeline_recovers(study_pairs):
    rows = [
        (
            supervised.scenario,
            supervised.loss_episodes,
            f"{supervised.recovery_rate:.0%}",
            f"{supervised.mean_frames_to_recover:.1f}",
            supervised.reinitializations,
            f"{supervised.ate_rmse_m:.2f} m",
            f"{baseline.ate_rmse_m:.2f} m",
            baseline.tracking_failures,
        )
        for supervised, baseline in study_pairs
    ]
    print_table(
        "Perception fault matrix: supervised recovery vs baseline drift",
        (
            "scenario", "episodes", "recovered", "frames to recover",
            "reinits", "ATE (supervised)", "ATE (baseline)", "baseline failures",
        ),
        rows,
    )

    episodes = sum(s.loss_episodes for s, _ in study_pairs)
    recovered = sum(s.recovered_episodes for s, _ in study_pairs)
    # The fault matrix must actually cause tracking loss...
    assert episodes >= 5
    # ...and the ladder must recover >=90% of the episodes it opens.
    assert recovered / episodes >= 0.9
    for supervised, _ in study_pairs:
        # Valid pose throughout: no NaN/Inf ever reaches the trajectory.
        assert supervised.all_finite
        assert supervised.recovery_rate >= 0.9
        assert np.isfinite(supervised.ate_rmse_m)


def test_baseline_demonstrably_degrades(study_pairs):
    faulted = [
        (supervised, baseline)
        for supervised, baseline in study_pairs
        if supervised.loss_episodes > 0
    ]
    assert faulted
    for supervised, baseline in faulted:
        # The unsupervised pipeline dead-reckons through the fault: failures
        # pile up for the whole window instead of being recovered in a few
        # frames.
        assert baseline.tracking_failures >= 50
        assert baseline.tracking_failures > supervised.tracking_failures
    # Across the faulted matrix the ladder at least halves the final drift.
    supervised_drift = sum(s.final_pose_error_m for s, _ in faulted)
    baseline_drift = sum(b.final_pose_error_m for _, b in faulted)
    assert supervised_drift < 0.6 * baseline_drift


def test_degradation_study_is_deterministic():
    scenario = perception_scenarios()[0]
    first = run_perception_scenario(scenario, supervised=True)
    second = run_perception_scenario(scenario, supervised=True)
    assert first.fingerprint() == second.fingerprint()


def test_fallback_chain_bounds_staleness(slam_results):
    result = slam_results[0]  # MH01
    duration_s = result.frames_processed / 20.0

    def stream():
        link = Link(
            seed=13,
            burst_model=GilbertElliott(
                p_good_to_bad=0.08, p_bad_to_good=0.15,
                loss_good=0.0, loss_bad=1.0,
            ),
        )
        node = OffboardComputeNode(
            platform=tx2_profile(), link=link,
            crash_at_s=1.5, recover_at_s=3.0,
        )
        return node.process_stream(result)

    baseline = simulate_fallback_chain(stream(), duration_s, supervisor=None)
    supervised = simulate_fallback_chain(
        stream(), duration_s, supervisor=OffloadSupervisor()
    )
    # Pinned to the off-board stream, staleness grows with the outage.
    assert not baseline.bounded
    assert baseline.worst_consumer_staleness_s > 1.4
    # The chain steps down within the staleness limit and holds the bound.
    assert supervised.bounded
    assert supervised.worst_consumer_staleness_s <= 0.6
    assert supervised.step_downs >= 1


def test_fallback_tier_costs_table(slam_results):
    result = slam_results[0]
    costs = fallback_tier_costs(result)
    rows = [
        (
            cost.tier,
            f"{cost.compute_power_w:.1f} W",
            f"{cost.flight_time_delta_min:+.2f} min",
            f"{cost.deadline_miss_rate:.1%}",
        )
        for cost in costs
    ]
    print_table(
        "Fallback tier costs (small drone, 50 W hover, 15 min baseline)",
        ("tier", "compute power", "flight time", "deadline misses"),
        rows,
    )
    by_tier = {cost.tier: cost for cost in costs}
    # Onboard SLAM is the expensive tier: it pays the platform's full power
    # overhead, so it costs the most flight time.
    assert (
        by_tier["ONBOARD_REDUCED"].compute_power_w
        > by_tier["OFFBOARD"].compute_power_w
        > by_tier["DEAD_RECKONING"].compute_power_w
    )
    for cost in costs:
        assert cost.flight_time_delta_min < 0.0
        assert cost.flight_time_delta_min == pytest.approx(
            -cost.compute_power_w / 50.0 * 15.0
        )
    assert 0.0 <= by_tier["ONBOARD_REDUCED"].deadline_miss_rate <= 1.0


def test_thermal_throttling_costs_deadlines(slam_results):
    result = slam_results[0]
    platform = rpi4_profile()
    rpi4 = thermal_deadline_study(
        result, platform, rpi4_compute_thermal(), duration_s=600.0
    )
    tx2 = thermal_deadline_study(
        result, platform, tx2_compute_thermal(), duration_s=600.0
    )
    rows = [
        (
            name,
            f"{study.peak_temperature_c:.0f} C",
            f"{study.final_scale:.2f}",
            study.throttle_events,
            study.final_stride,
            f"{study.report_nominal.miss_rate:.1%}",
            f"{study.report_throttled.miss_rate:.1%}",
        )
        for name, study in (("rpi4 (bare SoC)", rpi4), ("tx2 (heatsink)", tx2))
    ]
    print_table(
        "Thermal throttling: 10 min sustained SLAM load",
        (
            "thermal profile", "peak temp", "final clock", "throttles",
            "frame stride", "nominal misses", "throttled misses",
        ),
        rows,
    )
    # The bare RPi4 SoC must hit its DVFS trigger within ten minutes...
    assert rpi4.throttled
    assert rpi4.throttle_events >= 1
    assert rpi4.peak_temperature_c >= 79.0
    # ...while the heatsinked TX2 rides out the same load at full clock.
    assert not tx2.throttled
    assert tx2.throttle_events == 0
    # Throttling never melts down into a shutdown, and the skip policy keeps
    # the processed stream's miss rate bounded.
    assert rpi4.peak_temperature_c < 90.0
    assert rpi4.report_throttled.miss_rate <= 0.5


def test_write_degradation_artifact(study_pairs, slam_results):
    """Persist the study as JSON — the CI robustness job uploads this."""
    result = slam_results[0]
    payload = {
        "perception_matrix": [
            {
                "scenario": supervised.scenario,
                "supervised": {
                    "loss_episodes": supervised.loss_episodes,
                    "recovered_episodes": supervised.recovered_episodes,
                    "recovery_rate": supervised.recovery_rate,
                    "mean_frames_to_recover": supervised.mean_frames_to_recover,
                    "reinitializations": supervised.reinitializations,
                    "numerical_faults": supervised.numerical_faults,
                    "ate_rmse_m": supervised.ate_rmse_m,
                    "final_pose_error_m": supervised.final_pose_error_m,
                    "all_finite": supervised.all_finite,
                },
                "baseline": {
                    "tracking_failures": baseline.tracking_failures,
                    "ate_rmse_m": baseline.ate_rmse_m,
                    "final_pose_error_m": baseline.final_pose_error_m,
                    "all_finite": baseline.all_finite,
                },
            }
            for supervised, baseline in study_pairs
        ],
        "fallback_tier_costs": [
            {
                "tier": cost.tier,
                "compute_power_w": cost.compute_power_w,
                "flight_time_delta_min": cost.flight_time_delta_min,
                "deadline_miss_rate": cost.deadline_miss_rate,
            }
            for cost in fallback_tier_costs(result)
        ],
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    assert json.loads(RESULTS_JSON.read_text())["perception_matrix"]
