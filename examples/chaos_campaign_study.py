#!/usr/bin/env python
"""Chaos campaign study: mapping the failure surface of the flight stack.

The hand-written fault matrix (``examples/failsafe_study.py``) probes ten
known corners of the reliability envelope.  This example explores the
*interior*: it samples a fixed-seed campaign of compound fault schedules —
random kinds, onsets, durations, severities, with overlapping windows —
flies every trial under the safety-invariant monitor, and triages the
failures into buckets keyed by ``violated invariant x active faults x
failsafe state``.

It then demonstrates the black-box workflow on the worst failure: dump its
flight-recorder trace to JSON, reload it, and re-fly the trial from the
trace alone to show the bit-for-bit replay contract.

Run:  python examples/chaos_campaign_study.py
"""

from repro.chaos import (
    CampaignConfig,
    replay_trial,
    run_campaign,
    triage,
)
from repro.chaos.recorder import BlackBoxTrace
from repro.core.parallel import SweepRunnerConfig

CONFIG = CampaignConfig(
    campaign_seed=2021,
    trials=40,
    duration_s=20.0,
    physics_rate_hz=200.0,
    max_faults=3,
)


def main() -> None:
    print(f"== Chaos campaign: {CONFIG.trials} trials, seed {CONFIG.campaign_seed} ==")
    results = run_campaign(CONFIG, SweepRunnerConfig(parallel=False))
    report = triage(results)
    print(
        f"verdicts: {report.safe} safe / {report.violations} violation / "
        f"{report.crashes} crash"
    )
    print(
        f"survival rate {report.survival_rate:.0%}, "
        f"clean rate {report.clean_rate:.0%}"
    )
    if report.mttr_p50_s is not None:
        print(
            f"failsafe reaction: p50 {report.mttr_p50_s:.2f} s, "
            f"p90 {report.mttr_p90_s:.2f} s"
        )

    print()
    print("== Failure buckets (biggest first) ==")
    if not report.buckets:
        print("no failures to bucket")
    for bucket in report.buckets:
        faults = "+".join(bucket.active_faults) or "no-active-fault"
        print(
            f"{bucket.count:3d}x  {bucket.invariant:<22s} "
            f"[{faults}]  {bucket.failsafe}"
        )

    failed = [result for result in results if result.failed]
    if not failed:
        print("\nevery trial flew clean — nothing to replay")
        return

    worst = max(
        failed, key=lambda result: (result.verdict == "crash", -result.min_soc)
    )
    assert worst.trace is not None
    print()
    print(f"== Black-box post-mortem: trial {worst.spec.trial_index} ==")
    print(f"verdict: {worst.verdict} ({worst.violated_invariant})")
    print(f"schedule: {[e.kind.value for e in worst.spec.schedule.events]}")
    for time_s, text in worst.trace.events[-4:]:
        print(f"  {time_s:6.1f} s  {text}")
    print(
        f"recorder: {len(worst.trace.ticks)} ticks retained, "
        f"{worst.trace.dropped_ticks} rolled out of the ring"
    )

    print()
    print("== Replay from the trace file alone ==")
    restored = BlackBoxTrace.from_json(worst.trace.to_json())
    replayed = replay_trial(restored, restored.config)
    print(f"identical metrics:     {replayed.metrics() == worst.metrics()}")
    print(
        "identical trace:       "
        f"{replayed.trace is not None and replayed.trace.fingerprint() == worst.trace.fingerprint()}"
    )


if __name__ == "__main__":
    main()
