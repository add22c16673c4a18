"""CLI: ``python -m repro.chaos`` — run a chaos campaign end to end.

Flies a fixed-seed campaign, triages the failures, writes the campaign
report and config plus one black-box trace per failed trial, and (with
``--replay-failures``) re-flies every failure from its recorded spec to
verify bit-for-bit determinism.

With ``--checkpoint PATH`` the campaign runs under the fault-tolerant
execution layer (:mod:`repro.exec`): every completed ensemble group of
trials is journaled, worker deaths and hangs are retried, and a campaign
killed mid-run — worker SIGKILL or whole-process SIGKILL alike — can be
restarted with ``--checkpoint PATH --resume`` to continue from the last
completed group with bit-for-bit identical output.  A group that poisons
every retry is quarantined, and the trials it held are listed.  The
execution report is written next to the campaign artifacts as
``execution.json``.

Exit status: 0 on success, 1 when ``--replay-failures`` finds a replay
mismatch (a broken determinism contract), 2 on usage errors, among them a
``--resume`` whose journal was written with other campaign options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.chaos.campaign import CampaignConfig
from repro.chaos.runner import (
    CampaignRun,
    TrialResult,
    run_campaign,
    run_campaign_supervised,
    verify_replay,
)
from repro.chaos.triage import CampaignReport, triage
from repro.core.parallel import SweepRunnerConfig
from repro.exec.errors import JournalMismatchError
from repro.exec.policy import ExecutionPolicy
from repro.sim.simulator import MIN_PHYSICS_RATE_HZ


def _format_report(report: CampaignReport) -> str:
    lines = [
        f"chaos campaign seed={report.campaign_seed} trials={report.trials}",
        (
            f"  verdicts: safe={report.safe} violation={report.violations} "
            f"crash={report.crashes}"
        ),
        (
            f"  survival rate {report.survival_rate:.1%}, "
            f"clean rate {report.clean_rate:.1%}"
        ),
    ]
    if report.mttr_p50_s is not None:
        lines.append(
            "  failsafe reaction: "
            f"p50 {report.mttr_p50_s:.2f} s, "
            f"p90 {report.mttr_p90_s:.2f} s, "
            f"p99 {report.mttr_p99_s:.2f} s"
        )
    lines.append(
        "  mission completion: "
        f"mean {report.completion_mean:.0%}, "
        f"median {report.completion_p50:.0%}, "
        f"min {report.completion_min:.0%}"
    )
    if report.buckets:
        lines.append("  failure buckets (invariant x faults x failsafe):")
        for bucket in report.buckets:
            faults = "+".join(bucket.active_faults) or "none-active"
            lines.append(
                f"    {bucket.count:3d}x  {bucket.invariant}  "
                f"[{faults}]  {bucket.failsafe}"
            )
    return "\n".join(lines)


def _write_artifacts(
    output_dir: str,
    config: CampaignConfig,
    report: CampaignReport,
    results: List[TrialResult],
    run: Optional[CampaignRun] = None,
) -> None:
    """Write ``campaign.json`` (the report and the full config),
    ``execution.json`` and one trace per failed trial; each trace records
    its trial's spec and config, so it replays from its file alone."""
    os.makedirs(output_dir, exist_ok=True)
    if run is not None and run.execution is not None:
        execution_path = os.path.join(output_dir, "execution.json")
        with open(execution_path, "w", encoding="utf-8") as handle:
            handle.write(run.execution.to_json(indent=2))
    traces_dir = os.path.join(output_dir, "traces")
    report_path = os.path.join(output_dir, "campaign.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump({**report.to_dict(), "config": config.to_dict()}, handle, indent=2)
    failed = [result for result in results if result.trace is not None]
    if failed:
        os.makedirs(traces_dir, exist_ok=True)
    for result in failed:
        assert result.trace is not None
        trace_path = os.path.join(
            traces_dir, f"trial_{result.spec.trial_index:04d}.json"
        )
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(result.trace.to_json(indent=2))
    print(f"wrote {report_path} and {len(failed)} black-box trace(s)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's options; campaign defaults come from :class:`CampaignConfig`."""
    defaults = CampaignConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description=(
            "Generated fault campaigns with safety-invariant verdicts, "
            "black-box traces, and deterministic replay."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=defaults.campaign_seed, help="campaign seed"
    )
    parser.add_argument(
        "--trials", type=int, default=defaults.trials, help="trial count"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=defaults.duration_s,
        help="per-trial flight seconds",
    )
    parser.add_argument(
        "--physics-rate",
        type=float,
        default=defaults.physics_rate_hz,
        help=f"physics rate in Hz (>= {MIN_PHYSICS_RATE_HZ:g})",
    )
    parser.add_argument(
        "--max-faults",
        type=int,
        default=defaults.max_faults,
        help="max compound faults per trial",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="directory for campaign.json + traces/ (default: report only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: cpu count)",
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="run every trial in this process (hermetic mode)",
    )
    parser.add_argument(
        "--replay-failures",
        action="store_true",
        help="re-fly every failed trial and verify bit-for-bit determinism",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "run under the supervised execution layer and journal every "
            "completed ensemble group to PATH (JSON lines)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed campaign from its --checkpoint journal",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-group wall-clock budget before a hung worker is killed",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.checkpoint:
        exists = os.path.exists(args.checkpoint)
        if exists and not args.resume:
            print(
                f"error: checkpoint journal {args.checkpoint!r} already "
                "exists; pass --resume to continue it or remove the file",
                file=sys.stderr,
            )
            return 2
        if args.resume and not exists:
            print(
                f"error: --resume given but {args.checkpoint!r} does not exist",
                file=sys.stderr,
            )
            return 2

    try:
        config = CampaignConfig(
            campaign_seed=args.seed,
            trials=args.trials,
            duration_s=args.duration,
            physics_rate_hz=args.physics_rate,
            max_faults=args.max_faults,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner_config = SweepRunnerConfig(
        max_workers=args.workers, parallel=not args.inline
    )
    run: Optional[CampaignRun] = None
    if args.checkpoint:
        policy = (
            ExecutionPolicy(chunk_timeout_s=args.chunk_timeout)
            if args.chunk_timeout is not None
            else None
        )
        try:
            run = run_campaign_supervised(
                config,
                runner_config,
                journal_path=args.checkpoint,
                policy=policy,
            )
        except JournalMismatchError as exc:
            print(
                f"error: {exc}; resume with the options the journal was "
                "written with",
                file=sys.stderr,
            )
            return 2
        results = run.results
        if run.execution is not None:
            print(
                f"execution: state={run.execution.state} "
                f"resumed={run.execution.chunks_resumed} "
                f"retries={run.execution.retries} "
                f"worker_deaths={run.execution.worker_deaths} "
                f"hang_kills={run.execution.hang_kills}"
            )
        for record in run.quarantined:
            print(
                f"QUARANTINED ensemble group {record.item_index}: "
                f"{record.error_type}: {record.error_message} "
                f"({record.attempts} attempt(s))",
                file=sys.stderr,
            )
        if run.quarantined:
            judged = {result.spec.trial_index for result in results}
            missing = [i for i in range(config.trials) if i not in judged]
            print(f"QUARANTINED trials (not judged): {missing}", file=sys.stderr)
    else:
        results = run_campaign(config, runner_config)
    report = triage(results)
    print(_format_report(report))

    if args.output:
        _write_artifacts(args.output, config, report, results, run)

    if args.replay_failures:
        failed = [result for result in results if result.failed]
        mismatches = [
            result.spec.trial_index
            for result in failed
            if not verify_replay(result, config)
        ]
        if mismatches:
            print(
                f"REPLAY MISMATCH in trial(s): {mismatches} — "
                "the determinism contract is broken",
                file=sys.stderr,
            )
            return 1
        print(
            f"replay verified: {len(failed)}/{len(failed)} failed trial(s) "
            "reproduce bit-for-bit"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
