"""CLI: ``python -m repro.analysis [paths...]``.

Exit status is 0 when clean, 1 when violations are found, 2 on usage
errors — the same contract CI relies on.  With ``--baseline FILE`` only
*new* violations (not fingerprinted in the file) are fatal;
``--update-baseline`` rewrites the file from the current run and exits 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import baseline as baseline_mod
from repro.analysis.base import ALL_RULES
from repro.analysis.runner import (
    analyze_paths,
    format_human,
    format_json,
    list_rules,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST lint suite: units, determinism, hot-path, config "
            "immutability, plus the interprocedural passes (inter-units, "
            "rng-taint, purity, hotpath-escape)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="gate only on violations not fingerprinted in FILE",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline FILE from this run's findings and exit 0",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the full JSON report to FILE (for CI artifacts)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0
    if args.update_baseline and not args.baseline:
        print("--update-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    rules: Optional[List[str]] = None
    if args.rules:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
        unknown = [rule for rule in rules if rule not in ALL_RULES]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    try:
        violations = analyze_paths(args.paths, rules=rules)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(format_json(violations))

    if args.update_baseline:
        baseline_mod.write(args.baseline, violations)
        print(
            f"baseline updated: {args.baseline} "
            f"({len(violations)} accepted finding(s))"
        )
        return 0

    if args.baseline:
        try:
            accepted = baseline_mod.load(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = baseline_mod.gate(violations, accepted)
        print(format_json(violations) if args.json else format_human(result.new))
        if not args.json and (result.known or result.fixed):
            print(
                f"baseline: {len(result.known)} accepted, "
                f"{result.fixed} fixed (safe to --update-baseline)"
            )
        return 1 if result.new else 0

    print(format_json(violations) if args.json else format_human(violations))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
