"""Shared plumbing for the analysis passes: violations, parsed sources,
suppression comments, and the checker interface."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence

#: Every rule id the suite can emit, with a one-line description.
ALL_RULES: Dict[str, str] = {
    "units-mismatch": "arithmetic or comparison mixes incompatible units",
    "det-global-rng": "unseeded global RNG call (np.random.* / random.*)",
    "det-wallclock": "wall-clock read (time.time / datetime.now) in simulation code",
    "det-set-order": "iteration over an unordered set feeds results",
    "hot-alloc": "comprehension allocation inside a @hot_path function",
    "hot-io": "file I/O inside a @hot_path function",
    "hot-format": "string formatting inside a @hot_path function",
    "hot-log": "eager logging/printing inside a @hot_path function",
    "hot-callee": "@hot_path function calls an unmarked, non-whitelisted callee",
    "config-mutable": "config-shaped dataclass is neither frozen nor @mutable_state",
    "inter-units": "unit mismatch across assignments, returns, or call bindings",
    "rng-taint": "randomness in chaos/faults does not derive from a seed parameter",
    "purity": "@pure function transitively mutates arguments, globals, or ambient state",
    "hotpath-escape": "hot-path violation in a callee transitively reachable from @hot_path",
}

#: Both comment dialects are honored: ``# lint: ignore[rule]`` (PR 2) and
#: ``# repro: ignore[rule]`` (the baseline-era spelling).
_SUPPRESS_RE = re.compile(r"#\s*(?:lint|repro):\s*ignore(?:\[([a-z0-9_\-,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*(?:lint|repro):\s*skip-file")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class SourceFile:
    """A parsed module plus its suppression map.

    ``module`` is the dotted import path when the file sits under a
    recognizable package root (``src/repro/...`` or ``repro/...``); the
    hot-path pass uses it to resolve cross-module calls.
    """

    path: str
    source: str
    tree: ast.AST = field(repr=False)
    module: str = ""
    #: line -> rule ids suppressed on that line; empty set means all rules.
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict, repr=False)
    skip_all: bool = False

    @classmethod
    def parse(cls, path: str, source: Optional[str] = None) -> "SourceFile":
        if source is None:
            source = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(source, filename=path)
        suppressions: Dict[int, FrozenSet[str]] = {}
        skip_all = False
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" not in line:
                continue
            if _SKIP_FILE_RE.search(line):
                skip_all = True
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = match.group(1)
            if rules is None:
                suppressions[lineno] = frozenset()
            else:
                suppressions[lineno] = frozenset(
                    rule.strip() for rule in rules.split(",") if rule.strip()
                )
        return cls(
            path=path,
            source=source,
            tree=tree,
            module=_module_name(path),
            suppressions=suppressions,
            skip_all=skip_all,
        )

    def suppressed(self, rule: str, line: int) -> bool:
        if self.skip_all:
            return True
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return not rules or rule in rules


class Checker:
    """Base class for one analysis pass.

    Subclasses override :meth:`check`, which sees the *whole* file set so
    cross-file passes (hot-path callee resolution) fit the same interface
    as purely local ones.  The runner builds one shared
    :class:`~repro.analysis.graph.Program` (symbol table + call graph) per
    run and hands it to every pass via ``program``; passes that analyze a
    single file at a time simply ignore it, and a pass invoked standalone
    (``program=None``) builds its own.
    """

    #: Rule ids this checker can emit (for --rules filtering and docs).
    rules: Sequence[str] = ()

    def check(
        self, files: Sequence[SourceFile], program: Optional[object] = None
    ) -> List[Violation]:
        raise NotImplementedError

    def emit(
        self,
        out: List[Violation],
        src: SourceFile,
        rule: str,
        node: ast.AST,
        message: str,
    ) -> None:
        """Record ``rule`` at ``node`` unless a comment suppresses it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if src.suppressed(rule, line):
            return
        out.append(Violation(rule=rule, path=src.path, line=line, col=col, message=message))


def _module_name(path: str) -> str:
    """Best-effort dotted module path for ``path`` (used for call resolution)."""
    parts = Path(path).with_suffix("").parts
    for anchor in ("repro",):
        if anchor in parts:
            dotted = parts[parts.index(anchor) :]
            if dotted and dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return Path(path).stem


def decorator_name(node: ast.expr) -> str:
    """Trailing identifier of a decorator expression (``a.b.c()`` -> ``c``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""
