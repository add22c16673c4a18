"""Determinism pass: protect the seedable-scenario guarantee.

The fault matrix promises bit-for-bit reproducibility per seed.  Three
things silently break that promise:

* the *global* RNGs (``np.random.rand`` and friends, stdlib ``random.*``) —
  all randomness must flow through an explicitly seeded
  ``np.random.default_rng(seed)`` / ``random.Random(seed)`` instance;
* wall-clock reads (``time.time``, ``datetime.now``) inside simulation
  code — simulated time comes from the sim clock, never the host;
* iterating an unordered ``set`` where the visit order feeds results —
  Python sets hash-order their elements, so two runs can disagree.
"""

from __future__ import annotations

import ast
from typing import Optional, List, Sequence, Set

from repro.analysis.base import Checker, SourceFile, Violation
from repro.analysis.graph import attribute_chain

#: np.random attributes that are fine: they construct seeded generators.
_SEEDED_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "Philox",
    "SFC64",
    "MT19937",
    "BitGenerator",
    "RandomState",  # legacy, but instantiated with an explicit seed
}

#: stdlib random attributes that are fine (seeded instance construction).
_STDLIB_OK = {"Random", "SystemRandom"}

#: Wall-clock callables, as dotted tails: matches time.time, datetime.now...
_WALLCLOCK_TAILS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}


class DeterminismChecker(Checker):
    """Flag global RNG use, wall-clock reads, and unordered-set iteration."""

    rules = ("det-global-rng", "det-wallclock", "det-set-order")

    def check(
        self, files: Sequence[SourceFile], program: Optional[object] = None
    ) -> List[Violation]:
        out: List[Violation] = []
        for src in files:
            random_aliases = _stdlib_random_aliases(src.tree)
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Call):
                    self._call(out, src, node, random_aliases)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    self._iteration(out, src, node.iter)
                elif isinstance(node, ast.comprehension):
                    self._iteration(out, src, node.iter)
        return out

    def _call(
        self,
        out: List[Violation],
        src: SourceFile,
        node: ast.Call,
        random_aliases: Set[str],
    ) -> None:
        chain = attribute_chain(node.func)
        if len(chain) < 2:
            return
        head, tail = chain[0], chain[-1]
        # np.random.<fn>(...) — any draw from the unseeded global generator.
        if (
            len(chain) >= 3
            and head in ("np", "numpy")
            and chain[-2] == "random"
            and tail not in _SEEDED_CONSTRUCTORS
        ):
            self.emit(
                out,
                src,
                "det-global-rng",
                node,
                f"np.random.{tail} draws from the unseeded global generator; "
                "use a np.random.default_rng(seed) instance",
            )
            return
        # random.<fn>(...) via the stdlib module.
        if head in random_aliases and len(chain) == 2 and tail not in _STDLIB_OK:
            self.emit(
                out,
                src,
                "det-global-rng",
                node,
                f"random.{tail} uses the process-global RNG; "
                "use random.Random(seed)",
            )
            return
        if (chain[-2], tail) in _WALLCLOCK_TAILS:
            self.emit(
                out,
                src,
                "det-wallclock",
                node,
                f"{'.'.join(chain)} reads the host clock; "
                "simulation time must come from the sim clock",
            )

    def _iteration(self, out: List[Violation], src: SourceFile, iter_node: ast.expr) -> None:
        if _is_unordered_set(iter_node):
            self.emit(
                out,
                src,
                "det-set-order",
                iter_node,
                "iteration over an unordered set; wrap in sorted(...) so the "
                "visit order is stable across runs",
            )


def _stdlib_random_aliases(tree: ast.AST) -> Set[str]:
    """Names under which the stdlib ``random`` module is imported."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    aliases.add(alias.asname or "random")
    return aliases


def _is_unordered_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        # a & b via set.intersection etc. is still a set, but resolving the
        # receiver's type statically is unreliable; only literal/constructor
        # forms are flagged.
    return False
