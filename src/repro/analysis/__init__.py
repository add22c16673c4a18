"""Static-analysis suite for the drone design-space reproduction.

The paper's Equations 1-7 chain watts, newtons, kilograms, and rad/s through
a dozen modules, and the fault matrix promises bit-for-bit reproducibility
per seed.  Both properties are conventions until something checks them; this
package checks them mechanically with four AST-based passes:

``units``
    Dimensional analysis driven by the variable-name suffix convention
    (``_kg``, ``_w``, ``_n``, ``_m_s`` ...).  Flags additions, subtractions,
    comparisons, and keyword-argument bindings that mix incompatible units.

``determinism``
    Flags unseeded global RNG use (``np.random.*``, ``random.*``),
    wall-clock reads (``time.time``, ``datetime.now``) and iteration over
    unordered sets — anything that would break the seedable-scenario
    guarantee.

``hotpath``
    A ``@hot_path`` marker for inner-loop code (controllers, mixer,
    estimator, sensor ``step``/``sample``) plus a lint that forbids
    comprehension allocation, file I/O, string formatting, and eager logging
    inside marked functions, and verifies resolvable transitive callees are
    marked too.

``config``
    Dataclasses used as shared configuration must be ``frozen=True`` or
    explicitly registered as mutable state with ``@mutable_state``.

Four *interprocedural* passes share a project-wide symbol table and call
graph (:mod:`repro.analysis.graph`) and a small flow framework
(:mod:`repro.analysis.flow`):

``inter-units``
    Unit inference across assignments, returns, and call bindings —
    ``thrust_n = hover_power_w(...)`` is flagged even though the mismatch
    is only visible through the callee's summary.

``rng-taint``
    Generators feeding ``repro.chaos``/``repro.faults`` must derive from
    an explicit seed parameter; unseeded, literal-seeded, and
    clock-seeded constructions are flagged.

``purity``
    ``@pure`` functions (chaos ``run_trial``, the Eq. 1-7 evaluators)
    must not transitively write globals, mutate arguments, or touch
    ambient state.

``hotpath-escape``
    The hot-path body rules, extended over the transitive call closure of
    every ``@hot_path`` root.

Run it with ``python -m repro.analysis src/``.  Suppress a finding on one
line with ``# repro: ignore[rule-id]`` (plus a justification; the older
``# lint:`` spelling still works).  CI gates on *new* findings only, via
``--baseline analysis-baseline.json``.
"""

from repro.analysis.base import Violation, SourceFile, ALL_RULES
from repro.analysis.markers import (
    hot_path,
    hot_path_safe,
    mutable_state,
    pure,
)
from repro.analysis.runner import analyze_paths, analyze_sources, format_human, format_json

__all__ = [
    "Violation",
    "SourceFile",
    "ALL_RULES",
    "hot_path",
    "hot_path_safe",
    "pure",
    "mutable_state",
    "analyze_paths",
    "analyze_sources",
    "format_human",
    "format_json",
]
