"""Transitive purity checking for ``@pure`` functions.

``@pure`` (see :mod:`repro.analysis.markers`) is a contract, not a hint:
the chaos engine replays trials and diffs the results, and the design
sweeps assume that the marked Equation 1-7 evaluators depend only on
their inputs.  This pass verifies the claim statically and
transitively.  A ``@pure`` function — and every callee the call graph can
resolve from it — must not:

* **write globals** — ``global`` statements, stores through module-level
  names (``_CACHE[key] = v``), or mutating method calls on module-level
  containers;
* **mutate its arguments** — stores or mutating calls rooted at a
  parameter, including numpy's ``out=`` idiom; callee argument mutations
  propagate to the caller only when the caller passed one of *its own*
  parameters (mutating a fresh local is fine);
* **touch ambient state** — wall clocks, ``open``/``print``/``input``,
  ``os.environ``/``urandom``, global RNG draws, logging.

Effects are summarized per function and iterated to a fixed point, so an
impure helper three calls deep still fails the ``@pure`` root.  The usual
``# repro: ignore[purity]`` comment at the ``@pure`` definition line is the
one escape hatch.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import Checker, SourceFile, Violation
from repro.analysis.flow import bind_call_args, fixpoint_summaries
from repro.analysis.graph import (
    CallSite,
    FunctionInfo,
    Program,
    attribute_chain,
    root_name,
)

#: One effect: (kind, parameter name or "", human description).
Effect = Tuple[str, str, str]
Summary = FrozenSet[Effect]

GLOBAL = "global"
PARAM = "param"
AMBIENT = "ambient"

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "sort", "reverse", "setdefault", "popitem",
    "write", "writelines", "appendleft", "popleft", "fill", "put",
}

#: numpy-style functions whose *first argument* is written in place.
_FIRST_ARG_MUTATORS = {"copyto", "put", "place", "putmask", "fill_diagonal", "shuffle"}

#: Dotted tails that read or write ambient process state.
_AMBIENT_TAILS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("os", "urandom"),
    ("os", "getenv"),
    ("os", "getpid"),
    ("os", "putenv"),
    ("environ", "get"),
    ("uuid", "uuid4"),
}

_AMBIENT_BARE = {"print", "input", "open", "exec", "eval", "globals", "vars"}

_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes", "open"}

#: numpy.random module functions that are *not* the legacy global RNG.
_NP_RANDOM_OK = {"default_rng", "Generator", "RandomState", "SeedSequence", "PCG64"}


class PurityChecker(Checker):
    """Verify ``@pure`` claims against transitive effect summaries."""

    rules = ("purity",)

    def check(
        self, files: Sequence[SourceFile], program: Optional[Program] = None
    ) -> List[Violation]:
        if program is None:
            program = Program.build(files)
        functions = list(program.functions())
        scopes = {fn.qualname: _Scope(program, fn) for fn in functions}
        summaries = fixpoint_summaries(
            functions,
            lambda fn, prior: self._summarize(program, fn, scopes, prior),
            max_rounds=12,
        )
        out: List[Violation] = []
        for fn in functions:
            if not fn.pure:
                continue
            effects = summaries.get(fn.qualname) or frozenset()
            for _, _, description in sorted(effects):
                self.emit(
                    out,
                    fn.src,
                    "purity",
                    fn.node,
                    f"{fn.qualname} is @pure but {description}",
                )
        return out

    # -- summaries -----------------------------------------------------------

    def _summarize(
        self,
        program: Program,
        fn: FunctionInfo,
        scopes: Dict[str, "_Scope"],
        summaries: Dict[str, Summary],
    ) -> Summary:
        scope = scopes[fn.qualname]
        effects: Set[Effect] = set(scope.base_effects)
        for site in program.call_sites(fn):
            for effect in summaries.get(site.callee.qualname) or frozenset():
                mapped = self._map_effect(effect, site, scope)
                if mapped is not None:
                    effects.add(mapped)
        return frozenset(effects)

    def _map_effect(
        self, effect: Effect, site: CallSite, scope: "_Scope"
    ) -> Optional[Effect]:
        kind, param, description = effect
        if " (via " not in description:
            description = f"{description} (via {site.callee.qualname})"
        if kind in (GLOBAL, AMBIENT):
            return (kind, "", description)
        # Parameter mutation: only impure for the caller when the argument
        # it passed is one of the caller's own parameters or a global.
        callee_params = site.callee.params
        if (
            site.kind in ("method", "constructor")
            and callee_params
            and param == callee_params[0]
        ):
            if site.kind == "constructor":
                return None  # mutating a freshly constructed object is fine
            root = site.receiver[0] if site.receiver else None
        else:
            bound = bind_call_args(
                site.callee, site.call, drop_receiver=site.kind != "function"
            )
            arg = bound.get(param)
            root = root_name(arg) if arg is not None else None
        return scope.classify_root(root, description)

    # (scope construction below does the single-function effect scan)


class _Scope:
    """Name classification and base (non-call) effects for one function."""

    def __init__(self, program: Program, fn: FunctionInfo) -> None:
        self.fn = fn
        module = program.modules.get(fn.module)
        self.module_globals: Set[str] = module.global_names if module else set()
        self.module_aliases: Set[str] = (
            set(module.module_aliases) if module else set()
        )
        self.params: Set[str] = set(fn.params)
        self.rebound: Set[str] = set()
        self.locals: Set[str] = set()
        self.base_effects: List[Effect] = []
        self._scan(fn.node, first=True)

    # -- scanning ------------------------------------------------------------

    def _scan(self, node: ast.FunctionDef, first: bool) -> None:
        if not first:
            self.locals.update(a.arg for a in (
                *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs
            ))
            self.locals.add(node.name)
        for stmt in ast.walk(node):
            if stmt is not node and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Nested defs are scanned for effects too (their stores can
                # still hit module globals), but their params become locals.
                self.locals.update(a.arg for a in (
                    *stmt.args.posonlyargs, *stmt.args.args, *stmt.args.kwonlyargs
                ))
                self.locals.add(stmt.name)
        # First pass: collect every plainly-bound name so stores through
        # locals are recognized regardless of statement order.
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._collect_bound(target)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    self._bind(stmt.target.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._collect_bound(stmt.target)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._collect_bound(item.optional_vars)
            elif isinstance(stmt, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in stmt.generators:
                    self._collect_bound(gen.target)
            elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
                self.locals.add(stmt.name)
            elif isinstance(stmt, ast.NamedExpr) and isinstance(stmt.target, ast.Name):
                self._bind(stmt.target.id)
        # Second pass: record the effects.
        for stmt in ast.walk(node):
            self._effects_of(stmt)

    def _collect_bound(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._collect_bound(element)
        elif isinstance(target, ast.Starred):
            self._collect_bound(target.value)

    def _bind(self, name: str) -> None:
        if name in self.params:
            self.rebound.add(name)
        else:
            self.locals.add(name)

    def _effects_of(self, stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Global):
            for name in stmt.names:
                self._add(
                    GLOBAL, "",
                    f"declares `global {name}` (line {stmt.lineno})",
                )
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                self._store_effect(target, stmt.lineno)
        elif isinstance(stmt, (ast.Delete,)):
            for target in stmt.targets:
                self._store_effect(target, stmt.lineno)
        elif isinstance(stmt, ast.Call):
            self._call_effects(stmt)

    def _store_effect(self, target: ast.expr, lineno: int) -> None:
        # A plain ``name = ...`` binds a local; only stores *through* a
        # name (``name[k] = ...``, ``name.attr = ...``) mutate an object.
        if isinstance(target, ast.Name):
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store_effect(element, lineno)
            return
        root = root_name(target)
        effect = self._classified(
            root, f"stores through {root!r} (line {lineno})", lineno
        )
        if effect is not None:
            self.base_effects.append(effect)

    def _call_effects(self, call: ast.Call) -> None:
        chain = attribute_chain(call.func)
        lineno = call.lineno
        if not chain:
            return
        tail = chain[-1]
        # Ambient state.
        if len(chain) == 1 and tail in _AMBIENT_BARE:
            self._add(AMBIENT, "", f"calls {tail}() (line {lineno})")
            return
        if len(chain) >= 2 and (chain[-2], tail) in _AMBIENT_TAILS:
            dotted = ".".join(chain)
            self._add(AMBIENT, "", f"reads ambient state via {dotted}() (line {lineno})")
            return
        if (
            len(chain) >= 3
            and chain[-2] == "random"
            and chain[0] in self.module_aliases
            and tail not in _NP_RANDOM_OK
        ):
            self._add(AMBIENT, "", f"draws from the global RNG ({'.'.join(chain)}, line {lineno})")
            return
        if chain[0] == "random" and len(chain) == 2 and tail not in ("Random",):
            if "random" in self.module_aliases:
                self._add(AMBIENT, "", f"draws from the global RNG (random.{tail}, line {lineno})")
                return
        if chain[0] == "logging" and chain[0] in self.module_aliases:
            self._add(AMBIENT, "", f"logs eagerly ({'.'.join(chain)}, line {lineno})")
            return
        if len(chain) >= 2 and tail in _IO_METHODS:
            # I/O on a local handle opened in-body was already flagged at
            # the open(); through a param or global it is this body's sin.
            effect = self._classified(
                chain[0], f"performs file I/O via .{tail}() (line {lineno})", lineno
            )
            if effect is not None:
                self.base_effects.append(effect)
        # In-place mutation through a receiver.
        if len(chain) >= 2 and tail in _MUTATING_METHODS:
            root = chain[0]
            effect = self._classified(
                root,
                f"mutates {'.'.join(chain[:-1])!r} in place via .{tail}() (line {lineno})",
                lineno,
            )
            if effect is not None:
                self.base_effects.append(effect)
        # numpy out= / first-argument mutators.
        for keyword in call.keywords:
            if keyword.arg == "out":
                root = root_name(keyword.value)
                effect = self._classified(
                    root, f"writes into out={root!r} (line {lineno})", lineno
                )
                if effect is not None:
                    self.base_effects.append(effect)
        if tail in _FIRST_ARG_MUTATORS and call.args:
            root = root_name(call.args[0])
            effect = self._classified(
                root, f"mutates first argument of {tail}() (line {lineno})", lineno
            )
            if effect is not None:
                self.base_effects.append(effect)

    def _classified(
        self, root: Optional[str], description: str, lineno: int
    ) -> Optional[Effect]:
        if root is None:
            return None
        if root in self.params and root not in self.rebound:
            return (PARAM, root, description)
        if root in self.locals or root in self.rebound:
            return None
        if root in self.module_aliases:
            return None
        if root in self.module_globals:
            return (GLOBAL, "", description)
        return None

    def classify_root(  # used by effect propagation
        self, root: Optional[str], description: str
    ) -> Optional[Effect]:
        return self._classified(root, description, 0)

    def _add(self, kind: str, param: str, description: str) -> None:
        self.base_effects.append((kind, param, description))
