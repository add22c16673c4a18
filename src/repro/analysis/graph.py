"""Project-wide symbol table and call graph.

Every interprocedural pass — unit inference, RNG taint, purity, hot-path
escape — needs the same two structures: a symbol table over the whole
analyzed file set (modules, classes with attribute types, functions with
their decorators) and resolved call edges between those functions.  This
module builds both once per run; the passes share the :class:`Program`.

Resolution is deliberately an *under*-approximation: an edge exists only
when the callee can be named statically.  Covered forms:

* bare names — local definitions and ``from x import y [as z]``;
* ``self.method()`` and ``self.attr.method()`` chains typed through
  dataclass field annotations or ``self.x = ClassName(...)`` assignments;
* local instances: ``x = ClassName(...); x.method()``;
* module-attribute calls: ``from repro.physics import constants;
  constants.grams_to_newtons(...)`` and fully-dotted ``import`` roots;
* constructor calls ``ClassName(...)``, resolved to ``__init__`` when one
  is defined (edges carry ``kind="constructor"``).

Unresolvable receivers (numpy objects, callables stored in data, values
returned from calls) produce no edge, so downstream passes stay quiet
rather than crying wolf.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import SourceFile, decorator_name

#: Decorator names the markers module exports, as seen in source.
HOT_DECORATOR = "hot_path"
SAFE_DECORATOR = "hot_path_safe"
PURE_DECORATOR = "pure"


@dataclass
class FunctionInfo:
    """One function or method definition in the analyzed set."""

    node: ast.FunctionDef
    module: str
    cls: Optional[str]
    src: SourceFile
    decorators: FrozenSet[str] = frozenset()

    @property
    def qualname(self) -> str:
        if self.cls:
            return f"{self.module}:{self.cls}.{self.node.name}"
        return f"{self.module}:{self.node.name}"

    @property
    def hot(self) -> bool:
        return HOT_DECORATOR in self.decorators

    @property
    def safe(self) -> bool:
        return SAFE_DECORATOR in self.decorators

    @property
    def pure(self) -> bool:
        return PURE_DECORATOR in self.decorators

    @property
    def params(self) -> List[str]:
        """Positional + keyword parameter names, in declaration order."""
        args = self.node.args
        return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]

    @property
    def self_name(self) -> Optional[str]:
        """The receiver parameter name, for methods (usually ``self``)."""
        if self.cls is None:
            return None
        args = self.node.args
        ordered = [*args.posonlyargs, *args.args]
        if not ordered:
            return None
        if any(decorator_name(d) == "staticmethod" for d in self.node.decorator_list):
            return None
        return ordered[0].arg


@dataclass
class ClassInfo:
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> type name, from field annotations / __init__ assigns.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    src: SourceFile
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: ``from x import y as z`` -> {"z": ("x", "y")}
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: names bound by plain ``import x[.y] [as z]`` (module namespaces).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: every name bound at module scope (functions, classes, imports, assigns).
    global_names: Set[str] = field(default_factory=set)


@dataclass
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at ``call``."""

    call: ast.Call
    caller: FunctionInfo
    callee: FunctionInfo
    #: "function", "method" (has a receiver expression), or "constructor".
    kind: str
    #: Receiver attribute chain for method calls (e.g. ["self", "mixer"]).
    receiver: Tuple[str, ...] = ()


class Program:
    """Symbol table plus resolved call edges over every analyzed file."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._edges: Dict[str, List[CallSite]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "Program":
        program = cls()
        for src in files:
            program.add_file(src)
        return program

    def add_file(self, src: SourceFile) -> ModuleInfo:
        info = ModuleInfo(name=src.module, src=src)
        for node in src.tree.body:  # type: ignore[attr-defined]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = _function_info(node, src, None)
                info.functions[node.name] = fn
                info.global_names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = _class_info(node, src)
                info.global_names.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    info.imports[bound] = (node.module, alias.name)
                    info.global_names.add(bound)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        info.module_aliases[alias.asname] = alias.name
                        info.global_names.add(alias.asname)
                    else:
                        root = alias.name.split(".", 1)[0]
                        info.module_aliases[root] = root
                        info.global_names.add(root)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in _bound_names(target):
                        info.global_names.add(name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                info.global_names.add(node.target.id)
        self.modules[src.module] = info
        return info

    # -- lookups ------------------------------------------------------------

    def functions(self) -> Iterator[FunctionInfo]:
        """Every function and method in the analyzed set, in stable order."""
        for module in self.modules.values():
            yield from module.functions.values()
            for klass in module.classes.values():
                yield from klass.methods.values()

    def resolve_class(self, module: str, name: str) -> Optional[ClassInfo]:
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.classes:
            return info.classes[name]
        target = info.imports.get(name)
        if target is not None:
            target_module, symbol = target
            target_info = self.modules.get(target_module)
            if target_info is not None:
                return target_info.classes.get(symbol)
        return None

    def resolve_function(self, module: str, name: str) -> Optional[FunctionInfo]:
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.functions:
            return info.functions[name]
        target = info.imports.get(name)
        if target is not None:
            target_module, symbol = target
            target_info = self.modules.get(target_module)
            if target_info is not None:
                return target_info.functions.get(symbol)
        return None

    def method_on(
        self, cls: ClassInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls`` and its resolvable base classes."""
        seen = _seen or set()
        key = f"{cls.module}:{cls.name}"
        if key in seen:
            return None
        seen.add(key)
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_cls = self.resolve_class(cls.module, base)
            if base_cls is not None:
                found = self.method_on(base_cls, name, seen)
                if found is not None:
                    return found
        return None

    # -- call edges ----------------------------------------------------------

    def call_sites(self, fn: FunctionInfo) -> List[CallSite]:
        """Resolved call edges out of ``fn`` (cached per function)."""
        cached = self._edges.get(fn.qualname)
        if cached is None:
            cached = self._resolve_edges(fn)
            self._edges[fn.qualname] = cached
        return cached

    def _resolve_edges(self, fn: FunctionInfo) -> List[CallSite]:
        local_types = self._local_types(fn)
        edges: List[CallSite] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                site = self._resolve_call(fn, node, local_types)
                if site is not None:
                    edges.append(site)
        return edges

    def _local_types(self, fn: FunctionInfo) -> Dict[str, ClassInfo]:
        """``name -> class`` for locals assigned from ``ClassName(...)``.

        Names re-assigned to anything else are dropped (ambiguous).
        """
        types: Dict[str, ClassInfo] = {}
        poisoned: Set[str] = set()
        for node in ast.walk(fn.node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                klass = self._constructed_class(fn.module, value)
                if klass is not None and target.id not in poisoned:
                    if target.id in types and types[target.id] is not klass:
                        poisoned.add(target.id)
                        del types[target.id]
                    else:
                        types[target.id] = klass
                else:
                    poisoned.add(target.id)
                    types.pop(target.id, None)
        return types

    def _constructed_class(
        self, module: str, value: Optional[ast.expr]
    ) -> Optional[ClassInfo]:
        if not isinstance(value, ast.Call):
            return None
        callee = value.func
        if isinstance(callee, ast.Name):
            return self.resolve_class(module, callee.id)
        return None

    def _resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        local_types: Dict[str, ClassInfo],
    ) -> Optional[CallSite]:
        chain = attribute_chain(call.func)
        if not chain:
            return None
        if len(chain) == 1:
            name = chain[0]
            target = self.resolve_function(fn.module, name)
            if target is not None:
                return CallSite(call=call, caller=fn, callee=target, kind="function")
            klass = self.resolve_class(fn.module, name)
            if klass is not None:
                init = self.method_on(klass, "__init__")
                if init is not None:
                    return CallSite(
                        call=call, caller=fn, callee=init, kind="constructor"
                    )
            return None
        # Receiver rooted at ``self``.
        if chain[0] == fn.self_name and fn.cls is not None:
            klass = self.resolve_class(fn.module, fn.cls)
            return self._walk_attr_chain(fn, call, klass, chain)
        # Receiver rooted at a typed local (``x = ClassName(...)``).
        if chain[0] in local_types:
            return self._walk_attr_chain(fn, call, local_types[chain[0]], chain)
        # Receiver rooted at an imported module object.
        return self._resolve_module_chain(fn, call, chain)

    def _walk_attr_chain(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        klass: Optional[ClassInfo],
        chain: List[str],
    ) -> Optional[CallSite]:
        for attr in chain[1:-1]:
            if klass is None:
                return None
            type_name = klass.attr_types.get(attr)
            if type_name is None:
                return None
            klass = self.resolve_class(klass.module, type_name)
        if klass is None:
            return None
        method = self.method_on(klass, chain[-1])
        if method is None:
            return None
        return CallSite(
            call=call,
            caller=fn,
            callee=method,
            kind="method",
            receiver=tuple(chain[:-1]),
        )

    def _resolve_module_chain(
        self, fn: FunctionInfo, call: ast.Call, chain: List[str]
    ) -> Optional[CallSite]:
        info = self.modules.get(fn.module)
        if info is None:
            return None
        head = chain[0]
        candidates: List[Tuple[str, List[str]]] = []
        imported = info.imports.get(head)
        if imported is not None:
            target_module, symbol = imported
            candidates.append((f"{target_module}.{symbol}", chain[1:]))
        if head in info.module_aliases:
            # ``import a.b.c`` binds ``a``; try every dotted prefix of the
            # remaining chain as the module path.
            for split in range(len(chain) - 1, 0, -1):
                dotted = ".".join(chain[:split])
                candidates.append((dotted, chain[split:]))
        for module_name, rest in candidates:
            target_info = self.modules.get(module_name)
            if target_info is None or not rest:
                continue
            if len(rest) == 1:
                target = target_info.functions.get(rest[0])
                if target is not None:
                    return CallSite(
                        call=call, caller=fn, callee=target, kind="function"
                    )
        return None


def _function_info(
    node: ast.FunctionDef, src: SourceFile, cls: Optional[str]
) -> FunctionInfo:
    names = frozenset(decorator_name(d) for d in node.decorator_list)
    return FunctionInfo(
        node=node, module=src.module, cls=cls, src=src, decorators=names
    )


def _class_info(node: ast.ClassDef, src: SourceFile) -> ClassInfo:
    info = ClassInfo(module=src.module, name=node.name, node=node)
    for base in node.bases:
        if isinstance(base, ast.Name):
            info.bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            info.bases.append(base.attr)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = _function_info(stmt, src, node.name)
            _harvest_self_assigns(stmt, info)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            type_name = _annotation_type_name(stmt.annotation)
            if type_name is not None:
                info.attr_types[stmt.target.id] = type_name
    return info


def _harvest_self_assigns(method: ast.FunctionDef, info: ClassInfo) -> None:
    """Record ``self.x = ClassName(...)`` attribute types from a method body."""
    ordered = [*method.args.posonlyargs, *method.args.args]
    if not ordered:
        return
    self_name = ordered[0].arg
    for node in ast.walk(method):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, ast.Call):
            continue
        callee = value.func
        type_name: Optional[str] = None
        if isinstance(callee, ast.Name):
            type_name = callee.id
        elif isinstance(callee, ast.Attribute):
            type_name = callee.attr
        if type_name is None or not type_name[:1].isupper():
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
                and target.attr not in info.attr_types
            ):
                info.attr_types[target.attr] = type_name


def _annotation_type_name(annotation: ast.expr) -> Optional[str]:
    """Extract a plain class name from a field annotation, if unambiguous."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value.strip()
        return name if name.isidentifier() else None
    return None


def _bound_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)


def attribute_chain(node: ast.expr) -> List[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when the head is not a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def root_name(node: ast.expr) -> Optional[str]:
    """The base identifier an expression reads or writes through, if any.

    ``a.b[c].d`` -> ``a``; calls, literals, and arbitrary expressions have
    no root (None) — mutation through them is untracked.
    """
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
            continue
        return None
