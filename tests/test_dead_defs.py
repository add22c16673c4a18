"""Guard: every top-level ``def``/``class`` under ``src/``, and every member
of a class there, has a reader outside ``tests/``.

A definition that only tests read is code the system does not run: no
figure, report, example, benchmark or perfbench workload reaches it.  This
test fails on each one, naming its file, so such code is deleted rather
than kept alive by its own tests.

A class member is any ``def`` in a class body (a property and its setter
are one member) or any class-body assignment or annotated assignment: enum
members, dataclass fields and class constants, in nested classes too.  A
member is reported as ``Class.member``.

Readers are the ``.py`` files under ``src/``, ``examples/``, ``benchmarks/``
and ``perfbench/``.  A read is any occurrence of the name as a word token
in a reader file, strings and comments included (perfbench's layer tracer
wraps entry points by their string names).  Two kinds of occurrence do not
count: the definition's own lines, and package ``__init__`` files, which
only re-export names (by import, ``__all__`` or ``repro.exec``'s lazy
export table) without reading them.  Three kinds of name are not checked,
because Python calls them by name: dunders (a module's ``__getattr__``, a
class's ``__post_init__``), and the ``visit_*`` and ``generic_visit``
methods of an ``ast.NodeVisitor`` subclass.

The scan builds one token count over all reader files, so a name shared by
two definitions counts as read for both: it can miss dead code, never flag
live code.  A top-level function and a method of one name, a facade method
beside the method it forwards to (``dronekit.Vehicle.upload_mission`` beside
``Autopilot.upload_mission``), and a ``FlightVehicle`` protocol member
beside its implementations each pass if any one of them is read.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

READER_ROOTS = ("src", "examples", "benchmarks", "perfbench")

#: Definitions kept without a reader, each with the reason it stays, keyed
#: ``module.name`` or ``module.Class.member``.  An entry that no longer
#: names a definition, or whose definition has gained a reader, fails the
#: test, so this list can only shrink.
KEEP = {
    "repro.components.catalog.clear_catalog_cache": (
        "the invalidate hook of cached_catalog in DESIGN.md's keyed-cache "
        "table"
    ),
    "repro.core.tradeoffs.clear_fit_cache": (
        "the invalidate hook of catalog_fits in DESIGN.md's keyed-cache table"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DUNDER = re.compile(r"__\w+__")


def _node_lines(node):
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def _is_node_visitor(cls):
    """Whether *cls* names ``NodeVisitor`` (bare or as ``ast.NodeVisitor``)
    among its bases."""
    return any(getattr(base, "id", getattr(base, "attr", None)) == "NodeVisitor"
               for base in cls.bases)


def _member_names(node):
    """Yield the member names one class-body statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def _definitions(body, prefix=""):
    """Yield ``(qualname, name, nodes)`` for each checked definition in a
    module *body*: its top-level ``def``/``class`` and every member of its
    classes, nested classes included.  A property and its setter are one
    member with two nodes."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                 ast.AsyncFunctionDef)):
            continue
        if not prefix and not _DUNDER.fullmatch(node.name):
            yield node.name, node.name, [node]
        if not isinstance(node, ast.ClassDef):
            continue
        cls = f"{prefix}{node.name}"
        visitor = _is_node_visitor(node)
        members = {}
        for statement in node.body:
            for name in _member_names(statement):
                if _DUNDER.fullmatch(name) or (visitor and (
                        name.startswith("visit_") or name == "generic_visit")):
                    continue
                members.setdefault(name, []).append(statement)
        for name, nodes in members.items():
            yield f"{cls}.{name}", name, nodes
        yield from _definitions(
            [child for child in node.body if isinstance(child, ast.ClassDef)],
            f"{cls}.")


def scan(root, keep=KEEP):
    """Return one message per unread ``src/`` definition or class member
    under *root* and per stale *keep* entry, sorted."""
    root = Path(root)
    reads = Counter()
    definitions = {}  # qualname -> (relative path, local name, name, own)
    for top in READER_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            if top != "src":
                reads.update(_WORD.findall(text))
                continue
            counted = path.name != "__init__.py"
            if counted:
                reads.update(_WORD.findall(text))
            lines = text.splitlines()
            parts = path.relative_to(root / "src").with_suffix("").parts
            module = ".".join(p for p in parts if p != "__init__")
            tree = ast.parse(text, filename=str(path))
            for local, name, nodes in _definitions(tree.body):
                numbers = {number for node in nodes
                           for number in _node_lines(node)}
                own = Counter(word for number in numbers
                              for word in _WORD.findall(lines[number - 1]))
                definitions[f"{module}.{local}"] = (
                    path.relative_to(root).as_posix(), local, name,
                    own[name] if counted else 0)
    problems = []
    for qualname, (path, local, name, own) in definitions.items():
        read = reads[name] > own
        if not read and qualname not in keep:
            problems.append(f"{path}: {local} has no reader outside tests/")
        elif read and qualname in keep:
            problems.append(f"KEEP entry {qualname} has a reader now; "
                            f"drop it from KEEP")
    for qualname in keep:
        if qualname not in definitions:
            problems.append(f"KEEP entry {qualname} names no definition")
    return sorted(problems)


def test_every_src_definition_has_a_reader_outside_tests():
    problems = scan(REPO)
    assert not problems, "\n".join(problems)


def test_every_keep_entry_gives_a_reason():
    assert all(isinstance(reason, str) and reason.strip()
               for reason in KEEP.values())


class TestScan:
    """The scan itself, on a small tree."""

    @staticmethod
    def _tree(tmp_path, files):
        for relative, text in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return tmp_path

    def test_a_definition_read_only_by_tests_is_reported(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": "def helper():\n    return helper\n",
            "tests/test_mod.py": "from pkg.mod import helper\nhelper()\n",
        })
        assert scan(root, keep={}) == [
            "src/pkg/mod.py: helper has no reader outside tests/"]

    def test_a_definition_read_by_an_example_is_not_reported(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": "def helper():\n    return 1\n",
            "examples/demo.py": "from pkg.mod import helper\nhelper()\n",
        })
        assert scan(root, keep={}) == []

    def test_a_package_reexport_is_not_a_reader(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/__init__.py": (
                "from pkg.mod import (\n    helper,\n)\n\n"
                "__all__ = [\n    \"helper\",\n]\n"),
            "src/pkg/mod.py": "class helper:\n    pass\n",
        })
        assert scan(root, keep={}) == [
            "src/pkg/mod.py: helper has no reader outside tests/"]

    def test_a_definition_in_a_package_init_is_checked(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/__init__.py": "def used():\n    pass\n",
            "examples/demo.py": "import pkg\npkg.used()\n",
        })
        assert scan(root, keep={}) == []

    def test_a_stale_keep_entry_is_reported(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": "def hook():\n    pass\n\n\ndef used():\n"
                              "    pass\n\n\nused()\n",
        })
        assert scan(root, keep={"pkg.mod.hook": "reset hook",
                                "pkg.mod.gone": "deleted",
                                "pkg.mod.used": "read now"}) == [
            "KEEP entry pkg.mod.gone names no definition",
            "KEEP entry pkg.mod.used has a reader now; drop it from KEEP",
        ]

    def test_a_method_read_only_by_tests_is_reported(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": ("class Tool:\n    def used(self):\n"
                               "        return 1\n\n"
                               "    def spare(self):\n        return 2\n\n\n"
                               "Tool().used()\n"),
            "tests/test_mod.py": "from pkg.mod import Tool\nTool().spare()\n",
        })
        assert scan(root, keep={}) == [
            "src/pkg/mod.py: Tool.spare has no reader outside tests/"]

    def test_a_property_read_by_an_example_is_not_reported(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": ("class Tool:\n    @property\n"
                               "    def size(self):\n        return 1\n\n"
                               "    @size.setter\n"
                               "    def size(self, value):\n        pass\n"),
            "examples/demo.py": "from pkg.mod import Tool\nprint(Tool().size)\n",
        })
        assert scan(root, keep={}) == []

    def test_node_visitor_hooks_are_not_checked(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": ("import ast\n\n\n"
                               "class Scanner(ast.NodeVisitor):\n"
                               "    def visit_Call(self, node):\n"
                               "        self.generic_visit(node)\n\n"
                               "    def generic_visit(self, node):\n"
                               "        pass\n\n\n"
                               "Scanner().visit(ast.parse(''))\n"),
        })
        assert scan(root, keep={}) == []

    def test_an_unread_enum_member_and_field_are_reported(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": ("import enum\nfrom dataclasses import dataclass"
                               "\n\n\nclass Mode(enum.Enum):\n"
                               "    ON = 1\n    OFF = 2\n\n\n"
                               "@dataclass\nclass Spec:\n    mass_g: float\n"
                               "    label: str = ''\n\n\n"
                               "print(Mode.ON, Spec(1.0).mass_g)\n"),
        })
        assert scan(root, keep={}) == [
            "src/pkg/mod.py: Mode.OFF has no reader outside tests/",
            "src/pkg/mod.py: Spec.label has no reader outside tests/",
        ]

    def test_member_keep_entries_are_honoured_until_stale(self, tmp_path):
        files = {
            "src/pkg/mod.py": ("class Cache:\n    def clear(self):\n"
                               "        pass\n\n\nCache()\n"),
        }
        keep = {"pkg.mod.Cache.clear": "reset hook"}
        assert scan(self._tree(tmp_path / "kept", files), keep=keep) == []
        files["examples/demo.py"] = "from pkg.mod import Cache\nCache().clear()\n"
        assert scan(self._tree(tmp_path / "read", files), keep=keep) == [
            "KEEP entry pkg.mod.Cache.clear has a reader now; drop it from KEEP"]
        files = {"src/pkg/mod.py": "class Cache:\n    pass\n\n\nCache()\n"}
        assert scan(self._tree(tmp_path / "gone", files), keep=keep) == [
            "KEEP entry pkg.mod.Cache.clear names no definition"]

    def test_a_member_of_a_nested_class_is_checked(self, tmp_path):
        root = self._tree(tmp_path, {
            "src/pkg/mod.py": ("class Outer:\n    class Inner:\n"
                               "        LIMIT = 3\n\n\nprint(Outer.Inner)\n"),
        })
        assert scan(root, keep={}) == [
            "src/pkg/mod.py: Outer.Inner.LIMIT has no reader outside tests/"]
