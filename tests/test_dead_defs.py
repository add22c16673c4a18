"""Guard: every top-level ``def``/``class`` under ``src/`` has a reader
outside ``tests/``.

A definition that only tests read is code the system does not run: no
figure, report, example, benchmark or perfbench workload reaches it.  This
test fails on each one, naming its file, so such code is deleted rather
than kept alive by its own tests.

Readers are the ``.py`` files under ``src/``, ``examples/``, ``benchmarks/``
and ``perfbench/``.  A read is any occurrence of the definition's name as a
word token in a reader file, strings and comments included (perfbench's
layer tracer wraps entry points by their string names).  Two kinds of
occurrence do not count: the definition's own lines, and package
``__init__`` files, which only re-export names (by import, ``__all__`` or
``repro.exec``'s lazy export table) without reading them.  Dunder hooks
such as a module's ``__getattr__`` are read by the interpreter and are not
checked.  The scan builds one token count over all reader files, so a name
shared by two definitions counts as read for both: it can miss dead code,
never flag live code.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

READER_ROOTS = ("src", "examples", "benchmarks", "perfbench")

#: Definitions kept without a reader, each with the reason it stays.  An
#: entry that no longer names a definition, or whose definition has gained
#: a reader, fails the test, so this list can only shrink.
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


def scan(root, keep=KEEP):
    """Return one message per unread ``src/`` definition under *root* and
    per stale *keep* entry, sorted."""
    root = Path(root)
    reads = Counter()
    definitions = {}  # qualname -> (relative path, name, own-line count)
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
            for node in ast.parse(text, filename=str(path)).body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                      ast.AsyncFunctionDef))
                        and not _DUNDER.fullmatch(node.name)):
                    own = Counter(word for number in _node_lines(node)
                                  for word in _WORD.findall(lines[number - 1]))
                    definitions[f"{module}.{node.name}"] = (
                        path.relative_to(root).as_posix(), node.name,
                        own[node.name] if counted else 0)
    problems = []
    for qualname, (path, name, own) in definitions.items():
        read = reads[name] > own
        if not read and qualname not in keep:
            problems.append(f"{path}: {name} has no reader outside tests/")
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
