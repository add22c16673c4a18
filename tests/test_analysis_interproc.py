"""Tests for the interprocedural analysis engine.

Covers the shared call graph (:mod:`repro.analysis.graph`) and the four
passes built on it: ``inter-units``, ``rng-taint``, ``purity``, and
``hotpath-escape``.  Fixture files pin exact (rule, line) behavior; the
rng-taint cases use virtual paths under ``src/repro/chaos`` because that
pass only fires inside the guarded packages.
"""

import time
from pathlib import Path

from repro.analysis import SourceFile, analyze_paths, analyze_sources
from repro.analysis.graph import Program

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]


def findings(name, rules=None):
    """(rule, line) pairs reported for one fixture file."""
    violations = analyze_paths([str(FIXTURES / name)], rules=rules)
    return [(v.rule, v.line) for v in violations]


def messages(name, rules=None):
    return [v.message for v in analyze_paths([str(FIXTURES / name)], rules=rules)]


GRAPH_SRC = '''
class Mixer:
    def __init__(self):
        self.gain = 1.0

    def apply(self, x):
        return self.scale(x)

    def scale(self, x):
        return x * self.gain


def helper(x):
    return x + 1


def pipeline(x):
    m = Mixer()
    return m.apply(helper(x))
'''


def _fn(program, suffix):
    return next(fn for fn in program.functions() if fn.qualname.endswith(suffix))


class TestCallGraph:
    def setup_method(self):
        src = SourceFile.parse("src/repro/core/virtual_graph.py", source=GRAPH_SRC)
        self.program = Program.build([src])

    def test_symbol_table_has_every_function(self):
        names = {fn.qualname.split(":")[1] for fn in self.program.functions()}
        assert names == {
            "Mixer.__init__",
            "Mixer.apply",
            "Mixer.scale",
            "helper",
            "pipeline",
        }

    def test_bare_name_typed_local_and_constructor_edges(self):
        pipeline = _fn(self.program, ":pipeline")
        edges = {
            (site.callee.qualname.split(":")[1], site.kind)
            for site in self.program.call_sites(pipeline)
        }
        assert ("helper", "function") in edges
        assert ("Mixer.apply", "method") in edges  # m: typed local
        assert ("Mixer.__init__", "constructor") in edges

    def test_self_method_edge(self):
        apply = _fn(self.program, "Mixer.apply")
        callees = [
            site.callee.qualname.split(":")[1]
            for site in self.program.call_sites(apply)
        ]
        assert callees == ["Mixer.scale"]


class TestUnitsSuffixes:
    """Satellite: the _pa/_kpa/_mah/_wh_kg/_n_m suffixes carry units."""

    def test_exact_findings(self):
        assert findings("units_suffixes.py") == [
            ("units-mismatch", 5),  # Pa + kPa (scale mismatch)
            ("units-mismatch", 6),  # N*m compared with Pa
            ("units-mismatch", 11),  # mAh - Wh/kg
        ]

    def test_same_unit_arithmetic_is_clean(self):
        assert all(line < 15 for _, line in findings("units_suffixes.py"))

    def test_messages_name_the_new_units(self):
        text = "\n".join(messages("units_suffixes.py"))
        for name in ("[Pa]", "[kPa]", "[N*m]", "[mAh]", "[Wh/kg]"):
            assert name in text


class TestInterUnits:
    def test_exact_findings(self):
        assert findings("interunits_bad.py", rules=["inter-units"]) == [
            ("inter-units", 14),  # thrust_n = hover_power_w(...)
            ("inter-units", 19),  # *_g function returns a [kg] value
            ("inter-units", 23),  # mass_kg parameter bound to [s]
        ]

    def test_clean_flows_are_silent(self):
        # power_w assignment (13), [N] chain through the env (27-29).
        lines = [line for _, line in findings("interunits_bad.py")]
        assert 13 not in lines
        assert all(line < 26 for line in lines)

    def test_messages_explain_the_flow(self):
        text = "\n".join(messages("interunits_bad.py", rules=["inter-units"]))
        assert "thrust_n [N] assigned a [W] value" in text
        assert "declared [g] but returns a [kg] value" in text
        assert "parameter 'mass_kg' [kg] bound to a [s] value" in text


TAINT_SRC = '''
import time
import numpy as np


def unseeded_trial(n):
    rng = np.random.default_rng()
    return rng.normal(size=n)


def literal_trial(n):
    rng = np.random.default_rng(42)
    return rng.normal(size=n)


def clock_trial(n):
    rng = np.random.default_rng(int(time.time()))
    return rng.normal(size=n)


def seeded_trial(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n)


def derived_trial(seed, trial_index, n):
    rng = np.random.default_rng((seed, trial_index, 17))
    return rng.normal(size=n)


def offset_trial(seed, n):
    rng = np.random.default_rng(seed + 17)
    return rng.normal(size=n)


def helper_rng(seed):
    return np.random.default_rng(seed)


def wrapped_clean(seed, n):
    rng = helper_rng(seed)
    return rng.normal(size=n)


def wrapped_literal(n):
    rng = helper_rng(7)
    return rng.normal(size=n)
'''


def taint_findings(module_path):
    src = SourceFile.parse(module_path, source=TAINT_SRC)
    return [
        (v.rule, v.line, v.message)
        for v in analyze_sources([src], rules=["rng-taint"])
    ]


class TestRngTaint:
    def test_exact_findings_inside_chaos(self):
        found = taint_findings("src/repro/chaos/virtual_trials.py")
        assert [(rule, line) for rule, line, _ in found] == [
            ("rng-taint", 7),  # default_rng()
            ("rng-taint", 12),  # default_rng(42)
            ("rng-taint", 17),  # default_rng(int(time.time()))
            ("rng-taint", 46),  # helper_rng(7): literal through the wrapper
        ]

    def test_messages_classify_the_taint(self):
        text = "\n".join(msg for _, _, msg in taint_findings("src/repro/chaos/virtual_trials.py"))
        assert "constructed without a seed" in text
        assert "hard-coded constant" in text
        assert "ambient state" in text

    def test_param_derived_seeds_are_clean(self):
        # seeded_trial (22), tuple (27), offset (32), wrapper (41): all quiet.
        lines = {line for _, line, _ in taint_findings("src/repro/chaos/virtual_trials.py")}
        assert lines.isdisjoint({22, 27, 32, 41})

    def test_faults_package_is_guarded_too(self):
        assert taint_findings("src/repro/faults/virtual_trials.py")

    def test_unguarded_modules_are_exempt(self):
        # Literal seeds are a legitimate idiom outside chaos/faults.
        assert taint_findings("src/repro/core/virtual_trials.py") == []


class TestPurity:
    def test_exact_findings(self):
        assert findings("purity_bad.py", rules=["purity"]) == [
            ("purity", 10),  # global statement
            ("purity", 17),  # module-level container mutation
            ("purity", 23),  # argument mutation
            ("purity", 29),  # ambient print()
            ("purity", 35),  # transitive: delegate -> stamp
        ]

    def test_messages_carry_the_mechanism(self):
        text = "\n".join(messages("purity_bad.py", rules=["purity"]))
        assert "declares `global _CALLS`" in text
        assert "mutates '_HISTORY' in place via .append()" in text
        assert "stores through 'sample'" in text
        assert "calls print()" in text

    def test_transitive_effect_names_the_callee(self):
        delegate = [
            msg for msg in messages("purity_bad.py", rules=["purity"])
            if "delegate" in msg
        ]
        assert len(delegate) == 1
        assert "(via purity_bad:stamp)" in delegate[0]

    def test_clean_functions_pass(self):
        # clean_math (39), clean_local_mutation (45) and clean_transitive
        # (52) contribute nothing.
        assert all(line < 39 for _, line in findings("purity_bad.py"))


class TestHotPathEscape:
    def test_exact_findings(self):
        assert findings("escape_bad.py", rules=["hotpath-escape"]) == [
            ("hotpath-escape", 7),  # f-string two calls deep
            ("hotpath-escape", 8),  # print() two calls deep
            ("hotpath-escape", 17),  # comprehension one call deep
        ]

    def test_messages_name_root_and_chain(self):
        text = "\n".join(messages("escape_bad.py", rules=["hotpath-escape"]))
        assert "reachable from @hot_path escape_bad:control_tick" in text
        assert "via escape_bad:middle -> escape_bad:leaf_logger" in text

    def test_clean_chain_and_safe_callee_are_silent(self):
        # clean_leaf/clean_middle (27-32) and @hot_path_safe tolerated (36)
        # are reachable from quiet_tick but report nothing.
        assert all(line < 26 for _, line in findings("escape_bad.py"))


class TestPerformance:
    def test_full_tree_analysis_under_ten_seconds(self):
        start = time.perf_counter()
        analyze_paths([str(REPO_ROOT / "src")])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"full-tree analysis took {elapsed:.1f}s"
