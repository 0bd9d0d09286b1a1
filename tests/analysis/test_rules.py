"""Per-rule fixture snippets: exact (rule, line, col) per finding."""

import ast
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_source
from repro.analysis.rules_quality import HOT_PATHS, _walk_functions
from repro.analysis.runner import module_name_of


def _lint(source, **kwargs):
    """Analyze a dedented snippet as production code by default."""
    kwargs.setdefault("role", "src")
    kwargs.setdefault("module", "repro.fixture")
    return analyze_source(textwrap.dedent(source), **kwargs)


def _triples(findings):
    return [(f.rule, f.line, f.col) for f in findings]


class TestR002Determinism:
    def test_import_random(self):
        findings = _lint(
            '''\
            """Doc."""
            import random
            ''')
        assert _triples(findings) == [("R002", 2, 0)]

    def test_from_random_import(self):
        findings = _lint(
            '''\
            """Doc."""
            from random import shuffle
            ''')
        assert _triples(findings) == [("R002", 2, 0)]

    def test_legacy_np_random(self):
        findings = _lint(
            '''\
            """Doc."""
            import numpy as np
            x = np.random.rand(4)
            ''')
        assert _triples(findings) == [("R002", 3, 4)]
        assert "np.random.rand" in findings[0].message

    def test_default_rng_is_sanctioned(self):
        findings = _lint(
            '''\
            """Doc."""
            import numpy as np
            rng = np.random.default_rng(7)
            gen = np.random.Generator(np.random.PCG64(7))
            ''')
        assert findings == []

    def test_wall_clock_read(self):
        findings = _lint(
            '''\
            """Doc."""
            import time
            t0 = time.perf_counter()
            ''')
        assert _triples(findings) == [("R002", 3, 5)]

    def test_wall_clock_import(self):
        findings = _lint(
            '''\
            """Doc."""
            from time import perf_counter
            ''')
        assert _triples(findings) == [("R002", 2, 0)]

    def test_datetime_now(self):
        findings = _lint(
            '''\
            """Doc."""
            import datetime
            stamp = datetime.datetime.now()
            ''')
        assert _triples(findings) == [("R002", 3, 8)]

    def test_bare_set_iteration(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(items):
                """Doc."""
                banks = {b for b in items}
                return [b + 1 for b in banks]
            ''')
        assert _triples(findings) == [("R002", 5, 27)]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_sorted_set_iteration_is_fine(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(items):
                """Doc."""
                banks = set(items)
                return [b + 1 for b in sorted(banks)]
            ''')
        assert findings == []

    def test_keys_iteration(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(d):
                """Doc."""
                out = []
                for key in d.keys():
                    out.append(key)
                return out
            ''')
        assert _triples(findings) == [("R002", 5, 15)]
        assert "dict.keys()" in findings[0].message

    def test_time_is_allowed_in_benchmarks(self):
        findings = _lint(
            '''\
            """Doc."""
            import time
            t0 = time.perf_counter()
            ''', role="benchmarks")
        assert findings == []


class TestR003UnitSuffixes:
    def test_adding_ps_to_ns(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(delay_ps, slack_ns):
                """Doc."""
                return delay_ps + slack_ns
            ''')
        assert _triples(findings) == [("R003", 4, 11)]
        assert "'delay_ps'" in findings[0].message
        assert "'slack_ns'" in findings[0].message

    def test_comparing_energy_to_time(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(total_pj, budget_ns):
                """Doc."""
                return total_pj < budget_ns
            ''')
        assert _triples(findings) == [("R003", 4, 11)]
        assert "energy" in findings[0].message
        assert "time" in findings[0].message

    def test_augmented_assignment(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(total_ps, extra_ns):
                """Doc."""
                total_ps += extra_ns
                return total_ps
            ''')
        assert _triples(findings) == [("R003", 4, 4)]

    def test_unit_inference_through_assignment(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(start_ps, limit_ns):
                """Doc."""
                deadline = limit_ns
                return start_ps - deadline
            ''')
        assert _triples(findings) == [("R003", 5, 11)]

    def test_same_family_is_fine(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(t_ps, dt_ps, e_pj, de_pj):
                """Doc."""
                return (t_ps + dt_ps, e_pj - de_pj, t_ps < dt_ps)
            ''')
        assert findings == []

    def test_multiplication_is_conversion(self):
        # Documented refinement: * and / convert between units.
        findings = _lint(
            '''\
            """Doc."""
            def f(power_mw, duration_ns):
                """Doc."""
                return power_mw * duration_ns
            ''')
        assert findings == []

    def test_min_max_preserve_units(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(a_ps, b_ps, c_ns):
                """Doc."""
                return min(a_ps, b_ps) + c_ns
            ''')
        assert _triples(findings) == [("R003", 4, 11)]


class TestR004FloatEquality:
    def test_float_inf_equality(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(gain):
                """Doc."""
                return gain == float("inf")
            ''')
        assert _triples(findings) == [("R004", 4, 11)]
        assert "math.isinf" in findings[0].message

    def test_nonsentinel_literal(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(x):
                """Doc."""
                return x != 0.25
            ''')
        assert _triples(findings) == [("R004", 4, 11)]

    def test_division_result(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(a, b, c):
                """Doc."""
                return a / b == c
            ''')
        assert _triples(findings) == [("R004", 4, 11)]

    def test_sentinel_literals_exempt(self):
        # Documented refinement: 0.0 and 1.0 are exact-representable
        # sentinels (e.g. `p_good == 0.0` selects the sparse path).
        findings = _lint(
            '''\
            """Doc."""
            def f(p_good, weight):
                """Doc."""
                return p_good == 0.0 or weight != 1.0
            ''')
        assert findings == []

    def test_ordering_comparisons_exempt(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(x):
                """Doc."""
                return 1.0 < x < float("inf")
            ''')
        assert findings == []

    def test_tests_role_exempt(self):
        findings = _lint(
            '''\
            """Doc."""
            def f(x):
                """Doc."""
                return x == 0.125
            ''', role="tests")
        assert findings == []


class TestR005HotLoop:
    HOT = "repro.dram.engine"

    def _hot(self, body):
        """Wrap a loop body inside the registered hot path."""
        return _lint(
            '''\
            """Doc."""
            class SchedulingEngine:
                """Doc."""

                def run(self):
                    """Doc."""
                    while True:
            ''' + textwrap.indent(textwrap.dedent(body), " " * 12),
            module=self.HOT, path="src/repro/dram/engine.py")

    def test_list_literal_in_hot_loop(self):
        findings = self._hot("x = [1, 2]\n")
        assert _triples(findings) == [("R005", 8, 16)]
        assert "hoist" in findings[0].message

    def test_dict_literal_in_hot_loop(self):
        findings = self._hot("x = {'a': 1}\n")
        assert _triples(findings) == [("R005", 8, 16)]

    def test_lambda_in_hot_loop(self):
        findings = self._hot("x = sorted(q, key=lambda e: e[1])\n")
        assert _triples(findings) == [("R005", 8, 30)]

    def test_comprehension_in_hot_loop(self):
        findings = self._hot("x = [e for e in q]\n")
        assert _triples(findings) == [("R005", 8, 16)]

    def test_getattr_in_hot_loop(self):
        findings = self._hot("x = getattr(obj, name)\n")
        assert _triples(findings) == [("R005", 8, 16)]

    def test_tuple_is_exempt(self):
        # Documented refinement: heap entries and multiple assignment
        # are tuples — idiomatic and cheap.
        assert self._hot("x = (1, 2)\n") == []

    def test_outside_loop_is_fine(self):
        findings = _lint(
            '''\
            """Doc."""
            class SchedulingEngine:
                """Doc."""

                def run(self):
                    """Doc."""
                    buf = []
                    while True:
                        buf.append(1)
            ''', module=self.HOT, path="src/repro/dram/engine.py")
        assert findings == []

    def test_unregistered_function_is_fine(self):
        findings = _lint(
            '''\
            """Doc."""
            def helper(q):
                """Doc."""
                while True:
                    x = [1, 2]
            ''', module=self.HOT, path="src/repro/dram/engine.py")
        assert findings == []

    def test_nested_helper_inherits_hotness(self):
        findings = _lint(
            '''\
            """Doc."""
            class SchedulingEngine:
                """Doc."""

                def run(self):
                    """Doc."""
                    def load_batch():
                        while True:
                            x = {1, 2}
            ''', module=self.HOT, path="src/repro/dram/engine.py")
        assert _triples(findings) == [("R005", 9, 20)]

    def test_every_registered_hot_path_resolves(self):
        """R005 visits only the names it finds, so a stale key checks nothing."""
        src = Path(repro.__file__).resolve().parent.parent
        found = set()
        for path in src.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.update(name for name, _ in
                         _walk_functions(tree, module_name_of(path)))
        assert sorted(set(HOT_PATHS) - found) == []


class TestR006Docstrings:
    def test_missing_module_docstring(self):
        findings = _lint("def f():\n    \"\"\"Doc.\"\"\"\n")
        assert _triples(findings) == [("R006", 1, 0)]

    def test_missing_function_docstring(self):
        findings = _lint(
            '''\
            """Doc."""
            def compute():
                return 1
            ''')
        assert _triples(findings) == [("R006", 2, 0)]
        assert "'compute'" in findings[0].message

    def test_missing_method_and_class_docstrings(self):
        findings = _lint(
            '''\
            """Doc."""
            class Engine:
                def run(self):
                    return 1
            ''')
        assert _triples(findings) == [("R006", 2, 0), ("R006", 3, 4)]
        assert "class" in findings[0].message
        assert "Engine.run" in findings[1].message

    def test_private_names_exempt(self):
        findings = _lint(
            '''\
            """Doc."""
            def _helper():
                return 1

            class _Scratch:
                def run(self):
                    return 1
            ''')
        assert findings == []

    def test_property_setter_exempt(self):
        findings = _lint(
            '''\
            """Doc."""
            class Box:
                """Doc."""

                @property
                def value(self):
                    """Doc."""
                    return self._v

                @value.setter
                def value(self, v):
                    self._v = v
            ''')
        assert findings == []

    def test_nested_defs_exempt(self):
        findings = _lint(
            '''\
            """Doc."""
            def outer():
                """Doc."""
                def inner():
                    return 1
                return inner
            ''')
        assert findings == []


class TestSyntaxError:
    def test_e999(self):
        findings = _lint('"""Doc."""\ndef f(:\n    pass\n')
        assert len(findings) == 1
        assert findings[0].rule == "E999"
        assert findings[0].line == 2
