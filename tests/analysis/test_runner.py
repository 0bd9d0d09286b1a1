"""Runner plumbing: roles, module names, discovery, live-tree self-check."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_paths, get_rules
from repro.analysis.findings import Finding
from repro.analysis.runner import iter_python_files, module_name_of, role_of

REPO = Path(__file__).resolve().parents[2]


class TestRoleOf:
    def test_src_tree(self):
        assert role_of("src/repro/dram/engine.py") == "src"

    def test_tests_tree(self):
        assert role_of("tests/dram/test_engine.py") == "tests"

    def test_benchmarks_tree(self):
        assert role_of("benchmarks/bench_engine.py") == "benchmarks"

    def test_loose_file_defaults_to_strict(self):
        assert role_of("scratch.py") == "src"


class TestModuleNameOf:
    def test_src_module(self):
        assert module_name_of("src/repro/dram/engine.py") == \
            "repro.dram.engine"

    def test_package_init(self):
        assert module_name_of("src/repro/dram/__init__.py") == "repro.dram"

    def test_absolute_path(self):
        assert module_name_of("/root/repo/src/repro/cli.py") == "repro.cli"

    def test_outside_src_is_none(self):
        assert module_name_of("tests/dram/test_engine.py") is None

    def test_src_root_init_is_none(self):
        assert module_name_of("src/__init__.py") is None


class TestDiscovery:
    def test_skips_pycache_and_hidden(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\n')
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x=")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x=")
        found = list(iter_python_files([tmp_path]))
        assert [p.name for p in found] == ["a.py"]

    def test_single_file(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text('"""Doc."""\n')
        assert list(iter_python_files([target])) == [target]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files(["no/such/path"]))


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert [rule.id for rule in all_rules()] == \
            ["R002", "R003", "R004", "R005", "R006"]

    def test_select_subset(self):
        assert [r.id for r in get_rules(["R004", "R002"])] == \
            ["R002", "R004"]

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_rules(["R9"])

    def test_every_rule_has_summary_and_severity(self):
        for rule in all_rules():
            assert type(rule).summary()
            assert rule.severity in ("error", "warning")
            assert rule.roles


class TestFinding:
    def test_format_line(self):
        finding = Finding(path="a.py", line=3, col=7, rule="R004",
                          message="float equality")
        assert finding.format() == "a.py:3:7: R004 [error] float equality"

    def test_to_dict_round_trips_json(self):
        finding = Finding(path="a.py", line=3, col=7, rule="R004",
                          message="m", severity="warning")
        document = json.loads(json.dumps(finding.to_dict()))
        assert document == {"path": "a.py", "line": 3, "col": 7,
                            "rule": "R004", "message": "m",
                            "severity": "warning"}

    def test_sort_key_orders_by_position(self):
        a = Finding(path="a.py", line=2, col=0, rule="R002", message="m")
        b = Finding(path="a.py", line=2, col=4, rule="R003", message="m")
        c = Finding(path="b.py", line=1, col=0, rule="R003", message="m")
        assert sorted([c, b, a], key=lambda f: f.sort_key) == [a, b, c]


class TestSelfCheck:
    """The shipped tree holds its own invariants."""

    def test_src_tree_is_clean(self):
        findings, files = analyze_paths([str(REPO / "src")])
        assert findings == []
        assert files > 40  # the whole package, not an empty walk

    def test_analyzer_finds_an_injected_violation(self, tmp_path):
        # End-to-end sanity that the self-check can fail: a copy of a
        # real file plus one injected violation is caught at its line.
        original = (REPO / "src" / "repro" / "units.py").read_text()
        lines = original.splitlines()
        lines.append("import random")
        bad = tmp_path / "src" / "repro" / "units.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("\n".join(lines) + "\n")
        findings, _ = analyze_paths([str(bad)])
        assert [(f.rule, f.line) for f in findings] == \
            [("R002", len(lines))]
