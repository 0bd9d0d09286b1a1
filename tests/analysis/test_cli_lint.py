"""The ``repro lint`` subcommand: exit codes, --json, --select, --list-rules."""

import json

import pytest

from repro.cli import main

CLEAN = '"""Doc."""\nX_PS = 5\n'
DIRTY = '"""Doc."""\nimport random\n'


@pytest.fixture
def clean_file(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN)
    return str(target)


@pytest.fixture
def dirty_file(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    return str(target)


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_file, capsys):
        assert main(["lint", dirty_file]) == 1
        out = capsys.readouterr().out
        assert "R002" in out
        assert ":2:0:" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, dirty_file, capsys):
        assert main(["lint", dirty_file, "--select", "R9"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestSelect:
    def test_deselected_rule_does_not_fire(self, dirty_file, capsys):
        assert main(["lint", dirty_file, "--select", "R004"]) == 0
        capsys.readouterr()

    def test_selected_rule_fires(self, dirty_file, capsys):
        assert main(["lint", dirty_file, "--select", "R002"]) == 1
        capsys.readouterr()


class TestJson:
    def test_document_shape(self, dirty_file, capsys):
        assert main(["lint", dirty_file, "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["files"] == 1
        assert document["errors"] == 1
        assert document["warnings"] == 0
        (finding,) = document["findings"]
        assert finding["rule"] == "R002"
        assert finding["line"] == 2
        assert finding["col"] == 0

    def test_clean_document(self, clean_file, capsys):
        assert main(["lint", clean_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["findings"] == []


class TestListRules:
    def test_catalogue_lists_all_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R002", "R003", "R004", "R005", "R006"):
            assert rule_id in out
        assert "R001" not in out
        assert "severity" in out
