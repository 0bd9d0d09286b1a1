"""Suppression directives: round-trip, unused, blanket, unknown-id."""

import textwrap

from repro.analysis import analyze_source


def _lint(source, **kwargs):
    kwargs.setdefault("role", "src")
    kwargs.setdefault("module", "repro.fixture")
    return analyze_source(textwrap.dedent(source), **kwargs)


VIOLATION = '''\
"""Doc."""
import random
'''

SUPPRESSED = '''\
"""Doc."""
import random  # repro: noqa[R002]
'''


class TestRoundTrip:
    def test_unsuppressed_fires(self):
        findings = _lint(VIOLATION)
        assert [f.rule for f in findings] == ["R002"]

    def test_suppression_silences_exactly_that_rule(self):
        assert _lint(SUPPRESSED) == []

    def test_multi_rule_directive(self):
        findings = _lint(
            '''\
            """Doc."""
            import random  # repro: noqa[R002, R004]
            ''')
        # R002 fires on that line and is suppressed; R004 does not,
        # so its half of the directive is reported unused.
        assert [f.rule for f in findings] == ["R000"]
        assert "R004" in findings[0].message

    def test_suppression_is_line_scoped(self):
        findings = _lint(
            '''\
            """Doc."""
            import math  # repro: noqa[R002]
            import random
            ''')
        rules = [f.rule for f in findings]
        assert "R002" in rules  # line 3 still fires
        assert "R000" in rules  # line 2 directive suppressed nothing


class TestBookkeeping:
    def test_unused_suppression_is_reported(self):
        findings = _lint(
            '''\
            """Doc."""
            import math  # repro: noqa[R002]
            ''')
        assert [f.rule for f in findings] == ["R000"]
        assert "unused suppression" in findings[0].message
        assert findings[0].line == 2

    def test_blanket_suppression_is_reported(self):
        findings = _lint(
            '''\
            """Doc."""
            import random  # repro: noqa
            ''')
        # The blanket directive suppresses nothing: R002 still fires
        # and the directive itself is an R000 finding.
        assert sorted(f.rule for f in findings) == ["R000", "R002"]
        directive = next(f for f in findings if f.rule == "R000")
        assert "blanket suppression" in directive.message

    def test_empty_rule_list_is_reported(self):
        findings = _lint(
            '''\
            """Doc."""
            import random  # repro: noqa[]
            ''')
        assert sorted(f.rule for f in findings) == ["R000", "R002"]
        directive = next(f for f in findings if f.rule == "R000")
        assert "empty suppression" in directive.message

    def test_unknown_rule_id_is_reported(self):
        findings = _lint(
            '''\
            """Doc."""
            import math  # repro: noqa[R999]
            ''')
        assert [f.rule for f in findings] == ["R000"]
        assert "unknown rule 'R999'" in findings[0].message

    def test_directive_in_string_literal_is_ignored(self):
        findings = _lint(
            '''\
            """Doc."""
            EXAMPLE = "# repro: noqa[R002]"
            ''')
        assert findings == []
