"""The finding record every rule emits.

A finding pins one invariant violation to an exact source location:
``(path, line, col)`` plus the rule id, severity and a human message.
Findings order deterministically (path, then position, then rule) so
human output, JSON output and the fixture tests all see one stable
sequence regardless of rule execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

#: Severities a rule may assign: ``error`` findings fail ``repro lint``,
#: ``warning`` findings are reported but do not affect the exit code.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at an exact source position.

    Attributes:
        path: the analyzed file (as given to the runner).
        line: 1-based source line of the violating node.
        col: 0-based column of the violating node.
        rule: rule id (``R002`` … ``R006``; ``R000`` for suppression
            bookkeeping violations).
        message: human-readable description of the violation.
        severity: ``error`` or ``warning`` (see :data:`SEVERITIES`).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        """Deterministic ordering key: path, position, rule id."""
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """The finding as a JSON-serializable mapping."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def format(self) -> str:
        """The conventional one-line human rendering."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")
