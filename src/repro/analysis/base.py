"""Rule protocol and registry.

A rule is a small class with a stable id (``R002`` …; a retired id is
never reused, since suppressions name rules by id), a kebab-case name,
a severity, and a :meth:`Rule.check` method that walks one parsed file
and yields :class:`~repro.analysis.findings.Finding` records.
Rules register themselves with the :func:`register` decorator at import
time; :func:`all_rules` returns one instance of each, id-ordered, and
is what the runner and the CLI consume.

Rules also declare the file *roles* they apply to: the proof discipline
constrains production code under ``src/``, while ``tests/`` and
``benchmarks/`` are exactly where wall clocks may be read — so most
rules default to the ``src`` role only.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analysis.findings import Finding

#: File roles the runner derives from a path: production code under
#: ``src/`` (also the default for loose files), test code under
#: ``tests/``, benchmark code under ``benchmarks/``.
ROLES = ("src", "tests", "benchmarks")


@dataclass
class FileContext:
    """Everything a rule may inspect about one analyzed file.

    Attributes:
        path: the file path as given to the runner (used in findings).
        source: the raw source text.
        tree: the parsed ``ast.Module``.
        role: one of :data:`ROLES`.
        module: the dotted module name when the file lies under a
            ``src`` root (e.g. ``repro.dram.engine``), else ``None`` —
            rules keyed by dotted names (hot-path registration) need it.
    """

    path: str
    source: str
    tree: ast.Module
    role: str = "src"
    module: Optional[str] = None

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a finding for ``rule`` at ``node``'s position."""
        return Finding(path=self.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), rule=rule.id,
                       message=message, severity=rule.severity)


class Rule(abc.ABC):
    """One invariant checker.

    Subclasses set the class attributes and implement :meth:`check`;
    the docstring's first paragraph doubles as the rule's catalogue
    summary (``repro lint --list-rules`` and the docs-site page).
    """

    #: Stable rule id (``R002`` … ``R006``).
    id: str = ""
    #: Kebab-case rule name (shown in ``--list-rules``).
    name: str = ""
    #: Finding severity, one of
    #: :data:`repro.analysis.findings.SEVERITIES`.
    severity: str = "error"
    #: File roles the rule applies to (subset of :data:`ROLES`).
    roles: Tuple[str, ...] = ("src",)

    @abc.abstractmethod
    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield every violation found in ``context``."""

    @classmethod
    def summary(cls) -> str:
        """First line of the rule's docstring (catalogue text)."""
        doc = cls.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else cls.name


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry.

    Raises:
        ValueError: on a duplicate or malformed rule id.
    """
    rule_id = rule_class.id
    if not rule_id or not rule_id.startswith("R"):
        raise ValueError(f"rule id must look like R0xx, got {rule_id!r}")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """One instance of every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Registered rules, optionally narrowed to the given ids.

    Args:
        select: rule ids to keep (``None`` = all).

    Raises:
        KeyError: when ``select`` names an unknown rule id.
    """
    rules = all_rules()
    if select is None:
        return rules
    known = {rule.id for rule in rules}
    unknown = sorted(set(select) - known)
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(unknown)}; "
                       f"known: {', '.join(sorted(known))}")
    wanted = set(select)
    return [rule for rule in rules if rule.id in wanted]


def known_rule_ids() -> Tuple[str, ...]:
    """Every registered rule id, sorted (suppression validation)."""
    _load_builtin_rules()
    return tuple(sorted(_REGISTRY))


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (registration side effect)."""
    import repro.analysis.rules_determinism  # noqa: F401
    import repro.analysis.rules_docs  # noqa: F401
    import repro.analysis.rules_quality  # noqa: F401
    import repro.analysis.rules_units  # noqa: F401
