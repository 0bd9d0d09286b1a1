"""File discovery, per-file analysis and suppression handling.

The runner walks the given paths for ``*.py`` files, derives each
file's role (``src`` / ``tests`` / ``benchmarks``) and dotted module
name, runs every applicable rule, and applies the suppression
directives:

* ``# repro: noqa[R003]`` on a finding's reported line suppresses that
  rule there; several rules may be listed (``noqa[R002,R003]``);
* a directive that suppresses nothing is itself reported as an
  ``R000`` *unused-suppression* finding — suppressions cannot rot;
* a bare ``# repro: noqa`` (no rule list) and a directive naming an
  unknown rule id are ``R000`` findings too: blanket or misspelled
  suppressions never silently disable the analyzer.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.base import FileContext, Rule, get_rules, known_rule_ids
from repro.analysis.findings import Finding

#: The suppression directive (a ``repro: noqa`` comment with a
#: mandatory bracketed rule list; whitespace inside the brackets is
#: ignored).  Examples live in the module docstring, not here — a
#: literal directive in a comment would itself be parsed as one.
NOQA_RE = re.compile(r"#\s*repro:\s*noqa\s*(\[([^\]]*)\])?")

#: Rule id of the suppression-bookkeeping findings themselves.
NOQA_RULE_ID = "R000"


@dataclass
class _Directive:
    """One parsed ``# repro: noqa[...]`` comment."""

    line: int
    col: int
    ids: Tuple[str, ...]
    used: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rule_id in self.ids:
            self.used[rule_id] = False


def _parse_directives(source: str, path: str) -> Tuple[List[_Directive], List[Finding]]:
    """Extract suppression directives; malformed ones become findings."""
    directives: List[_Directive] = []
    malformed: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = NOQA_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        col = token.start[1] + match.start()
        if match.group(1) is None:
            malformed.append(Finding(
                path=path, line=line, col=col, rule=NOQA_RULE_ID,
                message="blanket suppression: name the rule(s), "
                        "e.g. # repro: noqa[R003]"))
            continue
        ids = tuple(part.strip() for part in match.group(2).split(",")
                    if part.strip())
        if not ids:
            malformed.append(Finding(
                path=path, line=line, col=col, rule=NOQA_RULE_ID,
                message="empty suppression: name the rule(s), "
                        "e.g. # repro: noqa[R003]"))
            continue
        directives.append(_Directive(line=line, col=col, ids=ids))
    return directives, malformed


def role_of(path: Union[str, Path]) -> str:
    """Derive a file's role from its path components.

    Files under a ``tests`` or ``benchmarks`` directory get those
    roles; everything else (``src/`` trees, loose files) is production
    code — the strict default.
    """
    parts = Path(path).parts
    if "tests" in parts:
        return "tests"
    if "benchmarks" in parts:
        return "benchmarks"
    return "src"


def module_name_of(path: Union[str, Path]) -> Optional[str]:
    """Dotted module name of a file under a ``src`` root, else ``None``."""
    parts = list(Path(path).parts)
    if "src" not in parts:
        return None
    tail = parts[len(parts) - parts[::-1].index("src"):]
    if not tail or not tail[-1].endswith(".py"):
        return None
    tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail) if tail else None


def analyze_source(
    source: str,
    path: str = "<string>",
    role: Optional[str] = None,
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze one source text; the core entry point.

    Args:
        source: Python source to analyze.
        path: path used in findings and (when ``role``/``module`` are
            not given) for role and module-name derivation.
        role: override the derived file role.
        module: override the derived dotted module name.
        rules: the rules to run (default: every registered rule).

    Returns:
        Sorted findings, with suppressions applied and unused or
        malformed suppressions reported as ``R000``.
    """
    if role is None:
        role = role_of(path)
    if module is None:
        module = module_name_of(path)
    if rules is None:
        rules = get_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        line = error.lineno or 1
        col = (error.offset or 1) - 1
        return [Finding(path=path, line=line, col=max(col, 0), rule="E999",
                        message=f"syntax error: {error.msg}")]
    context = FileContext(path=path, source=source, tree=tree, role=role,
                          module=module)
    raw: List[Finding] = []
    for rule in rules:
        if role in rule.roles:
            raw.extend(rule.check(context))

    directives, findings = _parse_directives(source, path)
    by_line: Dict[int, List[_Directive]] = {}
    for directive in directives:
        by_line.setdefault(directive.line, []).append(directive)
    for finding in raw:
        suppressed = False
        for directive in by_line.get(finding.line, ()):
            if finding.rule in directive.used:
                directive.used[finding.rule] = True
                suppressed = True
        if not suppressed:
            findings.append(finding)
    known = set(known_rule_ids()) | {NOQA_RULE_ID, "E999"}
    for directive in directives:
        for rule_id in directive.ids:
            if rule_id not in known:
                findings.append(Finding(
                    path=path, line=directive.line, col=directive.col,
                    rule=NOQA_RULE_ID,
                    message=f"suppression names unknown rule {rule_id!r}"))
            elif not directive.used[rule_id]:
                findings.append(Finding(
                    path=path, line=directive.line, col=directive.col,
                    rule=NOQA_RULE_ID,
                    message=f"unused suppression: no {rule_id} finding "
                            f"on this line"))
    findings.sort(key=lambda f: f.sort_key)
    return findings


def analyze_file(path: Union[str, Path],
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Analyze one file on disk (see :func:`analyze_source`)."""
    text = Path(path).read_text(encoding="utf-8")
    return analyze_source(text, path=str(path), rules=rules)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Yield every ``*.py`` file under the given files/directories.

    Directories are walked recursively in sorted order; hidden
    directories and ``__pycache__`` are skipped.

    Raises:
        FileNotFoundError: when a given path does not exist.
    """
    for given in paths:
        root = Path(given)
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {given}")
        if root.is_file():
            yield root
            continue
        for candidate in sorted(root.rglob("*.py")):
            parts = candidate.parts
            if "__pycache__" in parts or any(
                    part.startswith(".") and part not in (".", "..")
                    for part in parts):
                continue
            yield candidate


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Analyze every Python file under ``paths``.

    Args:
        paths: files and/or directories to analyze.
        select: rule ids to run (default: all).

    Returns:
        ``(findings, files_analyzed)`` with findings sorted.
    """
    rules = get_rules(select)
    findings: List[Finding] = []
    count = 0
    for path in iter_python_files(paths):
        count += 1
        findings.extend(analyze_file(path, rules=rules))
    findings.sort(key=lambda f: f.sort_key)
    return findings, count
