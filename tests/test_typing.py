"""The strict-typing gate: ``mypy --strict`` must pass over the library
(``src/repro``) and the test-only oracles (``tests/oracles``).

mypy is a CI-only tool, not a runtime dependency — when it is not
importable (the common case in minimal containers) the gate skips and
the fallback checks below still enforce the *mechanical* half of the
contract with the stdlib ``ast`` module alone: every function signature
in both trees carries complete parameter and return annotations, and
no annotation uses a bare ``list``/``dict``/``set``/``tuple``/
``frozenset`` generic (which strict mode's ``disallow_any_generics``
would reject).  CI runs the real ``mypy --strict`` in the ``typecheck``
job, so a stub-level regression cannot land even if this environment
never sees it.
"""

from __future__ import annotations

import ast
import configparser
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ORACLES = REPO / "tests" / "oracles"

try:
    import mypy.api  # noqa: F401

    HAVE_MYPY = True
except ImportError:
    HAVE_MYPY = False


def _iter_source_files() -> Iterator[Path]:
    for root in (SRC, ORACLES):
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path


def _unannotated_signatures(tree: ast.AST) -> List[Tuple[int, str, str]]:
    """(line, function, missing-item) triples for incomplete signatures."""
    gaps: List[Tuple[int, str, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.returns is None:
            gaps.append((node.lineno, node.name, "return"))
        args = node.args
        positional = args.posonlyargs + args.args + args.kwonlyargs
        for arg in positional:
            if arg.annotation is None and arg.arg not in ("self", "cls"):
                gaps.append((node.lineno, node.name, arg.arg))
        for arg in (args.vararg, args.kwarg):
            if arg is not None and arg.annotation is None:
                gaps.append((node.lineno, node.name, "*" + arg.arg))
    return gaps


#: Builtin containers that strict mode rejects when used unparameterized
#: in an annotation (``disallow_any_generics``).
_BARE_GENERICS = {"list", "dict", "set", "tuple", "frozenset", "type"}


def _bare_generic_annotations(tree: ast.AST) -> List[Tuple[int, str]]:
    """(line, name) pairs where an annotation is a bare builtin generic."""
    hits: List[Tuple[int, str]] = []

    def check(annotation: "ast.expr | None") -> None:
        if annotation is None:
            return
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id in _BARE_GENERICS:
                hits.append((node.lineno, node.id))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            check(node.returns)
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [a for a in (args.vararg, args.kwarg) if a]):
                check(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            check(node.annotation)
    return hits


class TestAnnotationCompleteness:
    """Mechanical half of the gate — runs everywhere, no mypy needed."""

    def test_every_signature_fully_annotated(self) -> None:
        problems = []
        for path in _iter_source_files():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for line, func, item in _unannotated_signatures(tree):
                problems.append(f"{path.relative_to(REPO)}:{line} "
                                f"{func}() missing annotation for {item}")
        assert not problems, "\n".join(problems)

    def test_no_bare_builtin_generics_in_annotations(self) -> None:
        problems = []
        for path in _iter_source_files():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for line, name in _bare_generic_annotations(tree):
                problems.append(f"{path.relative_to(REPO)}:{line} "
                                f"bare `{name}` annotation")
        assert not problems, "\n".join(problems)

    def test_future_annotations_imported_everywhere(self) -> None:
        """String-valued annotations keep py3.9 compatible with PEP 585."""
        missing = []
        for path in _iter_source_files():
            source = path.read_text(encoding="utf-8")
            if "from __future__ import annotations" not in source:
                missing.append(str(path.relative_to(REPO)))
        assert not missing, "\n".join(missing)


class TestMypyConfig:
    """The committed config is the one CI runs — keep it strict."""

    def test_config_is_strict(self) -> None:
        parser = configparser.ConfigParser()
        parser.read(REPO / "mypy.ini")
        assert parser.getboolean("mypy", "strict")
        assert parser.get("mypy", "python_version") == "3.9"
        assert parser.get("mypy", "mypy_path") == "src"

    def test_no_silent_module_relaxations(self) -> None:
        """No [mypy-...] override may switch off the core strict flags."""
        parser = configparser.ConfigParser()
        parser.read(REPO / "mypy.ini")
        for section in parser.sections():
            if section == "mypy":
                continue
            for flag in ("disallow_untyped_defs", "ignore_errors",
                         "disallow_any_generics"):
                if parser.has_option(section, flag):
                    assert parser.getboolean(section, flag) is not False, (
                        f"[{section}] weakens {flag}"
                    )


@pytest.mark.skipif(not HAVE_MYPY, reason="mypy not installed (CI-only tool)")
class TestMypyStrict:
    """The real gate — runs wherever mypy is importable (always in CI)."""

    def test_src_repro_and_oracles_pass_strict(self) -> None:
        # The oracles import each other as ``oracles.*``, so their
        # package base (tests/) joins mypy_path, as in the CI job.
        env = dict(os.environ, MYPYPATH="tests")
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--strict", "src/repro",
             "tests/oracles"],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
