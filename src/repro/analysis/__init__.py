"""Repo-specific static analysis: the mechanical form of the proof
discipline.

Every claim this reproduction makes rests on invariants that used to be
enforced only by convention — results are seed-deterministic,
timing/energy arithmetic never mixes unit families, hot loops do not
allocate per iteration.  This package checks those invariants on every
commit with a small AST-based analyzer (stdlib ``ast`` only, no new
runtime dependencies):

* :mod:`repro.analysis.base` — the rule protocol and registry;
* :mod:`repro.analysis.findings` — the :class:`~repro.analysis.findings.Finding`
  record and severities;
* :mod:`repro.analysis.runner` — file discovery, per-file analysis and
  ``# repro: noqa[RULE]`` suppression handling (with unused-suppression
  detection);
* :mod:`repro.analysis.lint` — the ``repro lint`` CLI (human and JSON
  output);
* ``rules_*`` modules — the five repo-specific rules R002–R006 (see the
  docs-site *Static analysis* page for the catalogue and rationale).

Run it as ``python -m repro lint src`` (exits non-zero on findings) or
call :func:`~repro.analysis.runner.analyze_paths` directly.
"""

from __future__ import annotations

from repro.analysis.base import Rule, all_rules, get_rules
from repro.analysis.findings import Finding
from repro.analysis.runner import analyze_paths, analyze_source

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "get_rules",
]
