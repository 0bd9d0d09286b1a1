"""Shared benchmark configuration.

Benchmarks regenerate the paper's artifacts, so each records its
scientific output (utilizations, gains) in ``benchmark.extra_info`` —
``pytest benchmarks/ --benchmark-only`` both times the harness and
reports the reproduced numbers.

Simulations are deterministic; heavy ones run as a single round via
``benchmark.pedantic`` so the suite stays in minutes.

Every run additionally emits one ``BENCH_<name>.json`` per executed
``bench_<name>.py`` module (the reproduced numbers in machine-readable
form: per-test outcome, wall-clock, and the ``extra_info`` payload).
The artifacts land in ``benchmarks/artifacts/`` by default —
``REPRO_BENCH_ARTIFACT_DIR`` overrides the directory, and CI's
benchmarks-smoke job uploads it so every pipeline run archives the
paper numbers it reproduced.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Generator, List

import pytest

# The bit-identity benchmarks compare against the test-only oracles in
# tests/oracles; `pytest tests` puts the same directory on the path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

#: Environment variable overriding where BENCH_*.json artifacts go.
ARTIFACT_DIR_ENV = "REPRO_BENCH_ARTIFACT_DIR"

#: Per-module result rows, keyed by bench module stem ("bench_fig1").
_RESULTS: Dict[str, List[Dict[str, Any]]] = {}


def pytest_configure(config: Any) -> None:
    config.addinivalue_line(
        "markers", "paper_artifact(name): benchmark regenerating a paper table/figure"
    )


def _artifact_name(module_stem: str) -> str:
    """``bench_fig1`` -> ``BENCH_fig1.json``."""
    stem = module_stem[len("bench_"):] if module_stem.startswith("bench_") else module_stem
    return f"BENCH_{stem}.json"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item: Any, call: Any) -> Generator[None, None, None]:
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    stem = Path(str(item.fspath)).stem
    if not stem.startswith("bench_"):
        return
    row: Dict[str, Any] = {
        "test": item.nodeid,
        "outcome": report.outcome,
        "duration_s": round(report.duration, 6),
    }
    marker = item.get_closest_marker("paper_artifact")
    if marker and marker.args:
        row["paper_artifact"] = marker.args[0]
    fixture = item.funcargs.get("benchmark") if hasattr(item, "funcargs") else None
    extra = getattr(fixture, "extra_info", None)
    if extra:
        row["extra_info"] = dict(extra)
    stats = getattr(fixture, "stats", None)
    timing = getattr(stats, "stats", None)
    if timing is not None and getattr(timing, "data", None):
        row["timing_s"] = {
            "min": timing.min,
            "mean": timing.mean,
            "max": timing.max,
            "rounds": timing.rounds,
        }
    _RESULTS.setdefault(stem, []).append(row)


def pytest_sessionfinish(session: Any, exitstatus: int) -> None:
    """Write one ``BENCH_<name>.json`` per bench module that ran."""
    if not _RESULTS:
        return
    default = Path(str(session.config.rootpath)) / "benchmarks" / "artifacts"
    out_dir = Path(os.environ.get(ARTIFACT_DIR_ENV, str(default)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, rows in sorted(_RESULTS.items()):
        document = {
            "version": 1,
            "module": f"benchmarks/{stem}.py",
            "passed": sum(1 for r in rows if r["outcome"] == "passed"),
            "failed": sum(1 for r in rows if r["outcome"] == "failed"),
            "results": rows,
        }
        path = out_dir / _artifact_name(stem)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    _RESULTS.clear()


@pytest.fixture
def bench_triangle_n() -> int:
    """Default interleaver size for benchmarks.

    N=256 (~33 k bursts per phase) keeps the full grid under a few
    minutes; the standalone ``run_table1.py`` script regenerates the
    table at N=1024+ for the EXPERIMENTS.md numbers.
    """
    return 256
