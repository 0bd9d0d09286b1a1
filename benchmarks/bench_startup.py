"""Start-up: fresh-interpreter wall times of the entry points, and what they load.

A short command spends more time starting than simulating, so the
start-up numbers come from the tree: each case starts ``RUNS`` fresh
interpreters and records the median wall time in ``extra_info``
(``BENCH_startup.json``), beside the number of modules it loads.  The
set-up probe case runs ``perfbench/setup_probe.py``: the benchmark's
import set plus the native-backend load.

Only structural facts are asserted, never times: every child exits 0,
and the cases that must not load NumPy or cffi (or the HTTP server and
the adaptive estimators) do not.  The module lists come from one extra,
untimed ``-X importtime`` run per case.  Times are comparable only
within one run of this file: a shared host's start-up moves by a third
from one minute to the next, and an interpreter that may not write
bytecode (``PYTHONDONTWRITEBYTECODE``) compiles every module it imports.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

#: Fresh interpreters timed per case.
RUNS = 9

#: Case -> (interpreter arguments, module families it must not load).
CASES = {
    "bare": (["-c", "pass"], ()),
    "import_numpy": (["-c", "import numpy"], ()),
    "import_repro": (["-c", "import repro"], ("numpy", "cffi")),
    "cli_help": (["-m", "repro", "--help"], ("numpy", "cffi")),
    "cli_configs": (["-m", "repro", "configs"], ("numpy", "cffi")),
    "setup_probe": ([str(ROOT / "perfbench" / "setup_probe.py")],
                    ("http.server", "repro.system.adaptive",
                     "concurrent.futures.process", "pycparser")),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wall_s(args):
    """Wall time of one fresh interpreter running ``args``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _modules(args):
    """The modules one interpreter running ``args`` imports."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=_env(), capture_output=True, text=True,
                          check=True)
    return {line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def _in_family(module, roots):
    return any(module == root or module.startswith(root + ".")
               for root in roots)


def _measure():
    """Median wall seconds and module count of every case, runs interleaved."""
    walls = {case: [] for case in CASES}
    _wall_s(CASES["setup_probe"][0])  # builds the native cache if it is cold
    for _ in range(RUNS):
        for case, (args, _) in CASES.items():
            walls[case].append(_wall_s(args))
    return {case: statistics.median(values) for case, values in walls.items()}


@pytest.mark.paper_artifact("start-up")
def test_startup_times(benchmark):
    loaded = {case: _modules(args) for case, (args, _) in CASES.items()}
    for case, (_, forbidden) in CASES.items():
        assert not [m for m in loaded[case] if _in_family(m, forbidden)], case
    medians = benchmark.pedantic(_measure, rounds=1, iterations=1)
    benchmark.extra_info["runs"] = RUNS
    benchmark.extra_info["python"] = sys.version.split()[0]
    benchmark.extra_info["bytecode_cache"] = not os.environ.get(
        "PYTHONDONTWRITEBYTECODE")
    for case, median in medians.items():
        benchmark.extra_info[f"{case}_s"] = round(median, 4)
        benchmark.extra_info[f"{case}_modules"] = len(loaded[case])
