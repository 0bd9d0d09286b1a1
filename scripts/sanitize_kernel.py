"""The compiled segment loop under AddressSanitizer and UBSan (the CI ``kernel-sanitizers`` job).

Compiles :data:`repro.dram._kernelc.SOURCE` with ``-O1 -g
-fsanitize=address,undefined -fno-sanitize-recover=all`` into the
loader's own cache slot under a fresh ``REPRO_KERNELC_CACHE``, then runs
the kernel's differential and fuzz batteries, the edge cases of its
parked-bank mask and ready-head window, the batch-intake tests
(segment exits at batch boundaries) and the shared-stream group tests
(several runs fed the same batches) with the compiler's ``libasan.so``
and ``libubsan.so`` preloaded.  The first out-of-bounds
access or undefined operation in the loop aborts the run, and the
report, which names its C line, goes to a log file this script prints,
so pytest's output capture cannot swallow it.

Usage::

    PYTHONPATH=src python scripts/sanitize_kernel.py [pytest arguments]

Exit status 0 when the tests pass with no sanitizer report and the
cached object is still the sanitized build afterwards, 1 otherwise.  The
last check matters because the loader rebuilds a plain object over one
it cannot open, and the tests would then pass without the sanitizers.
Needs a GCC whose ``-print-file-name`` finds ``libasan.so`` and
``libubsan.so``.
"""

from __future__ import annotations

import glob
import hashlib
import os
import subprocess
import sys
import tempfile
from shutil import which

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

TESTS = ("tests/dram/test_kernel_differential.py",
         "tests/dram/test_engine_fuzz.py",
         "tests/dram/test_kernel_structures.py",
         "tests/dram/test_controller_intake.py",
         "tests/dram/test_engine_groups.py")
FLAGS = ("-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-shared", "-fPIC")
RUNTIMES = ("libasan.so", "libubsan.so")


def runtime_path(compiler: str, name: str) -> str:
    """Absolute path of one sanitizer runtime the compiler ships."""
    path = subprocess.run([compiler, f"-print-file-name={name}"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    if not os.path.isabs(path):
        raise SystemExit(f"error: {compiler} has no {name}")
    return path


def digest(path: str) -> str:
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def main(pytest_args: "list[str]") -> int:
    compiler = which("cc") or which("gcc")
    if compiler is None:
        raise SystemExit("error: no C compiler (cc or gcc) on PATH")
    preload = " ".join(runtime_path(compiler, name) for name in RUNTIMES)

    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as cache:
        os.environ["REPRO_KERNELC_CACHE"] = cache
        from repro.dram import _kernelc  # reads the cache directory per call

        so_path = _kernelc._cache_path("kernel", _kernelc.SOURCE.encode("utf-8"))
        c_path = os.path.join(cache, "segment_loop.c")
        with open(c_path, "w", encoding="utf-8") as stream:
            stream.write(_kernelc.SOURCE)
        subprocess.run([compiler, *FLAGS, "-o", so_path, c_path], check=True)
        built = digest(so_path)
        # The channel sampler stays a plain build.  Building it here
        # keeps the children from running the compiler with the
        # sanitizer runtimes preloaded.
        _kernelc.load_sampler()

        logs = os.path.join(cache, "sanitizer")
        src = os.path.join(REPO_ROOT, "src")
        existing = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not existing else os.pathsep.join([src, existing]),
                   LD_PRELOAD=preload,
                   ASAN_OPTIONS=f"detect_leaks=0:log_path={logs}",
                   UBSAN_OPTIONS=f"print_stacktrace=1:log_path={logs}")
        problems = []
        probe = subprocess.run(
            [sys.executable, "-c", "from repro.dram import _kernelc; "
             "raise SystemExit(_kernelc.load() is None)"],
            env=env, cwd=REPO_ROOT)
        if probe.returncode != 0:
            problems.append("the sanitized segment loop did not load")
        else:
            tests = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 *TESTS, *pytest_args],
                env=env, cwd=REPO_ROOT)
            if tests.returncode != 0:
                problems.append(f"pytest exited with status {tests.returncode}")
        for report in sorted(glob.glob(logs + ".*")):
            with open(report, encoding="utf-8", errors="replace") as stream:
                sys.stderr.write(stream.read())
            problems.append(f"sanitizer report in {os.path.basename(report)}")
        if digest(so_path) != built:
            problems.append("the cached segment loop is no longer the "
                            "sanitized build")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("sanitizers OK: no report from the segment loop")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
