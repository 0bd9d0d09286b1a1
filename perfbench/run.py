"""The repository benchmark: one workload, its metrics, its output checks.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 2024 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``table1``,
``table1-jobs``, ``e2e``, ``campaign``.  The command measures set-up
time in fresh interpreters, runs the workload in a fresh process for
``--seconds``, checks every output, prints each metric with its unit,
writes a result file with the host fingerprint under
``perfbench/results/``, and prints one JSON line last::

    {"correct": true, "attempted": 200, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The exit code is 0 when every
output check passed, 1 when one failed, 2 when the checkout is not a
repository checkout or the workload process died.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import NOMINAL_STARTUP_S, STARTUP_PROBE  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_RUNS = 7
#: Hard limit for the whole command, below the 180 s a run may take.
DEADLINE_S = 170.0
#: End-to-end metrics and their units.
END_TO_END = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name == "kernelc.native":
        return "flag"
    if name == "store.bytes_written":
        return "bytes"
    return "count"


def child_env(build_dir: str) -> Dict[str, str]:
    """Environment of every child: the checkout's ``src``, caches, temp files."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_KERNELC_CACHE"] = os.path.join(build_dir, "kernelc")
    env["TMPDIR"] = os.path.join(build_dir, "tmp")  # the C compiler's scratch
    # Fixed string hashing: dict and set layouts, hence timings, then
    # repeat across runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(command: List[str], env: Dict[str, str], deadline: float) -> Tuple[float, str]:
    """Run ``command`` to completion; its wall time and standard output."""
    start = time.perf_counter()
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - start))
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{command} failed:\n{done.stderr}")
    return wall, done.stdout


def measure_setup(env: Dict[str, str], deadline: float) -> List[Dict[str, float]]:
    """Time ``SETUP_RUNS`` fresh interpreters after one that warms caches.

    The first probe compiles bytecode and the native kernel into the
    build directory; it is not counted.  Each counted probe is followed
    by the start-up reference probe (see ``reference.py``).
    """
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    startup = [sys.executable, *STARTUP_PROBE]
    spawn(probe, env, deadline)
    samples = []
    for _ in range(SETUP_RUNS):
        wall, out = spawn(probe, env, deadline)
        sample = json.loads(out.strip().splitlines()[-1])
        sample["wall_s"] = wall
        sample["reference_s"] = spawn(startup, env, deadline)[0]
        samples.append(sample)
    return samples


def fingerprint() -> Dict[str, Any]:
    """CPU model, cores, Python version and the commit under test."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit}


def spread(values: List[float]) -> str:
    """``median [q1, q3] (n=...)`` of a sample."""
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [q1 {q1:.6g}, q3 {q3:.6g}] (n={len(values)})"


def report(args: argparse.Namespace, setup: List[Dict[str, float]],
           session: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Print every metric with its unit; return those of the JSON result line."""
    primary = "cold" if "cold" in session["passes"] else "sweep"
    sweeps = session["passes"][primary]
    sweep_s = statistics.median(sweeps)
    setup_walls = [sample["wall_s"] / sample["reference_s"] * NOMINAL_STARTUP_S
                   for sample in setup]
    print(f"setup_s        {spread(setup_walls)} s   (at nominal start-up speed, "
          f"see reference.py; raw {spread([s['wall_s'] for s in setup])} s)")
    print(f"sweep_s        {spread(sweeps)} s   ({primary} pass at nominal host "
          f"speed, see reference.py; raw {spread(session['passes_raw'][primary])} s)")
    print(f"peak_rss_mb    {session['peak_rss_mb']:.1f} MiB")
    work = session["work"]
    if args.workload.startswith("table1"):
        print(f"bursts_per_s   {work['bursts'] / sweep_s:.6g} 1/s")
    else:
        print(f"frames_per_s   {work['frames'] / sweep_s:.6g} 1/s")
    if "warm" in session["passes"]:
        warm = session["passes"]["warm"]
        print(f"warm_pass_s    {spread(warm)} s")
        print(f"hits_per_s     {work['hits'] / statistics.median(warm):.6g} 1/s")
    print(f"failed_frac    {session['failed'] / session['attempted']:.6g} "
          f"({session['failed']}/{session['attempted']} cells)")
    for name, value in session["sim"].items():
        unit = {"sim_opt_min_util_pct": "%", "sim_util_err_pp": "pp",
                "sim_read_p99_us": "us"}[name]
        print(f"{name:22s} {value!r} {unit}")
    for message in session["failures"]:
        print(f"FAILED: {message}")
    if not args.trace:
        values = {"setup_s": statistics.median(setup_walls), "sweep_s": sweep_s,
                  "peak_rss_mb": session["peak_rss_mb"]}
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}
    layers = dict(session["layers"])
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    layers["setup.kernel_load_s"] = statistics.median(s["kernel_load_s"] for s in setup)
    layers["kernelc.native"] = int(session["native_kernel"])
    for label, entry in session["passes_traced"].items():
        top = list(entry["self_s"].items())[:4]
        print(f"traced {label} passes ({entry['passes']}): wall {entry['wall_s']:.4f} s, "
              "largest self times " + ", ".join(f"{name} {sec:.4f} s" for name, sec in top))
    metrics = {}
    for name in sorted(layers):
        metrics[name] = {"value": layers[name], "unit": layer_unit(name)}
        print(f"  {name:28s} {layers[name]:.6g} {layer_unit(name)}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the benchmark's tests")
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(ROOT, "benchmarks", "bench_table1.py")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"error: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, ".bench_build")
    results_dir = os.path.join(HERE, "results")
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    env = child_env(build_dir)
    deadline = started + DEADLINE_S

    setup = measure_setup(env, deadline)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    command = [sys.executable, os.path.join(HERE, "session.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--repo-root", ROOT,
               "--work-dir", build_dir, "--out", out]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print("error: workload process exceeded the time limit", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
        return 2
    with open(out) as stream:
        session = json.load(stream)

    host = fingerprint()
    host["numpy"] = session["numpy"]
    host["native_kernel"] = session["native_kernel"]
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    metrics = report(args, setup, session)
    correct = session["failed"] == 0
    result = {"correct": correct, "attempted": session["attempted"],
              "failed": session["failed"], "metrics": metrics}
    session.update(host=host, setup=setup, args=vars(args), result=result)
    with open(out, "w") as stream:
        json.dump(session, stream)
    print(f"result file: {out}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
