"""Run one workload for a time budget in a fresh process; write a JSON report.

``run.py`` starts this script once per benchmark run, so each run's
peak RSS covers only the workload and its pool workers.  The session
runs one untimed warm-up sweep (imports, lazy set-up), then timed
sweeps until ``--seconds`` have passed.  With ``--trace 1`` each timed
sweep is followed by a traced one: the untraced sweeps give the wall
time the tracing overhead is measured against, the traced ones give the
per-layer numbers.

Usage (normally started by ``run.py``)::

    python3 perfbench/session.py --workload table1 --seed 2024 \\
        --seconds 10 --trace 0 --size full --out result.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import Normalizer  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import Sweep, WORKLOADS, load_pins, make  # noqa: E402

#: Span name -> per-layer metric reporting that span's self time.
LAYER_TIMES = {
    "mapping.addrgen": "mapping.addrgen_s",
    "engine.run": "engine.run_s",
    "kernel.run": "kernel.run_s",
    "energy.fold": "energy.fold_s",
    "e2e.bridge": "e2e.bridge_s",
    "e2e.run": "e2e.self_s",
    "channel.sample": "channel.sample_s",
    "downlink.decode": "downlink.decode_s",
    "interleaver.permutation": "interleaver.permutation_s",
    "store.write": "store.write_s",
    "store.read": "store.read_s",
    "parallel.dispatch": "parallel.dispatch_s",
    "shm.share": "shm.share_s",
}
#: Counters the wrappers record, reported per sweep.
LAYER_COUNTS = (
    "mapping.bursts", "engine.phases", "engine.bursts",
    "engine.commands_recorded", "kernel.phases", "kernel.fallbacks",
    "refresh.due_calls", "refresh.events", "channel.symbols",
    "store.writes", "store.bytes_written", "store.reads", "store.hits",
    "store.misses", "parallel.tasks", "parallel.serial_fallbacks",
)
#: Span name -> per-layer metric counting that span's calls.
LAYER_CALLS = {"energy.fold": "energy.calls"}


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def sweep_wall(sweep: Sweep) -> float:
    """Seconds spent in the sweep's timed library calls."""
    return sum(end - start for _, start, end in sweep.passes)


def pass_times(sweeps: List[Sweep], factors: List[float]) -> Dict[str, List[float]]:
    """Durations per pass label, each scaled by its sweep's factor."""
    times: Dict[str, List[float]] = {}
    for sweep, factor in zip(sweeps, factors):
        for label, start, end in sweep.passes:
            times.setdefault(label, []).append((end - start) * factor)
    return times


def layer_breakdown(spans: List[Span], counters: Dict[str, int],
                    walls: List[float], pid: int) -> Dict[str, float]:
    """Per-layer metrics per traced sweep, from all processes' spans."""
    sweeps = len(walls)
    own = self_times(spans)
    result = {metric: own.get(name, 0.0) / sweeps
              for name, metric in LAYER_TIMES.items()}
    result.update({name: counters.get(name, 0) / sweeps for name in LAYER_COUNTS})
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[1]] = calls.get(span[1], 0) + 1
    result.update({metric: calls.get(name, 0) / sweeps
                   for name, metric in LAYER_CALLS.items()})
    # Layer self times of this process partition the time its layer
    # spans cover, so the rest of the wall time is unattributed glue.
    covered = sum(self_times([s for s in spans if s[5] == pid]).values())
    result["trace.unattributed_pct"] = 100.0 * (1.0 - covered / sum(walls))
    return result


def pass_breakdown(spans: List[Span], traced: List[Sweep]) -> Dict[str, Any]:
    """Self time per layer within each pass label, for the trace report."""
    report: Dict[str, Any] = {}
    for sweep in traced:
        for label, start, end in sweep.passes:
            inside = [s for s in spans if start <= s[2] < end]
            entry = report.setdefault(label, {"passes": 0, "wall_s": 0.0,
                                              "self_s": {}})
            entry["passes"] += 1
            entry["wall_s"] += end - start
            for name, seconds in self_times(inside).items():
                entry["self_s"][name] = entry["self_s"].get(name, 0.0) + seconds
    for entry in report.values():
        ranked = sorted(entry["self_s"].items(), key=lambda kv: -kv[1])
        entry["self_s"] = dict(ranked)
        entry["dominant"] = ranked[0][0] if ranked else None
    return report


def run_session(name: str, seed: int, seconds: float, trace: bool,
                size: str, repo_root: str, work_dir: str) -> Dict[str, Any]:
    """Run workload ``name`` for ``seconds`` and return the session record."""
    import numpy
    from repro.dram import _kernelc

    native = _kernelc.available()
    pins = load_pins() if size == "full" else None
    workload = make(name, seed, size, work_dir, repo_root, pins)
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer(worker_dir=tempfile.mkdtemp(prefix="spans-", dir=work_dir))
    warmup = workload.run()
    normalizer = Normalizer()
    untraced: List[Sweep] = []
    traced: List[Sweep] = []
    factors: List[float] = []
    traced_factors: List[float] = []
    spans: List[Span] = []
    counters: Dict[str, int] = {}
    deadline = perf_counter() + seconds
    while True:
        untraced.append(workload.run())
        factors.append(normalizer.factor())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.run())
            finally:
                tracer.uninstall()
            traced_factors.append(normalizer.factor())
            for got_spans, got_counters in (tracer.drain(), tracer.collect_workers()):
                spans.extend(got_spans)
                for key, value in got_counters.items():
                    counters[key] = counters.get(key, 0) + value
        if perf_counter() >= deadline:
            break
    every = [warmup] + untraced + traced
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "size": size,
        "native_kernel": native,
        "numpy": numpy.__version__,
        "attempted": sum(s.cells for s in every),
        "failed": sum(s.failed for s in every),
        "failures": [msg for s in every for msg, _ in s.failures][:20],
        "passes": pass_times(untraced, factors),
        "passes_raw": pass_times(untraced, [1.0] * len(untraced)),
        "factors": factors,
        "work": warmup.work,
        "sim": warmup.sim,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        walls = [sweep_wall(s) for s in traced]
        base = statistics.median(sweep_wall(s) * f for s, f in zip(untraced, factors))
        scaled = [wall * f for wall, f in zip(walls, traced_factors)]
        layers = layer_breakdown(spans, counters, walls, os.getpid())
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(scaled) - base) / base
        record["layers"] = layers
        record["passes_traced"] = pass_breakdown(spans, traced)
        record["spans"] = spans
        os.rmdir(tracer.worker_dir)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--repo-root", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = run_session(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.size, args.repo_root,
                         args.work_dir)
    with open(args.out, "w") as stream:
        json.dump(record, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
