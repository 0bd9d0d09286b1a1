"""Run the benchmark over several seeds and summarize it as a baseline file.

Run from the repository root::

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out perfbench/baseline/<commit>.json

For each workload and seed it runs ``run.py`` untraced, then once traced
at the default seed.  The file records every run's result and host
fingerprint, each end-to-end metric's median, quartiles and spread
((q3 - q1) / median), and the traced runs' per-layer report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One ``run.py`` invocation; its result file's content."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stdout}\n{done.stderr}")
    path = done.stdout.split("result file: ", 1)[1].split("\n", 1)[0]
    with open(path) as stream:
        record = json.load(stream)
    record.pop("spans", None)
    return record


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and quartile spread as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        bench = json.load(stream)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline: Dict[str, Any] = {"seconds": seconds, "seeds": args.seeds,
                                "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        entry: Dict[str, Any] = {"runs": runs, "summary": summary}
        for name, stats in summary.items():
            print(f"{workload:12s} {name:12s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]})", flush=True)
        if not args.no_trace:
            entry["traced"] = run(workload, DEFAULT_SEED, seconds, 1)
        baseline["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(baseline, stream, indent=1, sort_keys=True)
            stream.write("\n")


if __name__ == "__main__":
    main()
