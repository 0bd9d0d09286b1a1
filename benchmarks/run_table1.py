#!/usr/bin/env python
"""Regenerate the paper's Table I and print it side by side with the
published numbers.

Usage::

    python benchmarks/run_table1.py            # N=512 (~2 s)
    python benchmarks/run_table1.py --n 1024   # closer to paper scale
    python benchmarks/run_table1.py --no-refresh
    python benchmarks/run_table1.py --configs DDR4-3200 LPDDR4-4266

The paper simulates 12.5 M elements (N=5000); ``--paper-scale`` runs
that size serially in about 36 s with an 80 MiB peak RSS (2-core Xeon,
Python 3.11, NumPy 2.4; the output is kept in paper_scale_table1.txt).
It runs one configuration at a time, so unlike ``repro table1`` it
does not share address streams between speed grades.
Utilizations stabilize well before that (see
bench_interleaver_size.py).
"""

import argparse
import sys
import time

from repro.dram.controller import ControllerConfig
from repro.dram.presets import TABLE1_CONFIG_NAMES
from repro.system.sweep import run_table1

PAPER = {
    "DDR3-800": (95.99, 96.03, 95.99, 96.26),
    "DDR3-1600": (95.75, 64.16, 95.91, 96.16),
    "DDR4-1600": (92.02, 73.92, 92.01, 92.37),
    "DDR4-3200": (91.83, 43.50, 91.86, 92.15),
    "DDR5-3200": (100.00, 96.37, 100.00, 100.00),
    "DDR5-6400": (99.90, 88.95, 99.83, 99.97),
    "LPDDR4-2133": (99.02, 66.00, 99.41, 98.30),
    "LPDDR4-4266": (98.03, 35.77, 99.67, 99.72),
    "LPDDR5-4267": (99.39, 55.87, 99.77, 100.00),
    "LPDDR5-8533": (97.56, 47.25, 99.14, 99.66),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=512,
                        help="triangle dimension (default 512)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="N=5000 = 12.5 M elements, like the paper (slow)")
    parser.add_argument("--no-refresh", action="store_true",
                        help="disable refresh (the paper's >99%% experiment)")
    parser.add_argument("--configs", nargs="*", default=None,
                        help="subset of configurations to simulate")
    args = parser.parse_args(argv)

    n = 5000 if args.paper_scale else args.n
    names = tuple(args.configs) if args.configs else TABLE1_CONFIG_NAMES
    unknown = set(names) - set(TABLE1_CONFIG_NAMES)
    if unknown:
        parser.error(f"unknown configurations: {sorted(unknown)}")
    policy = ControllerConfig(refresh_enabled=not args.no_refresh)

    print(f"# Table I reproduction: N={n} "
          f"({n * (n + 1) // 2:,} elements/phase), refresh="
          f"{'off' if args.no_refresh else 'on'}")
    print(f"{'DRAM':14s} {'Row-Major Mapping':>24s}   {'Optimized Mapping':>24s}")
    print(f"{'Configuration':14s} {'Write':>11s} {'Read':>11s}   {'Write':>11s} {'Read':>11s}")

    start = time.time()
    for name in names:
        rows = run_table1(n=n, config_names=(name,), policy=policy)
        row = rows[0]
        rm_w, rm_r, opt_w, opt_r = (value * 100 for value in row.cells())
        paper = PAPER[name]

        def cell(value, reference):
            return f"{value:6.2f}({reference:5.1f})"

        print(f"{name:14s} {cell(rm_w, paper[0]):>11s} {cell(rm_r, paper[1]):>11s}   "
              f"{cell(opt_w, paper[2]):>11s} {cell(opt_r, paper[3]):>11s}",
              flush=True)
    print(f"# (paper values in parentheses)  elapsed {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
