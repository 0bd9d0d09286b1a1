#!/usr/bin/env python
"""Quickstart: simulate one interleaver on one DRAM configuration.

Maps a triangular block interleaver onto DDR4-3200 with both the
row-major (SRAM-style) mapping and the paper's optimized mapping, runs
the cycle-accurate-equivalent simulation of the write (row-wise) and
read (column-wise) phases, and prints the bandwidth utilizations —
one row of the paper's Table I.

Run:  python examples/quickstart.py
"""

from repro import (
    OptimizedMapping,
    RowMajorMapping,
    TriangularIndexSpace,
    get_config,
    simulate_interleaver,
)
from repro.viz import utilization_bar


def main() -> None:
    """Simulate both mappings on DDR4-3200 and print their utilizations."""
    config = get_config("DDR4-3200")
    space = TriangularIndexSpace(384)          # ~74 k burst elements
    print(f"Device: {config.name} ({config.geometry.banks} banks, "
          f"{config.geometry.bank_groups} bank groups, "
          f"{config.geometry.row_bytes // 1024} KiB pages)")
    print(f"Interleaver: triangular, N={space.n} "
          f"({space.num_elements:,} burst elements)\n")

    for mapping in (RowMajorMapping(space, config.geometry),
                    OptimizedMapping(space, config.geometry)):
        result = simulate_interleaver(config, mapping)
        print(f"{mapping.name} mapping")
        print(f"  write {result.write_utilization:7.2%}  "
              f"|{utilization_bar(result.write_utilization)}|")
        print(f"  read  {result.read_utilization:7.2%}  "
              f"|{utilization_bar(result.read_utilization)}|")
        bandwidth = result.effective_bandwidth_bytes_per_s(config) / 1e9
        print(f"  -> min phase {result.min_utilization:.2%} "
              f"= {bandwidth:.1f} GB/s sustained interleaver bandwidth\n")

    print("The read phase is what collapses under the row-major mapping —")
    print("and the minimum of the two phases is what sets the interleaver's")
    print("throughput (paper, Sec. III).")


if __name__ == "__main__":
    main()
