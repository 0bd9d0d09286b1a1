#!/usr/bin/env python
"""Reproduce the paper's Fig. 1: the optimized mapping schemes.

Renders the four panels for a figure-scale device (2 banks, 4-burst
pages) on an 8x8 index-space excerpt, plus the triangular variant that
the real interleaver uses (on the same 2x4 page tile as the Fig. 1
panels) and its compacted rows on a device too small for the
rectangular layout (footnote 1 of the paper).

Run:  python examples/mapping_visualizer.py
"""

from dataclasses import replace

from repro import OptimizedMapping, RectangularIndexSpace, TriangularIndexSpace
from repro.dram.geometry import Geometry
from repro.viz import render_banks, render_figure1, render_full


def main() -> None:
    """Render the Fig. 1 panels and the triangular variant."""
    # Two banks (one per bank group) and four bursts per page: the same
    # scale as the paper's Fig. 1.
    geometry = Geometry(bank_groups=2, banks_per_group=1, rows=256,
                        columns=32, bus_width_bits=64, burst_length=8)
    space = RectangularIndexSpace(8, 8)

    print("=" * 64)
    print("Fig. 1 — optimized mapping schemes (8x8 excerpt, 2 banks,")
    print("4-burst pages; labels are Bank / Column / Row)")
    print("=" * 64)
    print(render_figure1(space, geometry))

    print()
    print("=" * 64)
    print("Triangular index space (the real storage array; empty cells")
    print("are the unused lower-right half — footnote 1)")
    print("=" * 64)
    triangle = TriangularIndexSpace(8)
    mapping = OptimizedMapping(triangle, geometry)
    print("(banks)")
    print(render_banks(mapping))
    print()
    print("(bank/column/row)")
    print(render_full(mapping))

    # Storage comparison on a larger triangle where whole tiles fall
    # into the empty half (footnote 1 of the paper).  The rectangular
    # tile grid needs 200 rows; on a copy of the device with only 128
    # the mapping renumbers just the tiles in use.
    big = TriangularIndexSpace(40)
    rect_alloc = OptimizedMapping(big, geometry)
    small = replace(geometry, rows=128)
    compact = OptimizedMapping(big, small)
    print()
    print(f"Storage at N={big.n}: rectangular allocation uses "
          f"{rect_alloc.rows_used()} DRAM rows "
          f"({rect_alloc.storage_efficiency():.0%} of allocated capacity holds data);")
    print(f"on a {small.rows}-row device the mapping compacts to "
          f"{compact.rows_used()} rows ({compact.storage_efficiency():.0%}).")


if __name__ == "__main__":
    main()
