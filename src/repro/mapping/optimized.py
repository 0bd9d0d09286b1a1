"""The paper's optimized interleaver-to-DRAM mapping (Section II).

Combines the three optimizations of the paper, each individually
toggleable so the ablation benchmarks can quantify its contribution:

1. **Diagonal bank rotation** (Fig. 1a): ``bank = (i + j) mod B``.
   Every access — in row-wise *and* column-wise traversal — moves to
   the next flat bank index.  Because the low bank bits select the
   bank group (Sec. II convention), this alternates bank groups in
   round-robin order, so consecutive CAS commands are spaced by
   ``tCCD_S`` instead of ``tCCD_L``, and row activations distribute
   over all banks.

2. **Rectangular page tiling** (Fig. 1b): the index space is cut into
   ``tile_h x tile_w`` rectangles with ``tile_h * tile_w = B * P``
   (``P`` = bursts per page), so each tile contains exactly one page
   worth of cells *per bank*.  A bank then gets ``tile_w / B``
   consecutive same-page accesses in a row-wise sweep and
   ``tile_h / B`` in a column-wise sweep — the page misses are split
   between the two directions instead of all landing on the read
   phase.

3. **Bank-staggered column offset** (Fig. 1c → 1d): without it, all
   banks cross a tile boundary within the same few accesses and their
   page misses collide; the activate budget (tRRD/tFAW) then throttles
   the burst of ACTs.  Shifting every position circularly towards the
   top-left by a bank-dependent offset ``delta_b = b * stagger``
   spreads the misses of the ``B`` banks evenly across the tile
   period.  The shift applies to the *row/column assignment only*; the
   bank of a cell stays defined by its original position, which keeps
   the per-bank address sets disjoint (proof sketch in
   :func:`OptimizedMapping.address_tuple`).

The bank count and page size are powers of two
(:class:`~repro.dram.geometry.Geometry` enforces it), so every tile side
is one too, and the mapping needs only additions, comparisons, shifts
and masks — the low-complexity hardware property claimed by the paper.
:meth:`OptimizedMapping.address_arrays` computes it with shifts and
masks; only the wrap around the padded extents, which need not be
powers of two, stays a floor division there.

Storage layout: tile ``(ti, tj)`` owns DRAM row ``ti * tiles_x + tj``
in *every* bank.  For a triangular index space this rectangular
allocation wastes the rows of the empty lower-right half.  When the
rectangular grid needs more rows than the device has, the mapping
renumbers only the tiles actually touched (paper, footnote 1) at the
cost of a one-time scan; tile order and in-tile columns stay, so row
hits and misses are those of the rectangular layout.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.dram.geometry import Geometry
from repro.interleaver.triangular import IndexSpace
from repro.mapping.base import AddressArrays, AddressTuple, InterleaverMapping
from repro.mapping.tiling import (TileGeometry, balanced_tile, row_strip_tile,
                                  tile_sides, tiles_covering)
from repro.units import log2_int


class OptimizedMapping(InterleaverMapping):
    """The paper's mapping with per-optimization ablation switches.

    Args:
        space: interleaver index space (triangular or rectangular).
        geometry: target DRAM channel organization.
        enable_bank_rotation: optimization 1 (diagonal banks).  When
            disabled, banks are assigned per *tile* diagonally, so
            consecutive accesses stay on one bank/bank group.
        enable_tiling: optimization 2 (rectangular page tiles).  When
            disabled, a degenerate one-row-tall strip tile is used:
            row-wise sweeps get maximal page runs, column-wise sweeps
            miss on every access (the SRAM-style failure mode).
        enable_offset: optimization 3 (bank-staggered circular shift).

    With every switch on (the defaults) this is the mapping Table I
    reports, on the :func:`~repro.mapping.tiling.balanced_tile` tile.
    The device picks the row layout: rectangular when its tile grid
    fits in ``geometry.rows``, compacted over the tiles in use
    otherwise.
    """

    name = "optimized"

    def __init__(
        self,
        space: IndexSpace,
        geometry: Geometry,
        *,
        enable_bank_rotation: bool = True,
        enable_tiling: bool = True,
        enable_offset: bool = True,
    ) -> None:
        super().__init__(space, geometry)
        self.enable_bank_rotation = enable_bank_rotation
        self.enable_tiling = enable_tiling
        self.enable_offset = enable_offset

        banks = geometry.banks
        page = geometry.bursts_per_row
        if enable_bank_rotation:
            if enable_tiling:
                self.tile: Optional[TileGeometry] = balanced_tile(geometry)
            else:
                self.tile = row_strip_tile(geometry)
            self._tile_h = self.tile.tile_h
            self._tile_w = self.tile.tile_w
        else:
            self.tile = None
            if enable_tiling:
                # A whole tile belongs to one bank: it holds one page.
                self._tile_h, self._tile_w = tile_sides(page)
            else:
                self._tile_h, self._tile_w = 1, page

        self._banks = banks
        self._page = page
        self._wpb = max(1, self._tile_w // banks)  # class cells per tile row
        self._h_pad = tiles_covering(space.height, self._tile_h) * self._tile_h
        self._w_pad = tiles_covering(space.width, self._tile_w) * self._tile_w
        self._tiles_x = self._w_pad // self._tile_w
        self._tiles_y = self._h_pad // self._tile_h

        if enable_offset:
            # Per-axis stagger: bank b's tile-boundary crossings shift
            # by b/B of the tile period in *each* direction, so page
            # misses spread uniformly over the whole period of both the
            # row-wise and the column-wise sweep even for non-square
            # tiles.  (A purely diagonal shift, as drawn in Fig. 1d for
            # a square example, bunches the misses of a non-square tile
            # into half the period of its longer side.)
            row_step = max(1, self._tile_h // banks)
            col_step = max(1, self._tile_w // banks)
            self._offsets = [(b * row_step, b * col_step) for b in range(banks)]
        else:
            self._offsets = [(0, 0)] * banks

        # Compacted row of each tile id, or None for the rectangular layout.
        self._row_table: Optional[Any] = None
        self._rows = self._tiles_x * self._tiles_y
        if self._rows > geometry.rows:
            self._row_table, self._rows = self._compact_rows()
        self.check_capacity()

    # -- public helpers -------------------------------------------------

    @property
    def tile_shape(self) -> Tuple[int, int]:
        """``(tile_h, tile_w)`` actually in use (after ablation switches)."""
        return self._tile_h, self._tile_w

    @property
    def stagger_step(self) -> Tuple[int, int]:
        """Per-bank ``(row, column)`` offset increment ((0, 0) when disabled)."""
        if not self.enable_offset or self._banks < 2:
            return (0, 0)
        return self._offsets[1]

    def rows_used(self) -> int:
        """Distinct DRAM rows the tiling occupies (exact)."""
        return self._rows

    def storage_efficiency(self) -> float:
        """Fraction of allocated page capacity holding real cells.

        Rectangular allocation of a triangular space wastes nearly half
        the rows; the compacted layout a small device gets recovers most
        of it (footnote 1).
        """
        allocated = self.rows_used() * self._banks * self._page
        if allocated == 0:
            return 0.0
        return self.space.num_elements / allocated

    # -- the mapping ------------------------------------------------------

    def bank_of(self, i: int, j: int) -> int:
        """Bank assignment before the row/column computation."""
        if self.enable_bank_rotation:
            return (i + j) % self._banks
        return (i // self._tile_h + j // self._tile_w) % self._banks

    def address_tuple(self, i: int, j: int) -> AddressTuple:
        """Bank/row/column of cell ``(i, j)`` (rotation + tile + offset)."""
        if not self.space.contains(i, j):
            raise ValueError(f"({i}, {j}) outside the index space")
        banks = self._banks
        tile_h = self._tile_h
        tile_w = self._tile_w

        if self.enable_bank_rotation:
            bank = (i + j) % banks
        else:
            bank = (i // tile_h + j // tile_w) % banks

        # Circular shift towards the top-left: the address of (i, j) is
        # the base row/column of the shifted position.  Injectivity per
        # bank: the shift is a fixed translation for a fixed bank, so
        # shifted positions of one bank are distinct and all lie on one
        # diagonal class c = (i + j + dr_b + dc_b) mod B; the base
        # mapping is injective on each class (distinct tiles -> distinct
        # rows, distinct in-tile class cells -> distinct columns).
        # Cells of *different* banks may share (row, column) — they
        # differ in the bank field, which is part of the physical
        # address.
        delta_row, delta_col = self._offsets[bank]
        si = (i + delta_row) % self._h_pad
        sj = (j + delta_col) % self._w_pad

        ti, li = divmod(si, tile_h)
        tj, lj = divmod(sj, tile_w)

        if self.enable_bank_rotation:
            # Column = rank of (li, lj) among the cells of its diagonal
            # class within the tile.  Class cells sit every B columns of
            # a tile row (tile_w is a multiple of B), so the in-row rank
            # is lj // B and each of the wpb ranks repeats once per row.
            column = li * self._wpb + lj // banks
        else:
            column = li * tile_w + lj

        tile_id = ti * self._tiles_x + tj
        if self._row_table is not None:
            return bank, int(self._row_table[tile_id]), column
        return bank, tile_id, column

    # -- vectorized kernel ------------------------------------------------

    def address_arrays(self, i: Any, j: Any) -> AddressArrays:
        """NumPy mirror of :meth:`address_tuple` over coordinate arrays.

        Coordinates must lie inside the index space (the traversal
        iterators guarantee this); the per-element containment check of
        :meth:`address_tuple` is skipped here, which is what makes the
        kernel pure integer arithmetic.  Equivalence with the scalar
        path is property-tested in ``tests/mapping/test_vectorized.py``.
        """
        import numpy as np

        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        bank_bits = log2_int(self._banks)
        h_bits = log2_int(self._tile_h)
        w_bits = log2_int(self._tile_w)

        if self.enable_bank_rotation:
            bank = i + j
        else:
            bank = (i >> h_bits) + (j >> w_bits)
        bank &= self._banks - 1

        # Bank b's offset is b times the stagger step: no table lookup.
        # The wrap is x - x // m * m, which NumPy does faster than x % m.
        row_step, col_step = self.stagger_step
        si = i + bank * row_step
        si -= si // self._h_pad * self._h_pad
        sj = j + bank * col_step
        sj -= sj // self._w_pad * self._w_pad

        li = si & (self._tile_h - 1)
        lj = sj & (self._tile_w - 1)
        if self.enable_bank_rotation:
            column = (li << log2_int(self._wpb)) + (lj >> bank_bits)
        else:
            column = (li << w_bits) + lj

        tile_id = (si >> h_bits) * self._tiles_x + (sj >> w_bits)
        if self._row_table is not None:
            return bank, self._row_table[tile_id], column
        return bank, tile_id, column

    # -- internals -----------------------------------------------------------

    def _compact_rows(self) -> Tuple[Any, int]:
        """Renumber the tiles the index space touches, in tile-id order.

        Runs before a row table exists, so the row :meth:`address_arrays`
        returns is the tile id.  Returns the table (the compacted row of
        each used tile id) and the number of rows it uses.
        """
        import numpy as np

        used = np.zeros(self._tiles_x * self._tiles_y, dtype=bool)
        for i, j in self.space.write_coord_chunks():
            used[self.address_arrays(i, j)[1]] = True
        return np.cumsum(used, dtype=np.int64) - 1, int(np.count_nonzero(used))
