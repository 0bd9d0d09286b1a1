"""Rectangular page-tile geometry for the optimized mapping.

The optimized mapping partitions the index space into ``tile_h x
tile_w`` rectangles.  With the diagonal bank rotation
``bank = (i + j) mod B``, each tile contains exactly
``tile_h * tile_w / B`` cells of every bank — one full DRAM page per
bank per tile — provided both tile dimensions are multiples of ``B``.

Choosing the dimensions balances the two traversal directions: during
a row-wise sweep a given bank gets ``tile_w / B`` consecutive accesses
into one page before the sweep leaves the tile (a future page miss);
during a column-wise sweep it gets ``tile_h / B``.  Setting
``tile_h * tile_w = B * bursts_per_page`` with ``tile_h`` and
``tile_w`` as close as the power-of-two constraint allows splits the
misses evenly between the write and read phases — optimization 2 of
the paper (Fig. 1b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dram.geometry import Geometry
from repro.units import log2_int


@dataclass(frozen=True)
class TileGeometry:
    """A page-tile shape for a given channel geometry.

    Attributes:
        banks: number of banks ``B``.
        bursts_per_page: page capacity ``P`` in bursts.
        tile_h: tile height in cells (multiple of ``B``).
        tile_w: tile width in cells (multiple of ``B``).
    """

    banks: int
    bursts_per_page: int
    tile_h: int
    tile_w: int

    def __post_init__(self) -> None:
        if self.tile_h * self.tile_w != self.banks * self.bursts_per_page:
            raise ValueError(
                f"tile {self.tile_h}x{self.tile_w} does not hold exactly one page "
                f"per bank (need {self.banks * self.bursts_per_page} cells)"
            )
        if self.tile_w % self.banks:
            raise ValueError(f"tile width {self.tile_w} must be a multiple of {self.banks} banks")

    @property
    def cells_per_tile(self) -> int:
        """Cells covered by one tile (tile height x tile width)."""
        return self.tile_h * self.tile_w

    @property
    def row_run_length(self) -> int:
        """Per-bank consecutive same-page accesses in a row-wise sweep."""
        return self.tile_w // self.banks

    @property
    def col_run_length(self) -> int:
        """Per-bank consecutive same-page accesses in a column-wise sweep."""
        return max(1, self.tile_h // self.banks)

    def balance_ratio(self) -> float:
        """Ratio of the two run lengths (1.0 = perfectly balanced)."""
        longer = max(self.row_run_length, self.col_run_length)
        shorter = min(self.row_run_length, self.col_run_length)
        return longer / shorter


def balanced_tile(geometry: Geometry) -> TileGeometry:
    """Compute the balanced page tile for a channel geometry.

    The cell count per tile is fixed at ``B * P`` (one page per bank);
    with ``B`` and ``P`` powers of two the dimensions are the two middle
    powers of two, both at least ``B``.  When the product has an odd
    number of bits, the extra bit goes to the width, favoring the
    row-wise (write) direction: the tile behind every Table I result.

    Raises:
        ValueError: if the page holds fewer bursts than there are banks
            (then no tile with both dimensions a multiple of ``B``
            exists; no JEDEC configuration in this project is affected).
    """
    banks = geometry.banks
    page = geometry.bursts_per_row
    if page < banks:
        raise ValueError(
            f"page of {page} bursts is smaller than the {banks}-bank diagonal; "
            "the balanced tiling needs bursts_per_page >= banks"
        )
    # page >= banks puts log2(B) <= log2(B * P) // 2, so both sides are
    # at least B.
    tile_h, tile_w = tile_sides(banks * page)
    return TileGeometry(banks=banks, bursts_per_page=page, tile_h=tile_h,
                        tile_w=tile_w)


def tile_sides(cells: int) -> Tuple[int, int]:
    """``(tile_h, tile_w)`` of a tile of ``cells``, a power of two.

    The two middle powers of two; an odd bit count's extra bit goes to
    the width.  The balanced tile and the no-rotation ablation's
    one-page tile both split here, so they share one orientation.
    """
    bits = log2_int(cells)
    return 1 << (bits // 2), 1 << (bits - bits // 2)


def row_strip_tile(geometry: Geometry) -> TileGeometry:
    """Degenerate 1-cell-tall tile: one index row per page, per bank.

    This is the *ablation* shape with page tiling disabled: the
    row-wise sweep enjoys maximal runs (``P`` consecutive page hits per
    bank) while the column-wise sweep misses on every access — the
    SRAM-style behavior the paper's Fig. 1b optimization removes.
    """
    banks = geometry.banks
    page = geometry.bursts_per_row
    return TileGeometry(banks=banks, bursts_per_page=page, tile_h=1, tile_w=banks * page)


def tiles_covering(extent: int, tile: int) -> int:
    """Number of tiles of size ``tile`` needed to cover ``extent`` cells."""
    if extent < 1 or tile < 1:
        raise ValueError(f"extent and tile must be >= 1, got {extent}, {tile}")
    return -(-extent // tile)
