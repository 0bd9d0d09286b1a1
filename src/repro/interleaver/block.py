"""Functional block interleavers (write one order, read the other).

Two flavors:

* :class:`BlockInterleaver` — classic rectangular rows-in /
  columns-out interleaver, used here as the small SRAM pre-stage of the
  two-stage construction (Sec. II of the paper): it guarantees that
  symbols which end up in the same DRAM burst come from different code
  words.
* :class:`TriangularInterleaver` — the triangular block interleaver
  itself at symbol granularity (write row-wise into the triangle, read
  column-wise), with the exact inverse used by the receiver.

Both operate on whole frames: one frame is ``num_elements`` symbols.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.interleaver.triangular import (
    IndexSpace,
    RectangularIndexSpace,
    TriangularIndexSpace,
)


def _permutation_from_orders(space: IndexSpace) -> NDArray[Any]:
    """Index permutation mapping write order to read order.

    ``out[k] = data[perm[k]]``: the k-th symbol *read* is the
    ``perm[k]``-th symbol *written*.  Writes go row-wise, so a cell's
    write slot is its row-major linear index, and the permutation is
    the linear indices of the cells in read order.
    """
    rows, cols = zip(*space.read_coord_chunks())
    return space.linear_indices(np.concatenate(rows), np.concatenate(cols))


class _PermutationInterleaver:
    """Shared frame-permutation machinery."""

    def __init__(self, space: IndexSpace) -> None:
        self.space = space
        self._perm = _permutation_from_orders(space)
        self._inverse = np.argsort(self._perm)

    @property
    def frame_symbols(self) -> int:
        """Symbols per frame."""
        return self.space.num_elements

    def interleave(self, frame: NDArray[Any]) -> NDArray[Any]:
        """Permute one frame (or a batch of stacked frames)."""
        self._check(frame)
        return frame[..., self._perm]

    def deinterleave(self, frame: NDArray[Any]) -> NDArray[Any]:
        """Exact inverse of :meth:`interleave`."""
        self._check(frame)
        return frame[..., self._inverse]

    def permutation(self) -> NDArray[Any]:
        """Copy of the read-slot -> write-slot permutation."""
        return self._perm.copy()

    def _check(self, frame: NDArray[Any]) -> None:
        if frame.shape[-1] != self.frame_symbols:
            raise ValueError(
                f"frame must have {self.frame_symbols} symbols on its last axis, "
                f"got shape {frame.shape}"
            )


class BlockInterleaver(_PermutationInterleaver):
    """Rectangular rows-in / columns-out block interleaver.

    Args:
        rows: number of rows of the array.
        cols: number of columns of the array.

    A frame of ``rows * cols`` symbols is written row-wise and read
    column-wise, so two symbols that were ``< rows`` apart in the output
    come from different input rows.  Used as the SRAM stage: with
    ``rows`` = symbols per DRAM burst and ``cols`` = code words per
    burst group, each output burst holds one symbol of each of ``rows``
    different code words.
    """

    def __init__(self, rows: int, cols: int) -> None:
        super().__init__(RectangularIndexSpace(rows, cols))
        self.rows = rows
        self.cols = cols


class TriangularInterleaver(_PermutationInterleaver):
    """Triangular block interleaver at symbol granularity.

    Args:
        n: triangle dimension; a frame holds ``n (n + 1) / 2`` symbols.

    The interleaver delay profile is linear in the column index, which
    is what spreads a burst of consecutive channel errors over many
    code words (each output column mixes symbols of up to ``n``
    different input rows).
    """

    def __init__(self, n: int) -> None:
        super().__init__(TriangularIndexSpace(n))
        self.n = n
