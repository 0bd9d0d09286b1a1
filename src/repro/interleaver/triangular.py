"""Triangular block interleaver index spaces and traversal orders.

A triangular block interleaver stores the symbols of multiple
consecutive code words in the upper-left half of an ``N x N`` square:
cell ``(i, j)`` exists when ``i + j < N``.  Symbols are **written
row-wise** (row ``i`` holds ``N - i`` symbols) and **read column-wise**
(column ``j`` holds ``N - j`` symbols).  A symbol written at ``(i, j)``
therefore leaves the interleaver after a delay that grows with the
distance between its write and read positions, which is what disperses
burst errors over many code words.

At the DRAM level each cell of the index space is one *burst* (the
paper's two-stage construction packs symbols of distinct code words
into a burst with a small SRAM interleaver first — see
:mod:`repro.interleaver.two_stage`), so these index spaces are reused
unchanged by the address mappings in :mod:`repro.mapping`.

A rectangular index space is provided as well; it backs the paper's
Fig. 1 illustrations (which show a rectangular excerpt) and the classic
rectangular block interleaver used in the SRAM pre-stage.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterator, Protocol, Tuple

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import ArrayLike, NDArray

#: Bytes one pipeline cell occupies at its widest point: the three
#: int64 address columns (bank, row, column) the mapping stage emits
#: per coordinate.  The coordinate stage itself is narrower (two
#: columns), so budgeting against the address width bounds the whole
#: pipeline.
CELL_BYTES = 24

#: Byte budget one in-flight chunk targets.  6 MiB sits on the flat
#: part of the throughput-vs-chunk-size curve (see
#: ``benchmarks/bench_chunk_size.py``): large enough to amortize NumPy
#: per-chunk call overhead, small enough that paper-scale runs
#: (12.5 M cells) stay in bounded memory and chunks stay cache-friendly.
DEFAULT_CHUNK_BYTES = 6 << 20


#: Default traversal chunk size (cells) of the vectorized coordinate
#: iterators and the mappings' address iterators — the byte budget
#: above expressed in cells (exactly ``1 << 18`` for the 6 MiB default,
#: pinned by the chunking tests so chunk boundaries — and therefore
#: results — never drift).
DEFAULT_COORD_CHUNK = DEFAULT_CHUNK_BYTES // CELL_BYTES


def check_chunk_size(chunk_size: int) -> None:
    """Reject a traversal chunk size below one cell.

    Raises:
        ValueError: when ``chunk_size < 1``.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


#: One columnar coordinate chunk: equal-length ``(i, j)`` index arrays.
CoordChunk = Tuple["NDArray[Any]", "NDArray[Any]"]


class IndexSpace(Protocol):
    """Structural interface of the interleaver index spaces.

    The shared surface of :class:`TriangularIndexSpace` and
    :class:`RectangularIndexSpace` that the interleaver and mapping
    layers program against.  A space must offer all of it: the
    mappings' address iterators call ``write_coord_chunks`` and
    ``read_coord_chunks`` on every space, with no per-element fallback.
    """

    @property
    def height(self) -> int:
        """Number of rows of the space's bounding box."""
        ...

    @property
    def width(self) -> int:
        """Number of columns of the space's bounding box."""
        ...

    @property
    def num_elements(self) -> int:
        """Number of cells in the space."""
        ...

    def row_length(self, i: int) -> int:
        """Number of cells in row ``i``."""
        ...

    def col_length(self, j: int) -> int:
        """Number of cells in column ``j``."""
        ...

    def contains(self, i: int, j: int) -> bool:
        """Whether cell ``(i, j)`` lies inside the space."""
        ...

    def row_offset(self, i: int) -> int:
        """Row-major linear index of cell ``(i, 0)``."""
        ...

    def linear_index(self, i: int, j: int) -> int:
        """Row-major linear index of cell ``(i, j)``."""
        ...

    def from_linear(self, index: int) -> Tuple[int, int]:
        """Inverse of :meth:`linear_index`."""
        ...

    def write_order(self) -> Iterator[Tuple[int, int]]:
        """Cells in write order."""
        ...

    def read_order(self) -> Iterator[Tuple[int, int]]:
        """Cells in read order."""
        ...

    def linear_indices(self, i: ArrayLike, j: ArrayLike) -> NDArray[Any]:
        """Vectorized :meth:`linear_index` over coordinate arrays."""
        ...

    def write_coord_chunks(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[CoordChunk]:
        """Write-order coordinates as columnar array chunks.

        Iterating raises :class:`ValueError` for ``chunk_size < 1``
        (:func:`check_chunk_size`).
        """
        ...

    def read_coord_chunks(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[CoordChunk]:
        """Read-order coordinates as columnar array chunks.

        Same chunk-size contract as :meth:`write_coord_chunks`.
        """
        ...


class TriangularIndexSpace:
    """Upper-left triangular half of an ``N x N`` square.

    Cell ``(i, j)`` is valid iff ``0 <= i``, ``0 <= j`` and
    ``i + j < N``.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"interleaver dimension must be >= 1, got {n}")
        self.n = n

    # -- geometry -----------------------------------------------------

    @property
    def height(self) -> int:
        """Number of (non-empty) rows."""
        return self.n

    @property
    def width(self) -> int:
        """Length of the longest row (row 0)."""
        return self.n

    @property
    def num_elements(self) -> int:
        """Total number of cells: N (N + 1) / 2."""
        return self.n * (self.n + 1) // 2

    def row_length(self, i: int) -> int:
        """Number of cells in row ``i``."""
        self._check_row(i)
        return self.n - i

    def col_length(self, j: int) -> int:
        """Number of cells in column ``j``."""
        if not 0 <= j < self.n:
            raise ValueError(f"column {j} out of range [0, {self.n})")
        return self.n - j

    def contains(self, i: int, j: int) -> bool:
        """Whether ``(i, j)`` is a valid cell."""
        return 0 <= i and 0 <= j and i + j < self.n

    # -- row-major linearization (the SRAM-style baseline layout) ------

    def row_offset(self, i: int) -> int:
        """Linear index of cell ``(i, 0)`` in row-major packing.

        Rows are packed back to back, so the offset of row ``i`` is the
        sum of the lengths of rows ``0 .. i-1``:
        ``i * N - i (i - 1) / 2``.
        """
        self._check_row(i)
        return _line_start(self.n, i)

    def linear_index(self, i: int, j: int) -> int:
        """Row-major linear index of cell ``(i, j)``."""
        if not self.contains(i, j):
            raise ValueError(f"({i}, {j}) outside triangle of size {self.n}")
        return self.row_offset(i) + j

    def from_linear(self, index: int) -> Tuple[int, int]:
        """Inverse of :meth:`linear_index`."""
        if not 0 <= index < self.num_elements:
            raise ValueError(f"linear index {index} out of range [0, {self.num_elements})")
        i = _line_of(self.n, index)
        return i, index - _line_start(self.n, i)

    # -- traversal orders ----------------------------------------------

    def write_order(self) -> Iterator[Tuple[int, int]]:
        """Cells in write (row-wise) order."""
        n = self.n
        for i in range(n):
            for j in range(n - i):
                yield i, j

    def read_order(self) -> Iterator[Tuple[int, int]]:
        """Cells in read (column-wise) order."""
        n = self.n
        for j in range(n):
            for i in range(n - j):
                yield i, j

    # -- vectorized traversal (columnar coordinate chunks) -------------

    def linear_indices(self, i: ArrayLike, j: ArrayLike) -> NDArray[Any]:
        """Vectorized :meth:`linear_index` over coordinate arrays.

        Args:
            i, j: integer arrays (or scalars) of equal shape.

        Returns:
            ``int64`` array of row-major linear indices.

        Raises:
            ValueError: if any coordinate lies outside the triangle.
        """
        import numpy as np

        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if ((i < 0) | (j < 0) | (i + j >= self.n)).any():
            raise ValueError(f"coordinates outside triangle of size {self.n}")
        return i * self.n - i * (i - 1) // 2 + j

    def write_coord_chunks(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[CoordChunk]:
        """Write-order (row-wise) coordinates as ``(i, j)`` array chunks.

        Yields ``int64`` array pairs covering the same cells, in the
        same order, as :meth:`write_order`.  A chunk ends at the first
        whole row where its cell count reaches ``chunk_size`` (the last
        chunk may hold fewer).

        Raises:
            ValueError: when ``chunk_size < 1``.
        """
        yield from _row_wise_chunks(self.n, chunk_size, major_is_row=True)

    def read_coord_chunks(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[CoordChunk]:
        """Read-order (column-wise) coordinates as ``(i, j)`` array chunks.

        Column ``j`` holds as many cells as row ``j``, so the chunks end
        at whole columns by the rule of :meth:`write_coord_chunks`.

        Raises:
            ValueError: when ``chunk_size < 1``.
        """
        yield from _row_wise_chunks(self.n, chunk_size, major_is_row=False)

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"row {i} out of range [0, {self.n})")

    def __repr__(self) -> str:
        return f"TriangularIndexSpace(n={self.n})"


class RectangularIndexSpace:
    """Dense ``height x width`` index space (classic block interleaver)."""

    def __init__(self, height: int, width: int) -> None:
        if height < 1 or width < 1:
            raise ValueError(f"dimensions must be >= 1, got {height} x {width}")
        self.height = height
        self.width = width

    @property
    def num_elements(self) -> int:
        """Total number of cells: height x width."""
        return self.height * self.width

    def row_length(self, i: int) -> int:
        """Number of cells in row ``i`` (always ``width``)."""
        if not 0 <= i < self.height:
            raise ValueError(f"row {i} out of range [0, {self.height})")
        return self.width

    def col_length(self, j: int) -> int:
        """Number of cells in column ``j`` (always ``height``)."""
        if not 0 <= j < self.width:
            raise ValueError(f"column {j} out of range [0, {self.width})")
        return self.height

    def contains(self, i: int, j: int) -> bool:
        """Whether ``(i, j)`` is a valid cell."""
        return 0 <= i < self.height and 0 <= j < self.width

    def row_offset(self, i: int) -> int:
        """Linear index of cell ``(i, 0)`` in row-major packing."""
        if not 0 <= i < self.height:
            raise ValueError(f"row {i} out of range [0, {self.height})")
        return i * self.width

    def linear_index(self, i: int, j: int) -> int:
        """Row-major linear index of cell ``(i, j)``."""
        if not self.contains(i, j):
            raise ValueError(f"({i}, {j}) outside {self.height} x {self.width} space")
        return i * self.width + j

    def from_linear(self, index: int) -> Tuple[int, int]:
        """Inverse of :meth:`linear_index`."""
        if not 0 <= index < self.num_elements:
            raise ValueError(f"linear index {index} out of range [0, {self.num_elements})")
        return divmod(index, self.width)

    def write_order(self) -> Iterator[Tuple[int, int]]:
        """Row-wise traversal (the write phase's program order)."""
        for i in range(self.height):
            for j in range(self.width):
                yield i, j

    def read_order(self) -> Iterator[Tuple[int, int]]:
        """Column-wise traversal (the read phase's program order)."""
        for j in range(self.width):
            for i in range(self.height):
                yield i, j

    # -- vectorized traversal (columnar coordinate chunks) -------------

    def linear_indices(self, i: ArrayLike, j: ArrayLike) -> NDArray[Any]:
        """Vectorized :meth:`linear_index` over coordinate arrays."""
        import numpy as np

        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if ((i < 0) | (i >= self.height) | (j < 0) | (j >= self.width)).any():
            raise ValueError(f"coordinates outside {self.height} x {self.width} space")
        return i * self.width + j

    def write_coord_chunks(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[CoordChunk]:
        """Write-order coordinates as ``(i, j)`` chunks of ``chunk_size`` cells.

        Raises:
            ValueError: when ``chunk_size < 1``.
        """
        import numpy as np

        check_chunk_size(chunk_size)
        total = self.num_elements
        for start in range(0, total, chunk_size):
            linear = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
            yield linear // self.width, linear % self.width

    def read_coord_chunks(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[CoordChunk]:
        """Read-order coordinates as ``(i, j)`` chunks of ``chunk_size`` cells.

        Raises:
            ValueError: when ``chunk_size < 1``.
        """
        import numpy as np

        check_chunk_size(chunk_size)
        total = self.num_elements
        for start in range(0, total, chunk_size):
            linear = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
            yield linear % self.height, linear // self.height

    def __repr__(self) -> str:
        return f"RectangularIndexSpace({self.height}, {self.width})"


def _line_start(n: int, k: int) -> int:
    """Cells before line ``k`` of a size-``n`` triangle.

    Line ``k`` (row ``k``, or column ``k``) holds ``n - k`` cells.
    """
    return k * n - k * (k - 1) // 2


def _line_of(n: int, index: int) -> int:
    """The line of a size-``n`` triangle holding cell ``index``.

    Solving ``_line_start(n, k) <= index`` for ``k`` gives a closed
    form; a float seed plus a local fix-up avoids precision traps.
    """
    k = int(n + 0.5 - math.sqrt((n + 0.5) ** 2 - 2 * index))
    k = max(0, min(k, n - 1))
    while k + 1 < n and _line_start(n, k + 1) <= index:
        k += 1
    while k > 0 and _line_start(n, k) > index:
        k -= 1
    return k


def _row_wise_chunks(n: int, chunk_size: int,
                     major_is_row: bool) -> Iterator[CoordChunk]:
    """Cut a size-``n`` triangle's rows (or columns) into coordinate chunks.

    Walks the major axis, whose line ``k`` carries ``n - k`` cells along
    the minor axis.  A chunk ends at the first whole line where its cell
    count reaches ``chunk_size``, found in closed form, and
    is built from a fixed number of NumPy calls however many lines it
    holds.  With ``major_is_row`` the yielded pair is ``(i, j) = (k,
    minor)`` (write order), otherwise ``(minor, k)`` (read order).
    """
    import numpy as np

    check_chunk_size(chunk_size)
    total = n * (n + 1) // 2
    first = 0
    while first < n:
        start = _line_start(n, first)
        end = start + chunk_size
        stop = n if end >= total else _line_of(n, end - 1) + 1
        lines = np.arange(first, stop, dtype=np.int64)
        lengths = n - lines
        major = np.repeat(lines, lengths)
        minor = np.arange(_line_start(n, stop) - start, dtype=np.int64)
        minor -= np.repeat(lines * n - lines * (lines - 1) // 2 - start, lengths)
        yield (major, minor) if major_is_row else (minor, major)
        first = stop


def triangle_size_for_elements(num_elements: int) -> int:
    """Smallest ``N`` with ``N (N + 1) / 2 >= num_elements``.

    The paper's headline configuration has 12.5 M elements, i.e.
    ``N = 5000`` (``5000 * 5001 / 2 = 12 502 500``).
    """
    if num_elements < 1:
        raise ValueError(f"element count must be >= 1, got {num_elements}")
    n = int(math.sqrt(2 * num_elements))
    while n * (n + 1) // 2 < num_elements:
        n += 1
    while n > 1 and (n - 1) * n // 2 >= num_elements:
        n -= 1
    return n


def interleaver_delay(space: TriangularIndexSpace, i: int, j: int) -> int:
    """Number of symbol slots between write and read of cell ``(i, j)``.

    Write slot: position of ``(i, j)`` in write order; read slot:
    position in read order.  The difference (modulo the frame length,
    since frames stream back to back) is the dwell time of the symbol
    inside the interleaver and determines the memory lifetime relevant
    to the refresh-disabling argument in Section III of the paper.
    """
    if not space.contains(i, j):
        raise ValueError(f"({i}, {j}) outside triangle of size {space.n}")
    write_slot = space.linear_index(i, j)
    # Position of (i, j) in column-major order over the triangle.
    n = space.n
    read_slot = j * n - j * (j - 1) // 2 + i
    return (read_slot - write_slot) % space.num_elements
