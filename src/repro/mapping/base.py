"""Common interface for interleaver-to-DRAM address mappings.

A mapping assigns every cell ``(i, j)`` of an interleaver index space
(one cell = one DRAM burst) a physical :class:`~repro.dram.address.DramAddress`.
Mappings must be *injective* over the index space — two cells may never
share a (bank, row, column) triple — which is property-tested in
``tests/mapping``.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Optional, Tuple

from repro.dram.address import DramAddress
from repro.dram.geometry import Geometry
from repro.interleaver.triangular import (
    DEFAULT_COORD_CHUNK,
    IndexSpace,
    check_chunk_size,
    chunk_cells,
)

#: The (bank, row, column) tuples the controller consumes.
AddressTuple = Tuple[int, int, int]

#: One columnar address chunk: (banks, rows, columns) int64 arrays.
AddressArrays = Tuple[Any, Any, Any]

#: Default chunk size (bursts) of the array traversal fast paths —
#: the pipeline-wide byte budget of
#: :data:`repro.interleaver.triangular.DEFAULT_CHUNK_BYTES` expressed
#: in cells; bounded memory even at paper scale (12.5 M cells => ~48
#: chunks).  Shared with the index spaces' coordinate iterators so both
#: sides of the pipeline chunk identically.
DEFAULT_CHUNK = DEFAULT_COORD_CHUNK


def _resolve_chunk_size(chunk_size: Optional[int],
                        chunk_bytes: Optional[int]) -> int:
    """Bursts per chunk from an explicit count or a byte budget."""
    if chunk_size is not None and chunk_bytes is not None:
        raise ValueError("pass chunk_size or chunk_bytes, not both")
    if chunk_bytes is not None:
        return chunk_cells(chunk_bytes)
    if chunk_size is None:
        return DEFAULT_CHUNK
    check_chunk_size(chunk_size)
    return chunk_size


class InterleaverMapping(abc.ABC):
    """Maps a 2-D interleaver index space onto one DRAM channel.

    Args:
        space: index space with ``write_order`` / ``read_order``
            iterators, their coordinate-chunk forms and a ``contains``
            predicate (triangular or rectangular, see
            :mod:`repro.interleaver.triangular`).
        geometry: the target DRAM channel organization.
    """

    #: Short identifier used in benchmark tables.
    name: str = "abstract"

    def __init__(self, space: IndexSpace, geometry: Geometry) -> None:
        self.space = space
        self.geometry = geometry

    @abc.abstractmethod
    def address_tuple(self, i: int, j: int) -> AddressTuple:
        """Physical ``(bank, row, column)`` of cell ``(i, j)``."""

    def address_of(self, i: int, j: int) -> DramAddress:
        """Physical address of cell ``(i, j)`` as a :class:`DramAddress`."""
        bank, row, column = self.address_tuple(i, j)
        return DramAddress(bank=bank, row=row, column=column)

    def write_addresses(self) -> Iterator[AddressTuple]:
        """Addresses in write (row-wise) order, one cell at a time.

        The per-element reference the array paths are tested against;
        simulations draw from :meth:`write_addresses_array`.
        """
        address_tuple = self.address_tuple
        for i, j in self.space.write_order():
            yield address_tuple(i, j)

    def read_addresses(self) -> Iterator[AddressTuple]:
        """Addresses in read (column-wise) order, one cell at a time.

        The per-element reference of :meth:`read_addresses_array`.
        """
        address_tuple = self.address_tuple
        for i, j in self.space.read_order():
            yield address_tuple(i, j)

    # -- vectorized traversal (columnar address chunks) -----------------

    def address_arrays(self, i: Any, j: Any) -> AddressArrays:
        """Physical addresses of coordinate arrays, columnar.

        Args:
            i, j: equal-length integer arrays of cell coordinates that
                must lie inside the index space (traversal iterators
                guarantee this; external callers can pre-check with
                ``space.contains``).

        Returns:
            ``(bank, row, column)`` int64 arrays.

        The base implementation is the per-element reference path;
        subclasses with a real NumPy kernel override it and are
        property-tested against this one.
        """
        import numpy as np

        address_tuple = self.address_tuple
        triples = [address_tuple(int(ii), int(jj)) for ii, jj in zip(i, j)]
        if not triples:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        banks, rows, columns = zip(*triples)
        return (
            np.asarray(banks, dtype=np.int64),
            np.asarray(rows, dtype=np.int64),
            np.asarray(columns, dtype=np.int64),
        )

    def write_addresses_array(self, chunk_size: Optional[int] = None, *,
                              chunk_bytes: Optional[int] = None,
                              ) -> Iterator[AddressArrays]:
        """Write-order addresses as columnar array chunks.

        Yields the exact address sequence of :meth:`write_addresses` in
        ``(bank, row, column)`` array chunks of ``<= ~chunk_size``
        bursts — the shape the controller's chunked intake consumes.

        Chunk granularity is set either as an element count
        (``chunk_size``) or adaptively as an in-flight byte budget
        (``chunk_bytes``, converted at
        :data:`~repro.interleaver.triangular.CELL_BYTES` per burst);
        passing both raises :class:`ValueError`.  The default is the
        pipeline-wide 6 MiB budget (see
        ``benchmarks/bench_chunk_size.py`` for the flat part of the
        size/throughput curve it sits on).  Granularity never changes
        the address sequence, only its batching.
        """
        cells = _resolve_chunk_size(chunk_size, chunk_bytes)
        for i, j in self.space.write_coord_chunks(cells):
            yield self.address_arrays(i, j)

    def read_addresses_array(self, chunk_size: Optional[int] = None, *,
                             chunk_bytes: Optional[int] = None,
                             ) -> Iterator[AddressArrays]:
        """Read-order addresses as columnar array chunks.

        Same granularity contract as :meth:`write_addresses_array`.
        """
        cells = _resolve_chunk_size(chunk_size, chunk_bytes)
        for i, j in self.space.read_coord_chunks(cells):
            yield self.address_arrays(i, j)

    def rows_used(self) -> int:
        """Upper bound on distinct DRAM row indices the mapping uses.

        Subclasses override with exact values; used for capacity checks
        and the storage-efficiency analysis (paper, footnote 1).
        """
        return self.geometry.rows

    def check_capacity(self) -> None:
        """Raise :class:`ValueError` if the mapping exceeds the device.

        Checks that the row index space fits; full injectivity is
        checked by :func:`repro.mapping.validate.validate_mapping`.
        """
        if self.rows_used() > self.geometry.rows:
            raise ValueError(
                f"{self.name} mapping needs {self.rows_used()} rows but the device "
                f"has only {self.geometry.rows}"
            )
