"""Common interface for interleaver-to-DRAM address mappings.

A mapping assigns every cell ``(i, j)`` of an interleaver index space
(one cell = one DRAM burst) a physical :class:`~repro.dram.address.DramAddress`.
Mappings must be *injective* over the index space — two cells may never
share a (bank, row, column) triple — which is property-tested in
``tests/mapping``.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Tuple

from repro.dram.address import DramAddress
from repro.dram.geometry import Geometry
from repro.interleaver.triangular import DEFAULT_COORD_CHUNK, IndexSpace

#: The (bank, row, column) tuples the controller consumes.
AddressTuple = Tuple[int, int, int]

#: One columnar address chunk: (banks, rows, columns) int64 arrays.
AddressArrays = Tuple[Any, Any, Any]

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

    def write_addresses_array(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[AddressArrays]:
        """Write-order addresses as columnar array chunks.

        Yields the exact address sequence of :meth:`write_addresses` in
        ``(bank, row, column)`` array chunks of ``<= ~chunk_size``
        bursts — the shape the controller's chunked intake consumes.
        The default,
        :data:`~repro.interleaver.triangular.DEFAULT_COORD_CHUNK`, is
        the pipeline-wide 6 MiB budget in cells (see
        ``benchmarks/bench_chunk_size.py`` for the flat part of the
        size/throughput curve it sits on), the same chunking as the
        index spaces' coordinate iterators.  Granularity never changes
        the address sequence, only its batching.

        Raises:
            ValueError: when ``chunk_size < 1`` (on iteration).
        """
        for i, j in self.space.write_coord_chunks(chunk_size):
            yield self.address_arrays(i, j)

    def read_addresses_array(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[AddressArrays]:
        """Read-order addresses as columnar array chunks.

        Same granularity contract as :meth:`write_addresses_array`.
        """
        for i, j in self.space.read_coord_chunks(chunk_size):
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
