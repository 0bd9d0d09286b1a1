"""Row-major baseline mapping (the SRAM-style layout).

This is the mapping the paper evaluates as the state of the art: the
two-dimensional index space is packed row by row into the linear
address space (triangular rows back to back, without padding — exactly
how an SRAM implementation addresses the array), and the linear burst
index is split into (bank group, bank, row, column) fields by the
``Ro Ba Co Bg`` bit-field decoder (:class:`repro.dram.address.LinearDecoder`).

The *write* phase is then a purely sequential stream — page hits
within every page, bank-group interleaving on the lowest bits, pages
opened well in advance — so write utilization stays high everywhere,
just as in Table I.  The *read* phase strides through
the linear space by one (varying) row length per access, scattering
accesses over banks and rows: almost every access is a page miss, and
utilization becomes limited by how fast the device can activate rows
(tRRD/tFAW) relative to the ever-shorter burst duration of faster
speed grades.  That is the collapse the paper reports (down to 35.77 %
on LPDDR4-4266).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.dram.address import LinearDecoder
from repro.dram.geometry import Geometry
from repro.interleaver.triangular import (
    DEFAULT_COORD_CHUNK,
    IndexSpace,
    check_chunk_size,
)
from repro.mapping.base import AddressArrays, AddressTuple, InterleaverMapping


class RowMajorMapping(InterleaverMapping):
    """SRAM-style row-major linearization + bit-field address decode.

    The interleaver region starts at burst 0 of the channel.

    Args:
        space: the interleaver index space.
        geometry: target channel organization.
    """

    name = "row-major"

    def __init__(self, space: IndexSpace, geometry: Geometry) -> None:
        super().__init__(space, geometry)
        self.decoder = LinearDecoder(geometry)
        end = space.num_elements
        if end > self.decoder.total_bursts:
            raise ValueError(
                f"interleaver needs bursts [0, {end}) but the channel "
                f"has only {self.decoder.total_bursts}"
            )

    def address_tuple(self, i: int, j: int) -> AddressTuple:
        """Linear-decode the cell's row-major index into bank/row/column."""
        address = self.decoder.decode(self.space.linear_index(i, j))
        return address.bank, address.row, address.column

    # -- vectorized kernel ------------------------------------------------

    def address_arrays(self, i: Any, j: Any) -> AddressArrays:
        """Vectorized linearize-and-decode over coordinate arrays."""
        return self.decoder.decode_arrays(self.space.linear_indices(i, j))

    def write_addresses_array(
            self,
            chunk_size: int = DEFAULT_COORD_CHUNK) -> Iterator[AddressArrays]:
        """Sequential burst indices decoded in bulk (fastest path).

        The write order is the linear order, so the coordinate step is
        skipped entirely: chunks of ``arange`` decode straight to
        columnar addresses.  Granularity contract as in
        :meth:`InterleaverMapping.write_addresses_array`.
        """
        import numpy as np

        check_chunk_size(chunk_size)
        total = self.space.num_elements
        decode_arrays = self.decoder.decode_arrays
        for start in range(0, total, chunk_size):
            stop = min(start + chunk_size, total)
            yield decode_arrays(np.arange(start, stop, dtype=np.int64))

    def rows_used(self) -> int:
        """Distinct DRAM rows touched: the row field is the top field,
        so the region covers every row up to its last burst's."""
        return self.decoder.decode(self.space.num_elements - 1).row + 1

    def check_capacity(self) -> None:
        """No-op: injectivity is structural (decode is a bijection on
        linear indices) and the region bound is checked in ``__init__``."""
        return None
