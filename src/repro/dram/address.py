"""DRAM addresses and the linear-address bit-field decoder.

Two address notions coexist:

* :class:`DramAddress` — the physical triple the controller needs:
  flat bank index, row, burst-granular column.
* *linear burst index* — position of a burst in the flat byte address
  space, used by the row-major baseline mapping.

:class:`LinearDecoder` splits a linear burst index into bit fields,
written in DRAMSys notation from most- to least-significant as
``Ro Ba Co Bg``: ``Ro`` row bits, ``Ba`` bank-in-group bits, ``Co``
column (burst index within the page) bits, ``Bg`` bank-group bits.
Bank-group bits lowest make a sequential stream alternate bank groups
on every burst (tCCD_S instead of tCCD_L), then the page fills, then
the bank in the group advances, then the row.  This mirrors the
bank-group interleaving default of production controllers and of
DRAMSys; without it the row-major baseline's *write* phase would
already collapse on DDR4/DDR5, which is neither what the paper reports
nor how real controllers behave.  The row field is the top field, so a
region starting at burst 0 touches every row up to its last burst's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.dram.geometry import Geometry


@dataclass(frozen=True, order=True)
class DramAddress:
    """Physical (bank, row, column) triple at burst granularity.

    ``bank`` is the flat bank index whose *low* bits select the bank
    group, per the convention in Section II of the paper; ``column`` is
    the index of the burst within the row (not the JEDEC column address,
    which additionally carries the burst-internal offset).
    """

    bank: int
    row: int
    column: int

    def validate(self, geometry: Geometry) -> "DramAddress":
        """Raise :class:`ValueError` unless the address fits the geometry."""
        if not 0 <= self.bank < geometry.banks:
            raise ValueError(f"bank {self.bank} out of range [0, {geometry.banks})")
        if not 0 <= self.row < geometry.rows:
            raise ValueError(f"row {self.row} out of range [0, {geometry.rows})")
        if not 0 <= self.column < geometry.bursts_per_row:
            raise ValueError(
                f"column {self.column} out of range [0, {geometry.bursts_per_row})"
            )
        return self


class LinearDecoder:
    """Splits a linear burst index into a :class:`DramAddress`.

    The fields, from most- to least-significant bit, are row, bank in
    group, column and bank group (``Ro Ba Co Bg``).  A geometry without
    bank groups has an empty bank-group field.

    Args:
        geometry: the channel organization that defines field widths.
    """

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        #: Number of distinct burst indices the decoder covers.
        self.total_bursts = geometry.total_bursts
        self._column_shift = geometry.bank_group_bits
        self._bank_shift = geometry.bank_group_bits + geometry.column_burst_bits
        self._row_shift = geometry.bank_bits + geometry.column_burst_bits

    def _split(self, index: Any) -> Tuple[Any, Any, Any]:
        """``(bank, row, column)`` of an index or an ``int64`` array."""
        geometry = self.geometry
        bank_group = index & (geometry.bank_groups - 1)
        column = (index >> self._column_shift) & (geometry.bursts_per_row - 1)
        in_group = (index >> self._bank_shift) & (geometry.banks_per_group - 1)
        bank = in_group * geometry.bank_groups + bank_group
        return bank, index >> self._row_shift, column

    def decode(self, burst_index: int) -> DramAddress:
        """Decode a linear burst index into a physical address."""
        if not 0 <= burst_index < self.total_bursts:
            raise ValueError(
                f"burst index {burst_index} out of range [0, {self.total_bursts})"
            )
        return DramAddress(*self._split(burst_index))

    def decode_arrays(self, burst_indices: Any) -> Tuple[Any, Any, Any]:
        """Vectorized :meth:`decode` over an array of burst indices.

        Args:
            burst_indices: integer array (or sequence) of linear burst
                indices.

        Returns:
            ``(bank, row, column)`` — three ``int64`` arrays, the
        columnar form consumed by the controller's chunked intake.

        Raises:
            ValueError: if any index is outside the channel.
        """
        import numpy as np

        indices = np.asarray(burst_indices, dtype=np.int64)
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self.total_bursts
        ):
            raise ValueError(
                f"burst indices out of range [0, {self.total_bursts})"
            )
        return self._split(indices)
