"""DramAddress and the linear bit-field decoder."""

import pytest

from repro.dram.address import DramAddress, LinearDecoder
from repro.dram.geometry import Geometry


@pytest.fixture
def geometry():
    return Geometry(bank_groups=2, banks_per_group=2, rows=16, columns=64,
                    bus_width_bits=64, burst_length=8)


class TestDramAddress:
    def test_validate_ok(self, geometry):
        DramAddress(bank=3, row=15, column=7).validate(geometry)

    @pytest.mark.parametrize("bank,row,column", [
        (4, 0, 0), (-1, 0, 0), (0, 16, 0), (0, -1, 0), (0, 0, 8), (0, 0, -2),
    ])
    def test_validate_rejects(self, geometry, bank, row, column):
        with pytest.raises(ValueError):
            DramAddress(bank=bank, row=row, column=column).validate(geometry)

    def test_ordering(self):
        assert DramAddress(0, 0, 1) < DramAddress(0, 1, 0) < DramAddress(1, 0, 0)


class TestDecoderConstruction:
    def test_total_bursts_matches_geometry(self, geometry):
        decoder = LinearDecoder(geometry)
        assert decoder.total_bursts == geometry.total_bursts


class TestDefaultScheme:
    """Default: Ro Ba Co Bg — bank group interleaved on the lowest bits."""

    def test_sequential_rotates_bank_groups(self, geometry):
        decoder = LinearDecoder(geometry)
        groups = [decoder.decode(i).bank % geometry.bank_groups for i in range(8)]
        assert groups == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_column_advances_after_groups(self, geometry):
        decoder = LinearDecoder(geometry)
        assert decoder.decode(0).column == 0
        assert decoder.decode(1).column == 0
        assert decoder.decode(2).column == 1

    def test_page_span_covers_groups(self, geometry):
        """One page per group is filled before the bank-in-group advances."""
        decoder = LinearDecoder(geometry)
        span = geometry.bursts_per_row * geometry.bank_groups
        before = decoder.decode(span - 1)
        after = decoder.decode(span)
        assert before.bank // geometry.bank_groups == 0
        assert after.bank // geometry.bank_groups == 1

    def test_row_is_most_significant(self, geometry):
        decoder = LinearDecoder(geometry)
        per_row = geometry.bursts_per_row * geometry.banks
        assert decoder.decode(per_row - 1).row == 0
        assert decoder.decode(per_row).row == 1


class TestRoundtrip:
    def test_exhaustive_small(self, geometry):
        decoder = LinearDecoder(geometry)
        seen = set()
        for index in range(decoder.total_bursts):
            address = decoder.decode(index)
            address.validate(geometry)
            seen.add((address.bank, address.row, address.column))
        assert len(seen) == decoder.total_bursts  # bijective

    def test_rejects_out_of_range(self, geometry):
        decoder = LinearDecoder(geometry)
        with pytest.raises(ValueError):
            decoder.decode(decoder.total_bursts)
        with pytest.raises(ValueError):
            decoder.decode(-1)


class TestNoBankGroupGeometry:
    def test_bg_field_is_empty(self):
        geometry = Geometry(bank_groups=1, banks_per_group=8, rows=32, columns=64,
                            bus_width_bits=16, burst_length=16)
        decoder = LinearDecoder(geometry)
        # Sequential accesses stay in bank 0 for a whole page.
        banks = {decoder.decode(i).bank for i in range(geometry.bursts_per_row)}
        assert banks == {0}
