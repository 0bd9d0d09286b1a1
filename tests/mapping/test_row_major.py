"""Row-major baseline mapping."""

import pytest

from repro.dram.geometry import Geometry
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.interleaver.triangular import RectangularIndexSpace, TriangularIndexSpace
from repro.mapping.analysis import analyze_pattern, profile_mapping
from repro.mapping.row_major import RowMajorMapping
from repro.mapping.validate import assert_valid


@pytest.fixture
def geometry():
    return Geometry(bank_groups=2, banks_per_group=2, rows=256, columns=64,
                    bus_width_bits=64, burst_length=8)


class TestCorrectness:
    def test_injective_triangular(self, geometry):
        assert_valid(RowMajorMapping(TriangularIndexSpace(40), geometry))

    def test_injective_rectangular(self, geometry):
        assert_valid(RowMajorMapping(RectangularIndexSpace(24, 32), geometry))

    def test_matches_linear_decode(self, geometry):
        space = TriangularIndexSpace(24)
        mapping = RowMajorMapping(space, geometry)
        for i, j in space.write_order():
            expected = mapping.decoder.decode(space.linear_index(i, j))
            assert mapping.address_tuple(i, j) == (
                expected.bank, expected.row, expected.column
            )

    def test_write_order_is_sequential(self, geometry):
        space = TriangularIndexSpace(24)
        mapping = RowMajorMapping(space, geometry)
        expected = [mapping.decoder.decode(k) for k in range(space.num_elements)]
        got = list(mapping.write_addresses())
        assert got == [(a.bank, a.row, a.column) for a in expected]

    def test_read_order_matches_space(self, geometry):
        space = TriangularIndexSpace(24)
        mapping = RowMajorMapping(space, geometry)
        expected = [mapping.address_tuple(i, j) for i, j in space.read_order()]
        assert list(mapping.read_addresses()) == expected

    def test_capacity_enforced(self, geometry):
        with pytest.raises(ValueError, match=r"^interleaver needs bursts "
                           r"\[0, 524800\) but the channel has only 8192$"):
            RowMajorMapping(TriangularIndexSpace(1024), geometry)


class TestAccessPattern:
    """The asymmetry the paper fixes: writes stream, reads thrash."""

    def test_write_phase_mostly_hits(self, geometry):
        mapping = RowMajorMapping(TriangularIndexSpace(64), geometry)
        metrics = analyze_pattern(mapping.write_addresses(), geometry.bank_groups)
        assert metrics.hit_rate > 0.85

    def test_read_phase_mostly_misses_at_scale(self, geometry):
        # Strides must exceed the page-group span (16 bursts here) for
        # the paper's read-collapse effect to appear.
        mapping = RowMajorMapping(TriangularIndexSpace(96), geometry)
        profile = profile_mapping(mapping)
        assert profile.write.hit_rate > 0.85
        assert profile.read.hit_rate < 0.4

    def test_write_rotates_bank_groups(self, ddr4):
        mapping = RowMajorMapping(TriangularIndexSpace(48), ddr4.geometry)
        metrics = analyze_pattern(mapping.write_addresses(), ddr4.geometry.bank_groups)
        assert metrics.bank_group_switch_rate > 0.99

    def test_rows_used_counts_rows(self, geometry):
        space = TriangularIndexSpace(40)
        mapping = RowMajorMapping(space, geometry)
        touched = {mapping.address_tuple(i, j)[1] for i, j in space.write_order()}
        assert mapping.rows_used() == len(touched)

    @pytest.mark.parametrize("config_name", TABLE1_CONFIG_NAMES)
    @pytest.mark.parametrize("n", [1, 255, 256])
    def test_rows_used_is_exact_on_every_device(self, config_name, n):
        """Both phases touch exactly ``rows_used()`` distinct rows, so
        mixed traffic's read frame starts just above the write frame."""
        mapping = RowMajorMapping(TriangularIndexSpace(n),
                                  get_config(config_name).geometry)
        for chunks in (mapping.write_addresses_array(),
                       mapping.read_addresses_array()):
            rows = set()
            for _, row, _ in chunks:
                rows.update(row.tolist())
            assert len(rows) == mapping.rows_used()

    def test_name(self, geometry):
        assert RowMajorMapping(TriangularIndexSpace(8), geometry).name == "row-major"
