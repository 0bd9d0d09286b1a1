"""The optimized mapping: injectivity and the three paper properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import Geometry
from repro.interleaver.triangular import RectangularIndexSpace, TriangularIndexSpace
from repro.mapping.analysis import analyze_pattern, miss_clustering, profile_mapping
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.validate import assert_valid, validate_mapping


def _geometry(bank_groups=2, banks_per_group=2, rows=512, bursts=8):
    return Geometry(
        bank_groups=bank_groups,
        banks_per_group=banks_per_group,
        rows=rows,
        columns=bursts * 8,
        bus_width_bits=64,
        burst_length=8,
    )


class TestInjectivity:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"enable_offset": False},
        {"enable_tiling": False},
        {"enable_bank_rotation": False},
        {"enable_bank_rotation": False, "enable_offset": False},
        {"enable_tiling": False, "enable_offset": False},
    ])
    def test_triangular_variants(self, kwargs):
        mapping = OptimizedMapping(TriangularIndexSpace(40), _geometry(), **kwargs)
        report = assert_valid(mapping)
        assert report.cells == 820

    def test_rectangular_space(self):
        mapping = OptimizedMapping(RectangularIndexSpace(32, 48), _geometry())
        assert_valid(mapping)

    def test_all_real_geometries(self, any_config):
        mapping = OptimizedMapping(TriangularIndexSpace(96), any_config.geometry)
        assert_valid(mapping)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=48),
        bank_groups=st.sampled_from([1, 2, 4]),
        banks_per_group=st.sampled_from([2, 4]),
        bursts=st.sampled_from([16, 32]),
        offset=st.booleans(),
    )
    def test_property_injective(self, n, bank_groups, banks_per_group, bursts, offset):
        geometry = _geometry(bank_groups, banks_per_group, rows=256, bursts=bursts)
        mapping = OptimizedMapping(TriangularIndexSpace(n), geometry,
                                   enable_offset=offset)
        report = validate_mapping(mapping)
        assert report.ok


class TestBankRotation:
    """Optimization 1: bank index increments by one in both directions."""

    def test_row_direction(self):
        geometry = _geometry()
        mapping = OptimizedMapping(TriangularIndexSpace(32), geometry)
        banks = [mapping.bank_of(0, j) for j in range(16)]
        assert banks == [(j) % geometry.banks for j in range(16)]

    def test_column_direction(self):
        geometry = _geometry()
        mapping = OptimizedMapping(TriangularIndexSpace(32), geometry)
        banks = [mapping.bank_of(i, 0) for i in range(16)]
        assert banks == [(i) % geometry.banks for i in range(16)]

    def test_bank_group_always_switches(self, ddr4):
        """Within a row/column sweep the bank group changes every access
        (tCCD_S path); only the few triangle-row boundaries may repeat a
        group."""
        mapping = OptimizedMapping(TriangularIndexSpace(64), ddr4.geometry)
        metrics = analyze_pattern(mapping.write_addresses(), ddr4.geometry.bank_groups)
        assert metrics.bank_group_switch_rate > 0.98
        metrics = analyze_pattern(mapping.read_addresses(), ddr4.geometry.bank_groups)
        assert metrics.bank_group_switch_rate > 0.98

    def test_rotation_disabled_clusters_banks(self):
        geometry = _geometry()
        mapping = OptimizedMapping(TriangularIndexSpace(32), geometry,
                                   enable_bank_rotation=False)
        metrics = analyze_pattern(mapping.write_addresses(), geometry.bank_groups)
        assert metrics.bank_switch_rate <= 0.6


class TestTiling:
    """Optimization 2: misses split between the two directions."""

    def test_balanced_runs(self):
        geometry = _geometry()  # 4 banks, 8 bursts/page -> tile 32 cells
        mapping = OptimizedMapping(TriangularIndexSpace(64), geometry,
                                   enable_offset=False)
        profile = profile_mapping(mapping)
        assert profile.balance < 3.0

    def test_no_tiling_starves_reads(self):
        geometry = _geometry()
        mapping = OptimizedMapping(TriangularIndexSpace(64), geometry,
                                   enable_tiling=False, enable_offset=False)
        profile = profile_mapping(mapping)
        # Row-wise gets long runs, column-wise gets none.
        assert profile.write.mean_run_length > 4 * profile.read.mean_run_length
        assert profile.read.hit_rate < 0.05

    def test_tiling_raises_min_hit_rate(self):
        geometry = _geometry()
        space = TriangularIndexSpace(64)
        tiled = profile_mapping(OptimizedMapping(space, geometry))
        untiled = profile_mapping(OptimizedMapping(space, geometry,
                                                   enable_tiling=False))
        assert tiled.min_hit_rate > untiled.min_hit_rate

    def test_tile_shape_holds_one_page_per_bank(self, any_config):
        mapping = OptimizedMapping(TriangularIndexSpace(64), any_config.geometry)
        tile_h, tile_w = mapping.tile_shape
        geometry = any_config.geometry
        assert tile_h * tile_w == geometry.banks * geometry.bursts_per_row

    def test_no_rotation_tile_holds_one_page_in_the_balanced_orientation(
            self, any_config):
        """Without the rotation a tile is one bank's page, split like the
        balanced tile: an odd bit count's extra bit goes to the width, so
        the ablation changes the rotation and not the orientation too."""
        geometry = any_config.geometry
        mapping = OptimizedMapping(TriangularIndexSpace(64), geometry,
                                   enable_bank_rotation=False)
        tile_h, tile_w = mapping.tile_shape
        assert tile_h * tile_w == geometry.bursts_per_row
        assert tile_w >= tile_h


class TestOffset:
    """Optimization 3: page misses staggered across banks."""

    def test_offset_reduces_miss_clustering(self):
        geometry = _geometry(bank_groups=2, banks_per_group=2, bursts=16)
        space = RectangularIndexSpace(64, 64)
        with_offset = OptimizedMapping(space, geometry)
        without = OptimizedMapping(space, geometry, enable_offset=False)
        clustered_with = miss_clustering(
            analyze_pattern(with_offset.write_addresses()), window=1)
        clustered_without = miss_clustering(
            analyze_pattern(without.write_addresses()), window=1)
        assert clustered_with < clustered_without

    def test_stagger_step_zero_when_disabled(self):
        mapping = OptimizedMapping(TriangularIndexSpace(32), _geometry(),
                                   enable_offset=False)
        assert mapping.stagger_step == (0, 0)

    def test_stagger_step_positive(self):
        mapping = OptimizedMapping(TriangularIndexSpace(32), _geometry())
        dr, dc = mapping.stagger_step
        assert dr > 0 and dc > 0

    def test_offset_spreads_boundary_crossings(self):
        """With the offset, per-bank tile-boundary crossings spread over
        a wider span of the sweep than without (paper Fig. 1d)."""
        geometry = _geometry(bursts=16)
        space = RectangularIndexSpace(64, 64)

        def first_crossings(mapping):
            first = {}
            last_row = {}
            for j in range(64):
                bank, row, _col = mapping.address_tuple(0, j)
                if bank in last_row and last_row[bank] != row and bank not in first:
                    first[bank] = j
                last_row[bank] = row
            return first

        with_offset = first_crossings(OptimizedMapping(space, geometry))
        without = first_crossings(OptimizedMapping(space, geometry,
                                                   enable_offset=False))
        span_with = max(with_offset.values()) - min(with_offset.values())
        span_without = max(without.values()) - min(without.values())
        assert span_with > span_without


class TestStorage:
    def test_rows_used_rectangular_allocation(self):
        geometry = _geometry(rows=512)
        mapping = OptimizedMapping(TriangularIndexSpace(40), geometry)
        tile_h, tile_w = mapping.tile_shape
        tiles_x = -(-40 // tile_w)
        tiles_y = -(-40 // tile_h)
        assert mapping.rows_used() == tiles_x * tiles_y

    def test_exact_fit_keeps_rectangular_rows(self):
        """A grid that just fits keeps its rows; compaction starts beyond."""
        space = TriangularIndexSpace(64)
        roomy = OptimizedMapping(space, _geometry(rows=512))
        assert roomy.rows_used() == 128
        exact = OptimizedMapping(space, _geometry(rows=128))
        assert list(exact.write_addresses()) == list(roomy.write_addresses())

    def test_small_device_gets_compacted_rows(self):
        space = TriangularIndexSpace(48)
        full = OptimizedMapping(space, _geometry(rows=512))
        compact = OptimizedMapping(space, _geometry(rows=64))
        assert compact.rows_used() <= 64 < full.rows_used()
        assert compact.storage_efficiency() > full.storage_efficiency()
        assert_valid(compact)

    def test_dense_rectangle_cannot_compact(self):
        # A dense rectangle touches every tile; compaction saves nothing.
        space = RectangularIndexSpace(32, 64)
        need = OptimizedMapping(space, _geometry(rows=512)).rows_used()
        with pytest.raises(ValueError, match=f"needs {need} rows"):
            OptimizedMapping(space, _geometry(rows=need // 2))

    def test_capacity_error_when_device_too_small(self):
        geometry = _geometry(rows=2)
        with pytest.raises(ValueError, match="rows"):
            OptimizedMapping(TriangularIndexSpace(128), geometry)

    def test_storage_efficiency_in_unit_interval(self, any_config):
        mapping = OptimizedMapping(TriangularIndexSpace(64), any_config.geometry)
        assert 0.0 < mapping.storage_efficiency() <= 1.0


class TestErrors:
    def test_address_outside_space_rejected(self):
        mapping = OptimizedMapping(TriangularIndexSpace(16), _geometry())
        with pytest.raises(ValueError):
            mapping.address_tuple(15, 15)  # i + j >= n

    def test_mapping_name(self):
        assert OptimizedMapping(TriangularIndexSpace(8), _geometry()).name == "optimized"
