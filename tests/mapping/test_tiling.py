"""Page-tile geometry."""

import pytest

from repro.dram.geometry import Geometry
from repro.mapping.tiling import TileGeometry, balanced_tile, row_strip_tile, tiles_covering


def _geometry(bank_groups, banks_per_group, bursts):
    return Geometry(bank_groups=bank_groups, banks_per_group=banks_per_group,
                    rows=128, columns=bursts * 8, bus_width_bits=64, burst_length=8)


class TestTileGeometry:
    def test_valid(self):
        tile = TileGeometry(banks=4, bursts_per_page=8, tile_h=8, tile_w=4)
        assert tile.cells_per_tile == 32

    def test_rejects_wrong_capacity(self):
        with pytest.raises(ValueError, match="one page"):
            TileGeometry(banks=4, bursts_per_page=8, tile_h=4, tile_w=4)

    def test_rejects_width_not_multiple_of_banks(self):
        with pytest.raises(ValueError, match="multiple"):
            TileGeometry(banks=8, bursts_per_page=8, tile_h=16, tile_w=4)

    def test_run_lengths(self):
        tile = TileGeometry(banks=4, bursts_per_page=16, tile_h=8, tile_w=8)
        assert tile.row_run_length == 2
        assert tile.col_run_length == 2
        assert tile.balance_ratio() == 1.0


class TestBalancedTile:
    def test_square_when_possible(self):
        geometry = _geometry(1, 8, 128)  # B=8, P=128 -> 1024 = 32 x 32
        tile = balanced_tile(geometry)
        assert (tile.tile_h, tile.tile_w) == (32, 32)

    def test_odd_bit_count_gives_the_extra_bit_to_the_width(self):
        geometry = _geometry(4, 4, 128)  # B=16, P=128 -> 2048 cells
        tile = balanced_tile(geometry)
        assert (tile.tile_h, tile.tile_w) == (32, 64)

    def test_both_dimensions_at_least_banks(self, any_config):
        tile = balanced_tile(any_config.geometry)
        assert tile.tile_h >= any_config.geometry.banks or tile.tile_w >= any_config.geometry.banks
        assert tile.tile_w % any_config.geometry.banks == 0

    def test_capacity_invariant(self, any_config):
        geometry = any_config.geometry
        tile = balanced_tile(geometry)
        assert tile.tile_h * tile.tile_w == geometry.banks * geometry.bursts_per_row

    def test_rejects_page_smaller_than_banks(self):
        geometry = _geometry(4, 8, 16)  # B=32 > P=16
        with pytest.raises(ValueError, match="bursts_per_page >= banks"):
            balanced_tile(geometry)


class TestRowStrip:
    def test_shape(self):
        geometry = _geometry(2, 2, 8)
        tile = row_strip_tile(geometry)
        assert tile.tile_h == 1
        assert tile.tile_w == 4 * 8

    def test_degenerate_runs(self):
        geometry = _geometry(2, 2, 8)
        tile = row_strip_tile(geometry)
        assert tile.row_run_length == 8
        assert tile.col_run_length == 1


class TestTilesCovering:
    def test_exact(self):
        assert tiles_covering(64, 32) == 2

    def test_partial(self):
        assert tiles_covering(65, 32) == 3

    def test_single(self):
        assert tiles_covering(1, 32) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tiles_covering(0, 32)
        with pytest.raises(ValueError):
            tiles_covering(32, 0)
