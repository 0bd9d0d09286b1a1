"""Vectorized address kernels must mirror the scalar reference path.

Every mapping exposes the same address stream three ways: per-element
tuples (`write_addresses`/`read_addresses`), a scalar kernel
(`address_tuple`) and columnar array chunks
(`write_addresses_array`/`read_addresses_array`).  These tests pin the
bit-identical agreement of all three for triangular and rectangular
spaces across every ablation switch, plus the space-level coordinate
chunking and the decoder's bulk path.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dram.address import LinearDecoder
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.geometry import Geometry
from repro.dram.presets import get_config
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.simulator import simulate_phase
from repro.interleaver.triangular import (
    CELL_BYTES,
    DEFAULT_CHUNK_BYTES,
    DEFAULT_COORD_CHUNK,
    RectangularIndexSpace,
    TriangularIndexSpace,
)
from repro.mapping.base import InterleaverMapping
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

GEOMETRY = get_config("DDR4-3200").geometry
#: Four banks and 8-burst pages, so small triangles span many tiles.
SMALL_PAGE_GEOMETRY = Geometry(bank_groups=2, banks_per_group=2, rows=1 << 16,
                               columns=64, bus_width_bits=64, burst_length=8)


def flatten(chunks):
    """Materialize array chunks into a tuple list (and check dtypes)."""
    out = []
    for banks, rows, columns in chunks:
        assert banks.dtype == np.int64 and rows.dtype == np.int64
        assert len(banks) == len(rows) == len(columns)
        out.extend(zip(banks.tolist(), rows.tolist(), columns.tolist()))
    return out


SPACES = [TriangularIndexSpace(48), RectangularIndexSpace(24, 40)]

OPTIMIZED_VARIANTS = {
    "full": {},
    "no-bank-rotation": {"enable_bank_rotation": False},
    "no-tiling": {"enable_tiling": False},
    "no-offset": {"enable_offset": False},
    "tiling-only": {"enable_bank_rotation": False, "enable_offset": False},
    "rotation-only": {"enable_tiling": False, "enable_offset": False},
}


class TestOptimizedKernel:
    @pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
    @pytest.mark.parametrize("variant", sorted(OPTIMIZED_VARIANTS))
    def test_streams_identical(self, space, variant):
        mapping = OptimizedMapping(space, GEOMETRY, **OPTIMIZED_VARIANTS[variant])
        assert flatten(mapping.write_addresses_array(chunk_size=257)) == list(
            mapping.write_addresses())
        assert flatten(mapping.read_addresses_array(chunk_size=257)) == list(
            mapping.read_addresses())

    @pytest.mark.parametrize("variant", sorted(OPTIMIZED_VARIANTS))
    def test_compacted_streams_identical(self, variant):
        """A device too small for the rectangular grid gets compacted rows."""
        space = TriangularIndexSpace(200)
        kwargs = OPTIMIZED_VARIANTS[variant]
        need = OptimizedMapping(space, SMALL_PAGE_GEOMETRY, **kwargs).rows_used()
        # The largest device below the rectangular need: each variant's
        # compacted layout still fits it at this size.
        rows = 1 << ((need - 1).bit_length() - 1)
        mapping = OptimizedMapping(space, replace(SMALL_PAGE_GEOMETRY, rows=rows),
                                   **kwargs)
        assert mapping.rows_used() <= rows < need
        assert flatten(mapping.write_addresses_array(chunk_size=257)) == list(
            mapping.write_addresses())
        assert flatten(mapping.read_addresses_array(chunk_size=257)) == list(
            mapping.read_addresses())

    def test_kernel_matches_scalar_pointwise(self, small_triangle):
        mapping = OptimizedMapping(small_triangle, GEOMETRY)
        i = np.asarray([0, 1, 5, 20, 47, 0], dtype=np.int64)
        j = np.asarray([0, 3, 7, 11, 0, 47], dtype=np.int64)
        banks, rows, columns = mapping.address_arrays(i, j)
        for k in range(len(i)):
            assert mapping.address_tuple(int(i[k]), int(j[k])) == (
                int(banks[k]), int(rows[k]), int(columns[k]))


class TestRowMajorKernel:
    @pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
    def test_streams_identical(self, space):
        mapping = RowMajorMapping(space, GEOMETRY)
        assert flatten(mapping.write_addresses_array(chunk_size=123)) == list(
            mapping.write_addresses())
        assert flatten(mapping.read_addresses_array(chunk_size=123)) == list(
            mapping.read_addresses())


class TestDecoderArrays:
    def test_matches_scalar_decode(self):
        decoder = LinearDecoder(GEOMETRY)
        indices = np.asarray([0, 1, 17, 4096, decoder.total_bursts - 1], dtype=np.int64)
        banks, rows, columns = decoder.decode_arrays(indices)
        for k, index in enumerate(indices.tolist()):
            address = decoder.decode(index)
            assert (address.bank, address.row, address.column) == (
                int(banks[k]), int(rows[k]), int(columns[k]))

    def test_rejects_out_of_range(self):
        decoder = LinearDecoder(GEOMETRY)
        with pytest.raises(ValueError):
            decoder.decode_arrays([0, decoder.total_bursts])
        with pytest.raises(ValueError):
            decoder.decode_arrays([-1])

    def test_empty_input(self):
        decoder = LinearDecoder(GEOMETRY)
        banks, rows, columns = decoder.decode_arrays([])
        assert len(banks) == len(rows) == len(columns) == 0


def expected_chunk_lengths(line_lengths, chunk_size):
    """A chunk ends at the first whole line where its count reaches chunk_size."""
    lengths, filled = [], 0
    for length in line_lengths:
        filled += length
        if filled >= chunk_size:
            lengths.append(filled)
            filled = 0
    if filled:
        lengths.append(filled)
    return lengths


def triangle_chunk_cases():
    """(n, chunk_size) pairs around every boundary a chunker can miss."""
    cases = []
    for n in (1, 2, 7, 64):
        total = n * (n + 1) // 2
        sizes = {1, n - 1, n, n + 1, total - 1, total, 10 * total}
        cases += [(n, size) for size in sorted(sizes) if size >= 1]
    return cases


class TestCoordChunks:
    @pytest.mark.parametrize("order", ("write", "read"))
    @pytest.mark.parametrize("n,chunk_size", triangle_chunk_cases())
    def test_triangle_chunks_end_at_whole_lines(self, n, chunk_size, order):
        space = TriangularIndexSpace(n)
        if order == "write":
            chunks = list(space.write_coord_chunks(chunk_size))
            line_lengths = [space.row_length(i) for i in range(n)]
            cells = list(space.write_order())
        else:
            chunks = list(space.read_coord_chunks(chunk_size))
            line_lengths = [space.col_length(j) for j in range(n)]
            cells = list(space.read_order())
        assert [len(i) for i, _ in chunks] == expected_chunk_lengths(
            line_lengths, chunk_size)
        assert all(i.dtype == j.dtype == np.int64 for i, j in chunks)
        assert [(int(a), int(b)) for i, j in chunks
                for a, b in zip(i, j)] == cells

    @pytest.mark.parametrize("order", ("write", "read"))
    @pytest.mark.parametrize("chunk_size", (1, 5, 100, 960, 10_000))
    def test_rectangle_chunks_hold_chunk_size_cells(self, chunk_size, order):
        space = RectangularIndexSpace(24, 40)
        chunks = (space.write_coord_chunks(chunk_size) if order == "write"
                  else space.read_coord_chunks(chunk_size))
        full, rest = divmod(space.num_elements, chunk_size)
        assert [len(i) for i, _ in chunks] == [chunk_size] * full + (
            [rest] if rest else [])

    @pytest.mark.parametrize("order", ("write", "read"))
    @pytest.mark.parametrize("chunk_size", (0, -1))
    @pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
    def test_chunk_size_below_one_is_rejected(self, space, chunk_size, order):
        chunks = (space.write_coord_chunks if order == "write"
                  else space.read_coord_chunks)
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            list(chunks(chunk_size))

    def test_default_chunk_is_the_byte_budget_in_cells(self):
        assert DEFAULT_COORD_CHUNK == DEFAULT_CHUNK_BYTES // CELL_BYTES
        assert DEFAULT_COORD_CHUNK == 1 << 18

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
    def test_write_chunks_cover_write_order(self, space):
        coords = [(int(i), int(j))
                  for ii, jj in space.write_coord_chunks(chunk_size=100)
                  for i, j in zip(ii, jj)]
        assert coords == list(space.write_order())

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
    def test_read_chunks_cover_read_order(self, space):
        coords = [(int(i), int(j))
                  for ii, jj in space.read_coord_chunks(chunk_size=100)
                  for i, j in zip(ii, jj)]
        assert coords == list(space.read_order())

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
    def test_chunks_are_bounded(self, space):
        width = max(space.width, space.height)
        for ii, _jj in space.write_coord_chunks(chunk_size=64):
            # Whole major-axis lines are appended before the size check,
            # so a chunk may overshoot by at most one line.
            assert len(ii) <= 64 + width

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
    def test_linear_indices_vectorize_linear_index(self, space):
        cells = list(space.write_order())[:200]
        i = np.asarray([c[0] for c in cells], dtype=np.int64)
        j = np.asarray([c[1] for c in cells], dtype=np.int64)
        expected = [space.linear_index(int(a), int(b)) for a, b in cells]
        assert space.linear_indices(i, j).tolist() == expected

    def test_linear_indices_reject_outside(self, small_triangle):
        with pytest.raises(ValueError):
            small_triangle.linear_indices([0, 47], [0, 1])


class ShiftMapping(InterleaverMapping):
    """A mapping with no NumPy kernel of its own."""

    name = "shift"

    def address_tuple(self, i, j):
        return (i + j) % self.geometry.banks, i, j % 8


class TestBaseFallback:
    """Mappings without a NumPy kernel still get a correct array path."""

    def test_reference_array_path(self, small_triangle):
        mapping = ShiftMapping(small_triangle, GEOMETRY)
        assert flatten(mapping.write_addresses_array(chunk_size=97)) == list(
            mapping.write_addresses())
        assert flatten(mapping.read_addresses_array(chunk_size=97)) == list(
            mapping.read_addresses())

    @pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
    def test_simulates_through_the_reference_array_path(self, small_triangle,
                                                        op):
        config = get_config("DDR4-3200")
        mapping = ShiftMapping(small_triangle, config.geometry)
        tuples = (mapping.write_addresses() if op == OP_WRITE
                  else mapping.read_addresses())
        expected = KernelEngine(config, ControllerConfig()).run(
            TupleSource(tuples), op).stats
        assert simulate_phase(config, mapping, op).stats == expected
