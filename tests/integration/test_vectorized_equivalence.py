"""Acceptance gate: the vectorized pipeline must be invisible in results.

For every Table I ``(configuration, mapping)`` pair, feeding the
controller columnar array chunks (the NumPy fast path every simulation
takes) must produce :class:`~repro.dram.stats.PhaseStats` identical —
field for field — to the per-element tuple reference path, for both
phases.
"""

import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.dram.simulator import simulate_phase
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

N = 64


def build_mapping(mapping_name, space, geometry):
    if mapping_name == "row-major":
        return RowMajorMapping(space, geometry)
    return OptimizedMapping(space, geometry)


def tuple_stats(config, mapping, op):
    """One phase through per-element ``(bank, row, column)`` tuples."""
    stream = (mapping.write_addresses() if op == OP_WRITE
              else mapping.read_addresses())
    return KernelEngine(config, ControllerConfig()).run(
        TupleSource(stream), op).stats


@pytest.mark.parametrize("config_name", TABLE1_CONFIG_NAMES)
@pytest.mark.parametrize("mapping_name", ["row-major", "optimized"])
@pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
def test_phase_stats_identical(config_name, mapping_name, op):
    config = get_config(config_name)
    space = TriangularIndexSpace(N)
    mapping = build_mapping(mapping_name, space, config.geometry)
    assert simulate_phase(config, mapping, op).stats == tuple_stats(
        config, mapping, op)


@pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
def test_small_chunks_do_not_change_results(op):
    """Chunk boundaries are invisible: a tiny chunk size still schedules
    identically (the intake drains chunks strictly in order)."""
    config = get_config("DDR4-3200")
    space = TriangularIndexSpace(48)
    mapping = build_mapping("optimized", space, config.geometry)
    chunks = (mapping.write_addresses_array(chunk_size=13) if op == OP_WRITE
              else mapping.read_addresses_array(chunk_size=13))
    tiny_chunks = KernelEngine(config, ControllerConfig()).run(
        ChunkSource(chunks), op).stats
    assert tiny_chunks == tuple_stats(config, mapping, op)
