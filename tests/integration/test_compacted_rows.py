"""Footnote-1 row compaction is invisible in the schedule.

A device whose row count lies between the optimized mapping's compacted
and rectangular needs gets the compacted layout.  Compaction only
renumbers tiles, so both phases must schedule exactly as the
rectangular layout does on a copy of the device with enough rows, on
the default (kernel) route and on the reference engine run directly.
"""

from dataclasses import replace

import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, SchedulingEngine
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_phase
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping

#: At n = 300 these devices' rectangular grid needs 100 rows and the
#: compacted one 64.
N = 300
ROWS = 64


def _mappings(config_name):
    config = get_config(config_name)
    small = replace(config, geometry=replace(config.geometry, rows=ROWS))
    space = TriangularIndexSpace(N)
    rectangular = OptimizedMapping(space, config.geometry)
    compacted = OptimizedMapping(space, small.geometry)
    assert compacted.rows_used() <= ROWS < rectangular.rows_used()
    return (config, rectangular), (small, compacted)


def _engine_stats(config, mapping, op):
    stream = (mapping.write_addresses_array() if op == OP_WRITE
              else mapping.read_addresses_array())
    return SchedulingEngine(config, ControllerConfig()).run(
        ChunkSource(stream), op).stats


@pytest.mark.parametrize("config_name", ["DDR3-800", "LPDDR4-4266"])
@pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
def test_compacted_phase_stats_equal_rectangular(config_name, op):
    (config, rectangular), (small, compacted) = _mappings(config_name)
    expected = simulate_phase(config, rectangular, op).stats
    assert simulate_phase(small, compacted, op).stats == expected
    assert _engine_stats(small, compacted, op) == expected
