"""Cross-scheduler pinning: mixed and homogeneous paths must agree.

Before the unified engine, ``run_mixed_phase`` was a fork of the
homogeneous scheduler; the two could drift silently.  Now both run on
one core, and this suite pins the contract directly:
a single-direction ``MixedRequest`` stream scheduled by the mixed path
(turnaround rules armed but vacuously inactive) must produce
:class:`~repro.dram.stats.PhaseStats` *identical* to the homogeneous
scheduler on the same addresses — across every Table I
(configuration, mapping) pair and both phases.

The one divergence the fork had accumulated — mixed results carried an
empty ``command_counts`` — is fixed by the engine, which is why plain
``==`` on the full stats object holds below.
"""

import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import run_mixed_phase
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

N = 48


def _mapping(name, space, geometry):
    if name == "row-major":
        return RowMajorMapping(space, geometry)
    return OptimizedMapping(space, geometry)


@pytest.mark.parametrize("config_name", TABLE1_CONFIG_NAMES)
@pytest.mark.parametrize("mapping_name", ["row-major", "optimized"])
@pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
def test_single_direction_mixed_equals_homogeneous(config_name, mapping_name, op):
    config = get_config(config_name)
    space = TriangularIndexSpace(N)
    mapping = _mapping(mapping_name, space, config.geometry)
    addresses = list(mapping.write_addresses() if op == OP_WRITE
                     else mapping.read_addresses())
    is_read = op == OP_READ

    homogeneous = KernelEngine(config, ControllerConfig()).run(
        TupleSource(list(addresses)), op).stats
    mixed = run_mixed_phase(
        config, [(is_read, bank, row, col) for bank, row, col in addresses],
        ControllerConfig()).stats

    assert mixed == homogeneous


@pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
def test_single_direction_commands_identical(ddr4, op):
    """Not just the stats: the full command schedules must coincide."""
    space = TriangularIndexSpace(N)
    mapping = _mapping("optimized", space, ddr4.geometry)
    addresses = list(mapping.write_addresses() if op == OP_WRITE
                     else mapping.read_addresses())
    policy = ControllerConfig(record_commands=True)
    is_read = op == OP_READ

    homogeneous = KernelEngine(ddr4, policy).run(
        TupleSource(list(addresses)), op)
    mixed = run_mixed_phase(
        ddr4, [(is_read, bank, row, col) for bank, row, col in addresses], policy)

    assert mixed.commands == homogeneous.commands
    assert (mixed.reads if is_read else mixed.writes) == len(addresses)
    assert mixed.turnarounds == 0


def test_direction_split_accounting(ddr4):
    """Sanity on genuinely mixed streams: counters split by direction."""
    requests = [(k % 3 == 0, k % ddr4.geometry.banks, 0, k % 8)
                for k in range(120)]
    result = run_mixed_phase(ddr4, requests, ControllerConfig())
    assert result.reads == 40
    assert result.writes == 80
    assert result.reads + result.writes == result.stats.requests
    counts = result.stats.command_counts
    assert counts["RD"] == result.reads
    assert counts["WR"] == result.writes
