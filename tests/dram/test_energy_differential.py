"""Differential energy battery: engine tallies vs a command recount.

The scheduling engine fills an :class:`~repro.dram.stats.EnergyTally`
on every run from counters it already keeps.  This battery proves that
tally **exactly** equals an independent recount of the recorded command
list — across ~100 random (configuration/speed grade, refresh mode,
queue depth, stream pattern/mapping) scenarios, homogeneous and mixed,
mirroring the scheduling battery in ``test_engine_differential.py``:
:func:`~repro.dram.energy.energy_from_tally` (the one production path)
and ``oracles.energy.energy_from_commands_reference`` (the scalar
per-command oracle) must return identical — not approximately equal —
reports.

Scenario construction is deterministic per index, so a failure names a
reproducible case.
"""

import random
from dataclasses import replace

import pytest

from oracles.energy import energy_from_commands_reference
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.energy import energy_from_tally
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import run_mixed_phase
from repro.dram.presets import REFRESH_ALL_BANK, TABLE1_CONFIG_NAMES, get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

N_SCENARIOS = 100


def _scenario_rng(index: int) -> random.Random:
    return random.Random(0xE4E6 * 1000 + index)


def _pick_config(rng: random.Random):
    """A speed grade, sometimes with its refresh mode swapped.

    Per-bank-native grades (DDR5/LPDDR) can legally run all-bank
    refresh; the swap exercises the REFab-vs-REFpb energy distinction.
    """
    config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
    if config.timing.trfc_pb > 0 and rng.random() < 0.3:
        config = replace(config, refresh_mode=REFRESH_ALL_BANK)
    return config


def _pick_policy(rng: random.Random) -> ControllerConfig:
    return ControllerConfig(
        queue_depth=rng.choice([1, 4, 16, 64, 128]),
        per_bank_depth=rng.choice([1, 4, 16]),
        refresh_enabled=rng.random() < 0.7,
        record_commands=True,
    )


def _random_stream(rng: random.Random, n_banks: int):
    count = rng.choice([0, 3, 40, 200, 600])
    rows = rng.choice([2, 16, 256])
    return [(rng.randrange(n_banks), rng.randrange(rows), rng.randrange(16))
            for _ in range(count)]


def _mapping_stream(rng: random.Random, config):
    """A real interleaver address stream at small triangle size."""
    space = TriangularIndexSpace(rng.choice([8, 16, 24]))
    if rng.random() < 0.5:
        mapping = RowMajorMapping(space, config.geometry)
    else:
        mapping = OptimizedMapping(space, config.geometry)
    addresses = (mapping.write_addresses() if rng.random() < 0.5
                 else mapping.read_addresses())
    return list(addresses)


def _assert_energy_consistent(config, stats, commands):
    tally = stats.energy_tally
    assert tally is not None
    # Exact equality: both paths count commands and multiply once.
    assert energy_from_tally(config, tally) == energy_from_commands_reference(
        config, commands)
    # The tally must agree with the scheduling statistics it rode in on.
    assert tally.act_pre == stats.activates
    assert tally.ref == stats.refreshes
    assert tally.rd + tally.wr == stats.requests
    assert tally.makespan_ps == stats.makespan_ps


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_energy_battery(index):
    rng = _scenario_rng(index)
    config = _pick_config(rng)
    policy = _pick_policy(rng)
    if rng.random() < 0.3:
        base = _mapping_stream(rng, config)
    else:
        base = _random_stream(rng, config.geometry.banks)

    if rng.random() < 0.4:  # mixed-direction stream
        read_fraction = rng.choice([0.0, 0.3, 0.7, 1.0])
        requests = [(rng.random() < read_fraction, b, r, c)
                    for b, r, c in base]
        result = run_mixed_phase(config, requests, policy)
        _assert_energy_consistent(config, result.stats, result.commands)
    else:
        op = rng.choice([OP_READ, OP_WRITE])
        result = KernelEngine(config, policy).run(TupleSource(iter(base)), op)
        _assert_energy_consistent(config, result.stats, result.commands)
