"""Structural properties of each scheduling discipline, fuzzed.

Every discipline makes a falsifiable promise about the command tape it
produces (:mod:`repro.dram.policy`):

* **closed-page** — no row is ever reused: zero page hits, and exactly
  one PRE per ACT (every activation is closed again);
* **frfcfs-cap** — no bank ever issues more than ``cap`` consecutive
  column accesses to the same activated row;
* **bank-partition** — no CAS is ever served on a bank outside the
  issuing stream class's partition (:func:`~repro.dram.policy
  .partition_bounds`).  Its homogeneous phases also run on the compiled
  loop, so each must equal the general
  :class:`~repro.dram.engine.SchedulingEngine`'s run, stats and commands:
  on their devices a pending head behind the FIFO's front can win when
  tCCD_L holds the front back.

Each promise is checked directly on recorded command tapes over random
(geometry, speed grade, queue shape) devices far outside the curated
presets — the same generator the engine fuzz suite uses — and every
schedule must additionally replay through the independent JEDEC
:func:`~repro.dram.trace.check_phase_commands` with zero violations,
for all four disciplines, homogeneous and mixed.
"""

import random

import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import SchedulingEngine, TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import run_mixed_phase
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    POLICY_NAMES,
    partition_bounds,
)
from repro.dram.trace import check_phase_commands

from test_engine_fuzz import random_config, random_stream

N_COMBOS = 25

CAS_NAMES = ("RD", "WR")


def _fuzz_case(salt: int, index: int, discipline: str):
    """One random (device, policy, stream) scenario, deterministic."""
    rng = random.Random(0x70110 * 1000 + salt * 101 + index)
    config = random_config(rng)
    policy = ControllerConfig(
        queue_depth=rng.choice([1, 4, 16, 64, 160]),
        per_bank_depth=rng.choice([1, 2, 8, 16]),
        refresh_enabled=rng.random() < 0.7,
        record_commands=True,
        discipline=discipline,
        cap=rng.choice([1, 2, 3, 5]),
    )
    requests = random_stream(rng, config.geometry,
                             rng.choice([60, 250, 700]))
    return rng, config, policy, requests


def _max_same_row_streak(commands):
    """Longest run of same-row CAS per bank between row managements."""
    streak = {}
    longest = 0
    for command in commands:
        name = command.command.value
        if name in ("ACT", "PRE", "PREab"):
            streak[command.bank] = 0
        elif name in CAS_NAMES:
            streak[command.bank] = streak.get(command.bank, 0) + 1
            longest = max(longest, streak[command.bank])
    return longest


class TestClosedPage:
    @pytest.mark.parametrize("index", range(N_COMBOS))
    def test_no_hits_and_one_pre_per_act(self, index):
        rng, config, policy, requests = _fuzz_case(1, index,
                                                   POLICY_CLOSED_PAGE)
        op = rng.choice([OP_READ, OP_WRITE])
        result = KernelEngine(config, policy).run(
            TupleSource(list(requests)), op)
        stats = result.stats
        assert stats.page_hits == 0
        assert stats.page_misses == 0
        assert stats.precharges == stats.activates
        assert _max_same_row_streak(result.commands) <= 1
        # A refresh can kill an eagerly-activated row before its CAS,
        # re-opening it as a second "empty"; without refresh the counts
        # are exact.
        assert stats.page_empties >= stats.requests
        if stats.refreshes == 0:
            assert stats.page_empties == stats.requests
            assert stats.activates == stats.requests

    def test_mixed_stream_never_hits(self, ddr4):
        rng = random.Random(0x70110)
        requests = [(rng.random() < 0.5, rng.randrange(ddr4.geometry.banks),
                     rng.randrange(8), rng.randrange(16)) for _ in range(400)]
        policy = ControllerConfig(discipline=POLICY_CLOSED_PAGE)
        result = run_mixed_phase(ddr4, requests, policy)
        assert result.stats.page_hits == 0
        assert result.stats.precharges == result.stats.activates


class TestFrfcfsCap:
    @pytest.mark.parametrize("index", range(N_COMBOS))
    def test_streak_never_exceeds_cap(self, index):
        rng, config, policy, requests = _fuzz_case(2, index,
                                                   POLICY_FRFCFS_CAP)
        op = rng.choice([OP_READ, OP_WRITE])
        result = KernelEngine(config, policy).run(
            TupleSource(list(requests)), op)
        assert _max_same_row_streak(result.commands) <= policy.cap

    def test_hot_row_stream_saturates_the_cap(self, ddr4):
        """A single-row stream must use its full streak budget — the
        cap binds from above *and* the scheduler does not close early."""
        requests = [(0, 0, k % 16) for k in range(64)]
        policy = ControllerConfig(record_commands=True,
                                  discipline=POLICY_FRFCFS_CAP, cap=4)
        result = KernelEngine(ddr4, policy).run(TupleSource(requests), OP_READ)
        assert _max_same_row_streak(result.commands) == 4
        assert result.stats.activates == 16


class TestBankPartition:
    @pytest.mark.parametrize("index", range(N_COMBOS))
    def test_homogeneous_phase_confined_to_partition(self, index):
        rng, config, policy, requests = _fuzz_case(3, index,
                                                   POLICY_BANK_PARTITION)
        op = rng.choice([OP_READ, OP_WRITE])
        result = KernelEngine(config, policy).run(
            TupleSource(list(requests)), op)
        lo, hi = partition_bounds(config.geometry.banks, op == OP_READ)
        cas_banks = {c.bank for c in result.commands
                     if c.command.value in CAS_NAMES}
        assert cas_banks <= set(range(lo, hi))
        assert result.stats.requests == len(requests)
        expected = SchedulingEngine(config, policy).run(
            TupleSource(list(requests)), op)
        assert result.stats == expected.stats
        assert result.commands == expected.commands

    @pytest.mark.parametrize("index", range(N_COMBOS))
    def test_mixed_stream_never_crosses_classes(self, index):
        rng, config, policy, requests = _fuzz_case(4, index,
                                                   POLICY_BANK_PARTITION)
        read_fraction = rng.choice([0.2, 0.5, 0.8])
        mixed = [(rng.random() < read_fraction, bank, row, col)
                 for bank, row, col in requests]
        result = run_mixed_phase(config, mixed, policy)
        n_banks = config.geometry.banks
        read_banks = set(range(*partition_bounds(n_banks, True)))
        write_banks = set(range(*partition_bounds(n_banks, False)))
        for command in result.commands:
            if command.command.value == "RD":
                assert command.bank in read_banks
            elif command.command.value == "WR":
                assert command.bank in write_banks

    def test_single_bank_device_is_rejected(self, ddr4):
        """One bank cannot split into two partitions (geometry keeps
        bank counts at powers of two, so 1 is the only reachable
        unpartitionable count)."""
        from dataclasses import replace

        from repro.dram.geometry import Geometry
        single = replace(ddr4, geometry=Geometry(
            bank_groups=1, banks_per_group=1, rows=1024, columns=128,
            bus_width_bits=16, burst_length=8))
        policy = ControllerConfig(discipline=POLICY_BANK_PARTITION)
        with pytest.raises(ValueError, match="even bank count"):
            KernelEngine(single, policy).run(
                TupleSource([(0, 0, 0)]), OP_READ)

    def test_partition_banks_rejects_odd_and_tiny_counts(self):
        from repro.dram.policy import partition_banks
        assert partition_banks(16) == 8
        for bad in (0, 1, 3, 7):
            with pytest.raises(ValueError, match="even bank count"):
                partition_banks(bad)

    def test_out_of_range_bank_still_rejected(self, ddr4):
        """The modulo fold must not launder invalid banks into range."""
        policy = ControllerConfig(discipline=POLICY_BANK_PARTITION)
        bad = ddr4.geometry.banks
        with pytest.raises(ValueError, match="bank out of range"):
            KernelEngine(ddr4, policy).run(TupleSource([(bad, 0, 0)]), OP_READ)


class TestReplayChecker:
    """Every discipline's schedule replays violation-free."""

    @pytest.mark.parametrize("index", range(N_COMBOS))
    @pytest.mark.parametrize("discipline", POLICY_NAMES)
    def test_homogeneous_schedule_passes_checker(self, discipline, index):
        rng, config, policy, requests = _fuzz_case(5, index, discipline)
        op = rng.choice([OP_READ, OP_WRITE])
        result = KernelEngine(config, policy).run(
            TupleSource(list(requests)), op)
        assert check_phase_commands(config, result.commands) == []
        assert result.stats.requests == len(requests)

    @pytest.mark.parametrize("index", range(N_COMBOS))
    @pytest.mark.parametrize("discipline", POLICY_NAMES)
    def test_mixed_schedule_passes_checker(self, discipline, index):
        rng, config, policy, requests = _fuzz_case(6, index, discipline)
        read_fraction = rng.choice([0.2, 0.5, 0.8])
        mixed = [(rng.random() < read_fraction, bank, row, col)
                 for bank, row, col in requests]
        result = run_mixed_phase(config, mixed, policy)
        assert check_phase_commands(config, result.commands) == []
        assert result.reads + result.writes == len(mixed)
