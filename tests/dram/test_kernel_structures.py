"""Edge cases of the compiled loop's parked-bank mask, ready-head window
and pending FIFO.

The segment loop parks each deferred activation in its bank's slot and
names the parked banks in one 64-bit mask word.  It keeps the ready
heads as one-word keys in two windows, each drifting through its own
buffer and moving back to offset 0 before it would overrun it: the walk
window, in key order, and the pending FIFO, in commit order, which holds
heads whose tRCD had not passed the issue-slot bound when their ACT
committed (``repro.dram._kernelc``).  Every case here must give equal
``PhaseStats`` and equal recorded commands on
:class:`~repro.dram.kernel.KernelEngine` and the general
:class:`~repro.dram.engine.SchedulingEngine`:

* a 64-bank device whose bank 63, the mask's top bit, parks;
* two parked banks with equal activation-ready times under a forced
  commit, where the lower bank must go first;
* a phase fed in batches of 1-7 requests, so the loop exits for input
  while the window is offset, activations are parked and heads are
  pending, and the window and the FIFO each move back to offset 0;
* refreshes that drop ready heads from an offset window;
* per-bank and all-bank refreshes that land while heads are pending.

Where the compiled loop runs, a probe around it reads the scalar block
at every segment exit, so each case also shows that it reached the
state it is named after.
"""

import random

import numpy as np
import pytest

from repro.dram import _kernelc
from repro.dram.commands import CommandType
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, SchedulingEngine
from repro.dram.geometry import Geometry
from repro.dram.kernel import KernelEngine
from repro.dram.presets import REFRESH_ALL_BANK, REFRESH_PER_BANK, DramConfig
from repro.dram.timing import from_datasheet

TOP_BIT = 1 << 63


def device(bank_groups, banks_per_group, refresh_mode=REFRESH_ALL_BANK,
           trefi_us=7.8):
    """A DDR4-1600-like device with the given bank layout and refresh."""
    geometry = Geometry(
        bank_groups=bank_groups,
        banks_per_group=banks_per_group,
        rows=256,
        columns=64,
        bus_width_bits=64,
        burst_length=8,
    )
    timing = from_datasheet(
        1600,
        cl_ck=11,
        cwl_ck=9,
        trcd_ns=13.75,
        trp_ns=13.75,
        tras_ns=35.0,
        trrd_s_ns=5.0,
        trrd_l_ns=6.0,
        tfaw_ns=25.0,
        tccd_s_ck=4,
        tccd_l_ns=6.25,
        twr_ns=15.0,
        twtr_s_ns=2.5,
        twtr_l_ns=7.5,
        trtp_ns=7.5,
        trtw_ck=8,
        trefi_us=trefi_us,
        trfc_ns=160.0,
        trfc_pb_ns=90.0,
    )
    return DramConfig(
        name=f"EDGE-{bank_groups * banks_per_group}",
        family="EDGE",
        data_rate_mtps=1600,
        geometry=geometry,
        timing=timing,
        refresh_mode=refresh_mode,
    )


def batches(requests, sizes):
    """``(bank, row, column)`` tuples as columnar batches of ``sizes``."""
    start = 0
    for size in sizes:
        part = requests[start:start + size]
        if not part:
            return
        yield tuple(np.asarray(column, dtype=np.int64)
                    for column in zip(*part))
        start += size


class Probe:
    """The loaded segment loop, recording the scalar block at every exit.

    It also records the banks of the pending FIFO's heads, read from the
    second half of the ``ready`` buffer (argument 18).
    """

    def __init__(self, lib):
        self.lib = lib
        self.exits = []

    def run_segment(self, *args):
        reason = self.lib.run_segment(*args)
        scalars = args[1]
        n_banks = args[0][_kernelc.C_N_BANKS]
        pending_start = scalars[_kernelc.S_PENDING_START]
        pending_count = scalars[_kernelc.S_PENDING_COUNT]
        fifo = args[18][8 * n_banks + pending_start:
                        8 * n_banks + pending_start + pending_count]
        self.exits.append({
            "reason": reason,
            "parked": scalars[_kernelc.S_PARKED],
            "start": scalars[_kernelc.S_READY_START],
            "count": scalars[_kernelc.S_READY_COUNT],
            "pending_start": pending_start,
            "pending_count": pending_count,
            "pending_banks": {key & 127 for key in fifo},
            "refreshes": scalars[_kernelc.S_REFRESHES],
            "ref_bank": scalars[_kernelc.S_REF_BANK],
        })
        return reason


@pytest.fixture
def probe(monkeypatch):
    """A :class:`Probe` around the compiled loop; ``None`` without one."""
    loaded = _kernelc.load()
    if loaded is None:
        return None
    ffi, lib = loaded
    wrapped = Probe(lib)
    monkeypatch.setitem(_kernelc._libraries, "kernel", (ffi, wrapped))
    return wrapped


def run_both(config, requests, op, sizes=None,
             policy=ControllerConfig(record_commands=True)):
    """Both engines on one stream; asserts equal stats and commands."""
    sizes = sizes or [len(requests)]
    expected = SchedulingEngine(config, policy).run(
        ChunkSource(batches(requests, sizes)), op)
    result = KernelEngine(config, policy).run(
        ChunkSource(batches(requests, sizes)), op)
    assert result.stats == expected.stats
    assert result.commands == expected.commands
    assert result.stats.kernel_fallback is not _kernelc.available()
    return result


def random_sizes(rng, total):
    """Batch sizes of 1-7 requests that cover ``total`` requests."""
    sizes = []
    while sum(sizes) < total:
        sizes.append(rng.randint(1, 7))
    return sizes


@pytest.mark.parametrize("op", [OP_READ, OP_WRITE])
def test_bank_63_parks_in_the_top_bit(probe, op):
    """Every request to bank 63 switches its row, while the other banks
    keep hitting their one row and the bus busy, so bank 63 waits out
    each row cycle parked."""
    config = device(8, 8)
    rng = random.Random(63)
    requests = []
    for i in range(2000):
        if i % 16 == 0:
            requests.append((63, i // 16 % 2, rng.randrange(8)))
        else:
            bank = rng.randrange(63)
            requests.append((bank, bank % 4, rng.randrange(8)))
    run_both(config, requests, op, random_sizes(rng, len(requests)))
    if probe is not None:
        assert any(e["parked"] & TOP_BIT for e in probe.exits)


def test_forced_commit_of_equal_ready_times_takes_the_lower_bank():
    """After an all-bank refresh every bank is closed, so both pending
    banks park with the same activation-ready time, the end of the
    refresh, beyond the bus frontier.  Bank 3's head is the older one,
    yet the forced commit must take bank 1, the general engine's
    ``(act_ready, bank)`` heap root.
    """
    config = device(2, 2, REFRESH_ALL_BANK, trefi_us=0.4875)
    # Request i opens row i, so an activated row names its request.
    requests = [(3 if i % 2 == 0 else 1, i, i % 8) for i in range(200)]
    commands = run_both(config, requests, OP_READ).commands
    first = next(i for i, c in enumerate(commands)
                 if c.command is CommandType.REF_ALL)
    acts = [c for c in commands[first + 1:]
            if c.command is CommandType.ACT][:2]
    assert [c.bank for c in acts] == [1, 3]
    assert acts[0].time_ps == commands[first].time_ps + config.timing.trfc
    assert acts[1].row < acts[0].row


@pytest.mark.parametrize("op", [OP_READ, OP_WRITE])
@pytest.mark.parametrize("seed", range(4))
def test_small_batches_exit_with_offset_window_and_parked_banks(probe, op,
                                                                  seed):
    """Batches of 1-7 requests end a segment every few requests, while
    row misses keep activations parked and committing with tRCD still
    to run."""
    config = device(4, 4)
    rng = random.Random(seed)
    rows = rng.choice([2, 4])
    requests = [(rng.randrange(16), rng.randrange(rows), rng.randrange(8))
                for _ in range(3000)]
    run_both(config, requests, op, random_sizes(rng, len(requests)))
    if probe is not None:
        need_input = [e for e in probe.exits
                      if e["reason"] == _kernelc.EXIT_NEED_INPUT]
        assert any(e["start"] > 0 and e["count"] > 0 and e["parked"]
                   for e in need_input)
        assert any(e["pending_count"] > 0 for e in need_input)
        # The window and the FIFO each moved back to offset 0 between
        # two exits at least once: only a move back lowers a start.
        for name in ("start", "pending_start"):
            starts = [e[name] for e in probe.exits]
            assert any(b < a for a, b in zip(starts, starts[1:])), name


@pytest.mark.parametrize("mode", [REFRESH_PER_BANK, REFRESH_ALL_BANK])
def test_refresh_drops_heads_from_an_offset_window(probe, mode):
    """Frequent refreshes land while the window sits past offset 0."""
    config = device(4, 4, mode, trefi_us=0.4875)
    rng = random.Random(7)
    requests = [(rng.randrange(16), rng.randrange(2), rng.randrange(8))
                for _ in range(4000)]
    result = run_both(config, requests, OP_READ,
                      random_sizes(rng, len(requests)))
    assert result.stats.refreshes > 10
    if probe is not None:
        assert any(a["start"] > 0 and a["count"] > 0
                   and b["refreshes"] > a["refreshes"]
                   for a, b in zip(probe.exits, probe.exits[1:]))


@pytest.mark.parametrize("mode", [REFRESH_PER_BANK, REFRESH_ALL_BANK])
def test_refresh_lands_while_heads_are_pending(probe, mode):
    """One-request batches into a full window: once the window is full,
    each segment admits one request, applies the refreshes due and
    issues one CAS, and no bank's depth can hold admission back.  So a
    refresh counted in a segment landed on the pending FIFO the previous
    exit recorded; a per-bank refresh takes the bank that exit names."""
    config = device(4, 4, mode, trefi_us=0.4875)
    rng = random.Random(11)
    requests = [(rng.randrange(16), rng.randrange(4), rng.randrange(8))
                for _ in range(4000)]
    policy = ControllerConfig(record_commands=True, per_bank_depth=64)
    result = run_both(config, requests, OP_READ, [1] * len(requests),
                      policy)
    assert result.stats.refreshes > 10
    if probe is not None:
        landed = [a for a, b in zip(probe.exits, probe.exits[1:])
                  if b["refreshes"] > a["refreshes"] and a["pending_count"]]
        if mode == REFRESH_PER_BANK:
            landed = [a for a in landed if a["ref_bank"] in a["pending_banks"]]
        assert landed
