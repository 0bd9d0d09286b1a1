"""Batch-advance scheduling kernel: the default homogeneous arbiter.

This module is the raw-speed counterpart of
:class:`repro.dram.engine.SchedulingEngine`.  Both engines are
event-driven (no clock ticking; issue slots are computed directly and
quantized to the command clock), but the general engine pays an
interpreter's price per command: every pop maintains a sorted
``ready_order`` list (``insort`` + positional delete) of Python ints
and every arbitration walks it in Python.

:class:`KernelEngine` runs the same cycle compiled for homogeneous
phases while producing **bit-identical** schedules:

* **batch intake into per-bank rings** — the request stream arrives
  one batch at a time, exactly as the general engine reads it: each
  batch is validated as int64 columns
  (:func:`~repro.dram.engine.check_batch`) and handed to the compiled
  loop, which admits requests in stream order into per-bank rings of
  ``(sequence, row, column)`` entries and asks for the next batch when
  the window has room left at a batch's end.  The loop reads flat
  timestamp/queue tables and never builds a Python tuple per request,
  and no phase is ever held in memory whole;
* **timestamp table** — per-bank next-ready timestamps
  (``cas_allowed``/``pre_allowed``/``act_allowed``) live in flat int64
  arrays that every run builds cold: every bank precharged, every
  window open, as the general engine starts;
* **oldest-first arbitration** — the ready heads (banks whose queue
  head is a row hit on the open row) live in a small window of one-word
  keys, ``head sequence number << 7 | bank``, kept in sequence order:
  the compiled twin of ``ready_order``.  Each CAS walks it oldest-first
  and stops at the first head whose earliest slot reaches the global
  bound (``max(last_cas + tCCD_S, bus_free - latency)``, quantized),
  which issues at the bound; if none does, the head with the strictly
  earliest slot (ties to the oldest) issues at its own slot.  This is
  the general engine's loop, and it reads only ready heads, not every
  bank;
* **compiled segment loop** — the admit / refresh / eval / commit /
  arbitrate / pop cycle runs as a single compiled loop
  (:mod:`repro.dram._kernelc`) over the same int64 tables, one call per
  batch.  The loop applies refresh events itself, starting from a
  fresh :class:`~repro.dram.refresh.RefreshScheduler`'s deadline,
  interval and round-robin bank.

Eager row management is byte-for-byte the general engine's: misses and
empties park with the same fixed ``(act_ready, bank, t_pre, is_empty,
row)`` entries, one slot per bank, and a 64-bit mask word names the
parked banks.  They commit in bank order once the bus frontier reaches
them, and charge tRRD_S/L and the tFAW ring identically.  Refresh,
intake windowing (``queue_depth`` / ``per_bank_depth``) and command
recording are likewise ports, so ``PhaseStats``, ``EnergyTally``,
``command_counts`` and recorded command lists all match the general
engine exactly — proven by the differential batteries in
``tests/dram/test_kernel_differential.py`` across random scenarios and
the full Table I grid.

**One stream, several speed grades.**  :func:`run_shared` is the one
driver of the compiled loop, and :meth:`KernelEngine.run` is its
one-engine case.  Speed grades of one family share a geometry, so an
address mapping gives them the same request stream; given engines of
one geometry and policy, the driver draws each batch once, validates it
once and feeds it to every engine's compiled run (its own tables, its
own cold phase) before drawing the next.  Memory holds one
batch plus one set of tables per engine, and each result equals the
engine's own run.

**Fallback.**  The driver delegates a phase to a fresh general engine
— bit-identical by construction — whenever the compiled loop cannot
run it, and each delegated engine draws a fresh stream:

* no C toolchain or ``cffi`` (or ``REPRO_KERNEL_NATIVE=0``);
* more banks than the compiled loop's parked-bank mask word has bits
  (64);
* the closed-page and FR-FCFS-cap disciplines, whose auto-close
  mechanism invalidates the kernel's precomputed row-hit table.

Those delegations set
``PhaseStats.kernel_fallback``.  **Mixed
sources** (per-request directions, turnaround rules) delegate too,
unflagged: the turnaround rule set only exists in the general engine.
Every library route — :func:`~repro.dram.simulator.simulate_phase`,
the co-simulation, mixed traffic and trace replay — enters through
:class:`KernelEngine`, so this is the only module that builds a general
engine.

Both engines share one intake contract: batches are validated as they
arrive, so an invalid request deep in a stream raises (same exception,
same message) only after the earlier requests were scheduled, and
batch boundaries are invisible to scheduling.  Every run is one cold
phase on either route: the engines keep no bank or refresh state
between runs, so a run cut short by an intake error leaves nothing
behind either.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, List, Sequence

import numpy as np

from repro.dram import _kernelc
from repro.dram.commands import CommandType, ScheduledCommand
from repro.dram.engine import (OP_READ, OP_WRITE, EngineResult,
                               SchedulingEngine, WorkloadSource,
                               _PartitionedSource, build_result, check_batch)
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    partition_banks,
)
from repro.dram.presets import REFRESH_ALL_BANK, DramConfig
from repro.dram.refresh import RefreshScheduler, check_interval

if TYPE_CHECKING:
    from repro.dram.controller import ControllerConfig

_FAR_PAST = -(10**15)

#: Disciplines the compiled loop does not implement: the auto-close
#: mechanism invalidates its precomputed row-hit table.
_FALLBACK_DISCIPLINES = frozenset({POLICY_CLOSED_PAGE, POLICY_FRFCFS_CAP})

#: Bank-count limit of the compiled loop (one bit per bank in its
#: parked-bank mask word).
_NATIVE_MAX_BANKS = 64

#: The scalar slots :func:`~repro.dram.engine.build_result` reads its
#: counters from, in its order.
_COUNTER_SLOTS = [_kernelc.S_N_REQUESTS, _kernelc.S_HITS, _kernelc.S_MISSES,
                  _kernelc.S_EMPTIES, _kernelc.S_ACTS, _kernelc.S_PRES,
                  _kernelc.S_REFRESHES, _kernelc.S_LAST_DATA_END]


class KernelEngine:
    """Drop-in fast scheduler with the general engine's surface.

    Same constructor and :meth:`run` as
    :class:`~repro.dram.engine.SchedulingEngine`, and the same
    semantics: every run is one cold phase, and the engine keeps only
    its configuration and policy.  Phases the compiled loop cannot run
    go to a fresh general engine.

    Args:
        config: DRAM configuration (geometry + timing + refresh mode).
        policy: controller policy
            (:class:`~repro.dram.controller.ControllerConfig`).

    Raises:
        ValueError: when refresh is enabled and ``tREFI`` is not
            positive (:func:`~repro.dram.refresh.check_interval`).
    """

    def __init__(self, config: DramConfig, policy: "ControllerConfig") -> None:
        check_interval(config, policy.refresh_enabled)
        self.config = config
        self.policy = policy

    @property
    def native(self) -> bool:
        """Whether homogeneous phases of this engine run compiled.

        ``False`` without a usable toolchain, under
        ``REPRO_KERNEL_NATIVE=0``, above the compiled loop's bank limit,
        or for a discipline it does not implement.
        """
        return (self.policy.discipline not in _FALLBACK_DISCIPLINES
                and self.config.geometry.banks <= _NATIVE_MAX_BANKS
                and _kernelc.available())


    def run(self, source: WorkloadSource, op: str = OP_READ,
            cas_times: bool = False) -> EngineResult:
        """Schedule one workload source to completion.

        Same contract as
        :meth:`repro.dram.engine.SchedulingEngine.run`: the one-engine
        case of :func:`run_shared`.  Homogeneous sources take the
        compiled loop when :attr:`native` holds (bank partitioning is an
        intake remap that keeps the kernel's row-hit precompute valid);
        every other phase delegates to a fresh general engine,
        bit-identically, with ``stats.kernel_fallback`` set.  Mixed
        sources always delegate (the turnaround rule set has no fast
        path), unflagged.

        Args:
            source: the request stream.
            op: :data:`~repro.dram.engine.OP_READ` or
                :data:`~repro.dram.engine.OP_WRITE`.
            cas_times: fill ``EngineResult.cas_times``
                (one CAS issue time per request, in issue order).
        """
        return run_shared([self], lambda: source, op, cas_times)[0]


def run_shared(engines: Sequence[KernelEngine],
               sources: Callable[[], WorkloadSource], op: str = OP_READ,
               cas_times: bool = False) -> List[EngineResult]:
    """Schedule one request stream on several engines, each a cold phase.

    The engines share one geometry and one policy, so the stream, its
    validation and its bank partitioning are the same for all of them;
    they differ in timing only (speed grades of one family).  On the
    compiled loop they share one pass over ``sources()``: each batch is
    validated once (:func:`~repro.dram.engine.check_batch`) and fed to
    every engine's run before the next batch is drawn, so memory holds
    one batch plus one set of tables per engine.  Otherwise (a mixed
    source, or an engine that is not :attr:`~KernelEngine.native`) each
    engine runs its own ``sources()`` on a fresh general engine.  Every
    result equals the engine's own :meth:`~KernelEngine.run` on the
    stream, and an invalid request raises the error a single run
    raises.

    Args:
        engines: the engines to run, one result each.
        sources: makes the request stream; called once for the shared
            compiled pass, else once per engine.
        op: :data:`~repro.dram.engine.OP_READ` or
            :data:`~repro.dram.engine.OP_WRITE`.
        cas_times: fill every result's ``cas_times``.

    Returns:
        One :class:`~repro.dram.engine.EngineResult` per engine, in
        order.

    Raises:
        ValueError: on an unknown ``op``, on engines that differ in
            geometry or policy, or naming the first invalid request.
    """
    if op not in (OP_READ, OP_WRITE):
        raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {op!r}")
    if len({(engine.config.geometry, engine.policy) for engine in engines}) > 1:
        raise ValueError("engines sharing a stream must share one geometry "
                         "and one policy")
    results: List[EngineResult] = []
    for engine in engines:
        source = sources()
        # One geometry and policy: every engine is native, or none is.
        if not source.mixed and engine.native:
            return _run_native(engines, source, op, cas_times)
        result = SchedulingEngine(engine.config, engine.policy).run(
            source, op, cas_times=cas_times)
        result.stats.kernel_fallback = not source.mixed
        results.append(result)
    return results


def _run_native(engines: Sequence[KernelEngine], source: WorkloadSource,
                op: str, cas_times: bool) -> List[EngineResult]:
    """Homogeneous runs of native engines through the compiled loop.

    Draws the stream one batch at a time, validates it once, and hands
    it to every engine's ``_NativeRun`` before drawing the next; a
    last, empty batch flags the end of the stream.
    """
    loaded = _kernelc.load()
    assert loaded is not None  # guarded by KernelEngine.native
    ffi, lib = loaded
    first = engines[0]
    n_banks = first.config.geometry.banks
    if first.policy.discipline == POLICY_BANK_PARTITION:
        partition_banks(n_banks)  # even bank count required
        source = _PartitionedSource(source, n_banks, op == OP_READ)
    runs = [_NativeRun(engine, op, cas_times, ffi, lib) for engine in engines]
    empty = np.empty(0, dtype=np.int64)
    stream_length = 0
    for batch in chain(source.batches(), (None,)):
        columns = ((empty,) * 3 if batch is None else
                   check_batch(*batch[:3], n_banks, stream_length))
        stream_length += len(columns[0])
        views = tuple(map(ffi.from_buffer, ("int64_t[]",) * 3, columns))
        for run in runs:
            run.feed(views, len(columns[0]), batch is None, stream_length)
    return [run.result() for run in runs]


class _NativeRun:
    """One engine's phase on the compiled segment loop.

    The C side owns the whole cycle, admission and refresh events
    included (ports of the general engine's intake and refresh blocks),
    over flat int64 state tables that start cold, as the general
    engine's do.  Each :meth:`feed` hands it one validated batch; the
    loop copies each admitted request into its bank's ring and returns
    when it needs the next batch, when the command-record buffer needs
    growing, when the phase is done, or on deadlock.
    """

    def __init__(self, engine: KernelEngine, op: str, cas_times: bool,
                 ffi: Any, lib: Any) -> None:
        self.config = config = engine.config
        policy = engine.policy
        self.op = op
        self.lib = lib
        self.ffi = ffi
        self.cas_times = cas_times
        timing = config.timing
        burst = config.burst_duration_ps
        tck = timing.tck if burst % timing.tck == 0 else 1
        self.is_read = is_read = op == OP_READ
        latency = timing.cl if is_read else timing.cwl
        n_banks = config.geometry.banks
        bank_groups = config.geometry.bank_groups
        self.record = record = policy.record_commands
        refresh = RefreshScheduler(config, enabled=policy.refresh_enabled)
        self.all_bank_refresh = config.refresh_mode == REFRESH_ALL_BANK
        # A bank never holds more than either depth allows.
        depth = min(policy.queue_depth, policy.per_bank_depth)
        ring_cap = 1 << (depth - 1).bit_length()

        ring = np.zeros(n_banks * ring_cap * 3, dtype=np.int64)
        head = np.zeros(n_banks, dtype=np.int64)
        adm = np.zeros(n_banks, dtype=np.int64)
        bstate = np.zeros(n_banks, dtype=np.int64)
        # Every bank precharged (open row -1), every window open.
        open_arr = np.full(n_banks, -1, dtype=np.int64)
        cas_allowed = np.zeros(n_banks, dtype=np.int64)
        pre_allowed = np.zeros(n_banks, dtype=np.int64)
        act_allowed = np.zeros(n_banks, dtype=np.int64)
        bg_of = np.arange(n_banks, dtype=np.int64) % bank_groups
        last_cas_bg = np.full(bank_groups, _FAR_PAST, dtype=np.int64)
        faw_ring = np.full(4, _FAR_PAST, dtype=np.int64)
        fresh = np.zeros(2 * n_banks + 4, dtype=np.int64)
        heap = np.zeros(n_banks * 4, dtype=np.int64)
        ready = np.zeros(8 * n_banks, dtype=np.int64)
        self.rec = np.zeros(4096 * 6 if record else 6, dtype=np.int64)
        self.cas_col = np.zeros(1, dtype=np.int64)

        self.sc = sc = np.zeros(_kernelc.N_SCALARS, dtype=np.int64)
        sc[_kernelc.S_LAST_CAS] = _FAR_PAST
        sc[_kernelc.S_LAST_ACT] = _FAR_PAST
        sc[_kernelc.S_LAST_ACT_BG] = -1
        deadline = refresh.next_deadline_ps
        sc[_kernelc.S_HAVE_DEADLINE] = deadline is not None
        sc[_kernelc.S_DEADLINE] = deadline or 0
        sc[_kernelc.S_REF_BANK] = refresh.next_bank

        self.cfg = cfg = np.zeros(_kernelc.N_CFG, dtype=np.int64)
        cfg[_kernelc.C_N_BANKS] = n_banks
        cfg[_kernelc.C_BANK_GROUPS] = bank_groups
        cfg[_kernelc.C_TCK] = tck
        cfg[_kernelc.C_QUANT] = 1 if tck > 1 else 0
        cfg[_kernelc.C_TRP] = timing.trp
        cfg[_kernelc.C_TRCD] = timing.trcd
        cfg[_kernelc.C_TRAS] = timing.tras
        cfg[_kernelc.C_TRRD_S] = timing.trrd_s
        cfg[_kernelc.C_TRRD_L] = timing.trrd_l
        cfg[_kernelc.C_TFAW] = timing.tfaw
        cfg[_kernelc.C_TCCD_S] = timing.tccd_s
        cfg[_kernelc.C_TCCD_L] = timing.tccd_l
        cfg[_kernelc.C_TWR] = timing.twr
        cfg[_kernelc.C_TRTP] = timing.trtp
        cfg[_kernelc.C_IS_READ] = 1 if is_read else 0
        cfg[_kernelc.C_LATENCY] = latency
        cfg[_kernelc.C_BURST] = burst
        cfg[_kernelc.C_QUEUE_DEPTH] = policy.queue_depth
        cfg[_kernelc.C_PER_BANK_DEPTH] = policy.per_bank_depth
        cfg[_kernelc.C_RECORD] = 1 if record else 0
        cfg[_kernelc.C_REC_CAP] = len(self.rec) // 6
        cfg[_kernelc.C_CAS_TIMES] = 1 if cas_times else 0
        cfg[_kernelc.C_REF_INTERVAL] = refresh.interval_ps
        cfg[_kernelc.C_REF_DURATION] = refresh.duration_ps
        cfg[_kernelc.C_REF_ALL_BANK] = 1 if self.all_bank_refresh else 0
        cfg[_kernelc.C_RING] = ring_cap

        # One cffi call per buffer: an ``int64_t[]`` view passes as the
        # C side's ``int64_t *``.  Slots 2-4 take each batch's (bank,
        # row, column) columns.
        empty = np.empty(0, dtype=np.int64)
        self.args = [ffi.from_buffer("int64_t[]", a) for a in (
            cfg, sc, empty, empty, empty, ring, head, adm, bstate, open_arr,
            cas_allowed, pre_allowed, act_allowed, bg_of, last_cas_bg,
            faw_ring, fresh, heap, ready, self.rec, self.cas_col)]

    def feed(self, views: Sequence[Any], size: int, last: bool,
             stream_length: int) -> None:
        """Run the loop over one validated batch until it needs the next.

        ``views`` are the batch's (bank, row, column) columns as cffi
        ``int64_t[]`` views, ``size`` their length and
        ``stream_length`` the requests drawn so far, this batch
        included.  After the last batch the phase is done.

        Raises:
            RuntimeError: when no bank head can ever issue.
        """
        args = self.args
        cfg = self.cfg
        if self.cas_times and len(self.cas_col) < stream_length:
            self.cas_col = np.concatenate(
                (self.cas_col, np.zeros(stream_length, dtype=np.int64)))
            args[-1] = self.ffi.from_buffer("int64_t[]", self.cas_col)
        cfg[_kernelc.C_BATCH] = size
        cfg[_kernelc.C_LAST] = last
        self.sc[_kernelc.S_POS] = 0
        args[2:5] = views
        # The C side applies refresh events itself; it returns when it
        # needs the next batch, the queues drain, the record buffer
        # needs growing, or no bank head can ever issue.
        reason = self.lib.run_segment(*args)
        while reason == _kernelc.EXIT_RECORD_FULL:
            self.rec = np.concatenate((self.rec, np.zeros_like(self.rec)))
            cfg[_kernelc.C_REC_CAP] = len(self.rec) // 6
            args[-2] = self.ffi.from_buffer("int64_t[]", self.rec)
            reason = self.lib.run_segment(*args)
        if reason == _kernelc.EXIT_DEADLOCK:
            raise RuntimeError("scheduler deadlock: no prepared bank head")

    def result(self) -> EngineResult:
        """The finished phase: counters, recorded commands, CAS times."""
        sc = self.sc
        commands: List[ScheduledCommand] = []
        if self.record:
            cas_kind = CommandType.RD if self.is_read else CommandType.WR
            ref_kind = (CommandType.REF_ALL if self.all_bank_refresh
                        else CommandType.REF_BANK)
            kind_by_code = {_kernelc.REC_ACT: CommandType.ACT,
                            _kernelc.REC_PRE: CommandType.PRE,
                            _kernelc.REC_CAS: cas_kind,
                            _kernelc.REC_REF: ref_kind}
            rec_count = int(sc[_kernelc.S_REC_COUNT])
            flat = self.rec[:rec_count * 6].tolist()
            for i in range(0, rec_count * 6, 6):
                commands.append(ScheduledCommand(
                    flat[i], kind_by_code[flat[i + 1]], bank=flat[i + 2],
                    row=flat[i + 3], column=flat[i + 4],
                    request_id=flat[i + 5]))

        counters = sc[_COUNTER_SLOTS].tolist()
        n_requests = counters[0]
        return build_result(self.config, self.op, counters, commands,
                            self.cas_col[:n_requests] if self.cas_times
                            else None)
