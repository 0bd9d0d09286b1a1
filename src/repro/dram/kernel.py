"""Batch-advance scheduling kernel: the default homogeneous arbiter.

This module is the raw-speed counterpart of
:class:`repro.dram.engine.SchedulingEngine`.  Both engines are
event-driven (no clock ticking; issue slots are computed directly and
quantized to the command clock), but the general engine pays a
per-command price that has nothing to do with the schedule itself:
every pop maintains a sorted ``ready_order`` list (``insort`` +
positional delete) and every arbitration walks the ready heads
oldest-first.  On the Table I phase workload those two account for most
of the wall clock.

:class:`KernelEngine` removes both costs for homogeneous phases while
producing **bit-identical** schedules:

* **columnar intake** — the whole request stream is materialized up
  front into flat NumPy int64 columns, validated and partitioned per
  bank in bulk (a stable radix sort of 8-bit bank keys + bincount
  prefix sums), so the scheduling loop reads flat timestamp/queue
  tables and never builds a Python tuple per request;
* **timestamp table** — per-bank next-ready timestamps
  (``cas_allowed``/``pre_allowed``/``act_allowed``/``act_time``) live
  in the same flat table the wrapped general engine keeps, shared by
  reference, so native and delegated phases on one engine see the same
  warm bank state;
* **min-reduction arbitration** — the sorted ready list and the
  oldest-first walk are replaced by one unsorted pass over the bank
  columns computing the walk's outcome directly: the oldest head whose
  earliest slot achieves the global bound
  (``max(last_cas + tCCD_S, bus_free - latency)``, quantized) wins at
  the bound, otherwise the head with the strictly earliest slot (ties
  to the oldest) wins at its own slot.  This is exactly the general
  engine's decision rule, reached without maintaining any ordered
  structure per pop;
* **compiled segment loop** — the refresh / eval / commit / arbitrate /
  pop / admit cycle runs as a single compiled loop
  (:mod:`repro.dram._kernelc`) over the same int64 tables, one call per
  phase.  The loop applies refresh events itself from the shared
  :class:`~repro.dram.refresh.RefreshScheduler`'s deadline, interval
  and round-robin bank, and the driver advances the scheduler past the
  events it applied (:meth:`~repro.dram.refresh.RefreshScheduler.skip`),
  so the next phase on the engine, on either route, starts from the
  same refresh state.

Eager row management is byte-for-byte the general engine's: misses and
empties park in the same deferred-activation structure with fixed
``(act_ready, bank, t_pre, is_empty, row)`` entries, commit in bank
order once the bus frontier reaches them, and charge tRRD_S/L and the
tFAW ring identically.  Refresh, intake windowing (``queue_depth`` /
``per_bank_depth``) and command recording are likewise ports, so
``PhaseStats``, ``EnergyTally``, ``command_counts`` and recorded
command lists all match the general engine exactly — proven by the
differential batteries in ``tests/dram/test_kernel_differential.py``
across random scenarios and the full Table I grid.

**Fallback.**  :meth:`KernelEngine.run` delegates a phase to the shared
general engine — bit-identical by construction — whenever the
compiled loop cannot run it:

* no C toolchain or ``cffi`` (or ``REPRO_KERNEL_NATIVE=0``);
* more banks than the compiled loop's commit buffer holds (64);
* the closed-page and FR-FCFS-cap disciplines, whose auto-close
  mechanism invalidates the kernel's precomputed row-hit table.

Those delegations set
``PhaseStats.kernel_fallback``.  **Mixed
sources** (per-request directions, turnaround rules) delegate too,
unflagged: the turnaround rule set only exists in the general engine.

One intake difference is deliberate: the general engine validates bank
indices and rows lazily, batch by batch, so an invalid request deep in
a stream raises only after the earlier requests were scheduled.  The
kernel validates the whole stream up front (same exception, same
message) and raises before mutating any state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

import numpy as np

from repro.dram import _kernelc
from repro.dram.bank import BankSnapshot
from repro.dram.commands import CommandType, ScheduledCommand
from repro.dram.engine import (OP_READ, OP_WRITE, EngineResult,
                               SchedulingEngine, WorkloadSource,
                               _intake_error, _PartitionedSource)
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    partition_banks,
)
from repro.dram.presets import REFRESH_ALL_BANK, DramConfig
from repro.dram.stats import EnergyTally, PhaseStats

if TYPE_CHECKING:
    from repro.dram.controller import ControllerConfig

_FAR_PAST = -(10**15)

#: Disciplines the compiled loop does not implement: the auto-close
#: mechanism invalidates its precomputed row-hit table.
_FALLBACK_DISCIPLINES = frozenset({POLICY_CLOSED_PAGE, POLICY_FRFCFS_CAP})

#: Bank-count limit of the compiled loop (its per-step commit buffer).
_NATIVE_MAX_BANKS = 64


class KernelEngine:
    """Drop-in fast scheduler sharing the general engine's bank state.

    Exposes the same surface as
    :class:`~repro.dram.engine.SchedulingEngine` (``run`` /
    ``bank_snapshot`` and warm per-bank state across runs) and wraps a
    general engine internally: the per-bank timestamp table and the
    refresh scheduler are shared **by reference**, so a phase the
    kernel delegates sees exactly the warm rows a native phase left
    behind, and vice versa.

    Args:
        config: DRAM configuration (geometry + timing + refresh mode).
        policy: controller policy
            (:class:`~repro.dram.controller.ControllerConfig`).
    """

    def __init__(self, config: DramConfig, policy: "ControllerConfig") -> None:
        self.config = config
        self.policy = policy
        self._general = SchedulingEngine(config, policy)
        # Shared by reference: both engines mutate the same table.
        self._open_row = self._general._open_row
        self._act_time = self._general._act_time
        self._cas_allowed = self._general._cas_allowed
        self._pre_allowed = self._general._pre_allowed
        self._act_allowed = self._general._act_allowed
        self._refresh = self._general._refresh
        self._banks = self._general._banks
        self._bank_groups = self._general._bank_groups

    @property
    def native(self) -> bool:
        """Whether homogeneous phases of this engine run compiled.

        ``False`` without a usable toolchain, under
        ``REPRO_KERNEL_NATIVE=0``, above the compiled loop's bank limit,
        or for a discipline it does not implement.
        """
        return (self.policy.discipline not in _FALLBACK_DISCIPLINES
                and self._banks <= _NATIVE_MAX_BANKS
                and _kernelc.available())

    def bank_snapshot(self, bank: int) -> BankSnapshot:
        """Readable state of one bank (testing/debugging)."""
        return self._general.bank_snapshot(bank)

    def _materialize(
        self, source: WorkloadSource
    ) -> Tuple["np.ndarray[Any, Any]", "np.ndarray[Any, Any]",
               "np.ndarray[Any, Any]"]:
        """Drain ``source`` into flat int64 columns, validating shape.

        Batch boundaries are invisible to scheduling, so concatenating
        them up front is observationally equivalent to the general
        engine's incremental loads for any valid stream.
        """
        banks_parts: List["np.ndarray[Any, Any]"] = []
        rows_parts: List["np.ndarray[Any, Any]"] = []
        cols_parts: List["np.ndarray[Any, Any]"] = []
        for banks_col, rows_col, cols_col, _dirs in source.batches():
            m = len(banks_col)
            if not m:
                continue
            if len(rows_col) != m or len(cols_col) != m:
                raise ValueError(
                    f"request chunk columns disagree in length: "
                    f"{m} banks, {len(rows_col)} rows, {len(cols_col)} columns"
                )
            banks_parts.append(np.asarray(banks_col, dtype=np.int64))
            rows_parts.append(np.asarray(rows_col, dtype=np.int64))
            cols_parts.append(np.asarray(cols_col, dtype=np.int64))
        if not banks_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if len(banks_parts) == 1:
            return banks_parts[0], rows_parts[0], cols_parts[0]
        return (np.concatenate(banks_parts), np.concatenate(rows_parts),
                np.concatenate(cols_parts))

    def run(self, source: WorkloadSource, op: str = OP_READ,
            cas_times: bool = False) -> EngineResult:
        """Schedule one workload source to completion.

        Same contract as
        :meth:`repro.dram.engine.SchedulingEngine.run`.  Homogeneous
        sources take the compiled loop when :attr:`native` holds (bank
        partitioning is an intake remap that keeps the kernel's row-hit
        precompute valid); every other phase delegates to the shared
        general engine, bit-identically, with ``stats.kernel_fallback``
        set.  Mixed sources always delegate (the turnaround rule set
        has no fast path), unflagged.

        Args:
            source: the request stream.
            op: :data:`~repro.dram.engine.OP_READ` or
                :data:`~repro.dram.engine.OP_WRITE`.
            cas_times: fill ``EngineResult.cas_times``
                (one CAS issue time per request, in issue order).
        """
        if op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {op!r}")
        if source.mixed:
            return self._general.run(source, op, cas_times=cas_times)
        if not self.native:
            result = self._general.run(source, op, cas_times=cas_times)
            result.stats.kernel_fallback = True
            return result
        if self.policy.discipline == POLICY_BANK_PARTITION:
            partition_banks(self._banks)  # even bank count required
            source = _PartitionedSource(source, self._banks, op == OP_READ)
        return self._run_native(source, op, cas_times)

    def _run_native(self, source: WorkloadSource, op: str,
                    cas_times: bool) -> EngineResult:
        """Homogeneous run through the compiled segment loop.

        The C side owns the whole cycle, refresh events included (a
        port of the general engine's refresh block), over flat int64
        state tables, and returns only when the phase is done, the
        command-record buffer needs growing, or it deadlocks.  State is
        copied from the shared per-bank lists and the refresh scheduler
        on entry and written back on exit, so a phase delegated to the
        general engine afterwards starts from the warm state a
        general-engine run would have left.
        """
        loaded = _kernelc.load()
        assert loaded is not None  # guarded by self.native
        ffi, lib = loaded
        config = self.config
        policy = self.policy
        timing = config.timing
        burst = config.burst_duration_ps
        tck = timing.tck if burst % timing.tck == 0 else 1
        is_read = op == OP_READ
        latency = timing.cl if is_read else timing.cwl
        n_banks = self._banks
        record = policy.record_commands
        refresh = self._refresh
        all_bank_refresh = config.refresh_mode == REFRESH_ALL_BANK

        banks_arr, rows_arr, cols_arr = self._materialize(source)
        n = len(banks_arr)
        if n:
            bad = (banks_arr < 0) | (banks_arr >= n_banks) | (rows_arr < 0)
            if bad.any():
                k = int(np.argmax(bad))
                raise _intake_error(k, int(banks_arr[k]), int(rows_arr[k]),
                                    int(cols_arr[k]), n_banks)
        # Banks are in [0, 64) here: a stable sort of 8-bit keys is a
        # radix sort with the same permutation as the int64 one.
        qseqs = np.argsort(banks_arr.astype(np.uint8),
                           kind="stable").astype(np.int64, copy=False)
        counts = np.bincount(banks_arr, minlength=n_banks)
        qstart = np.zeros(n_banks, dtype=np.int64)
        np.cumsum(counts[:-1], out=qstart[1:])

        head = np.zeros(n_banks, dtype=np.int64)
        adm = np.zeros(n_banks, dtype=np.int64)
        bstate = np.zeros(n_banks, dtype=np.int64)
        open_arr = np.array(
            [-1 if r is None else r for r in self._open_row], dtype=np.int64)
        act_time = np.array(self._act_time, dtype=np.int64)
        cas_allowed = np.array(self._cas_allowed, dtype=np.int64)
        pre_allowed = np.array(self._pre_allowed, dtype=np.int64)
        act_allowed = np.array(self._act_allowed, dtype=np.int64)
        bg_of = np.array([b % self._bank_groups for b in range(n_banks)],
                         dtype=np.int64)
        last_cas_bg = np.full(self._bank_groups, _FAR_PAST, dtype=np.int64)
        faw_ring = np.full(4, _FAR_PAST, dtype=np.int64)
        fresh = np.zeros(2 * n_banks + 4, dtype=np.int64)
        heap = np.zeros((n_banks + 2) * 5, dtype=np.int64)
        rec_cap = (3 * n + 4096) if record else 1
        rec = np.zeros(rec_cap * 6, dtype=np.int64)
        cas_col = np.zeros(max(n, 1) if cas_times else 1, dtype=np.int64)

        sc = np.zeros(_kernelc.N_SCALARS, dtype=np.int64)
        sc[_kernelc.S_LAST_CAS] = _FAR_PAST
        sc[_kernelc.S_LAST_ACT] = _FAR_PAST
        sc[_kernelc.S_LAST_ACT_BG] = -1
        deadline = refresh.next_deadline_ps
        sc[_kernelc.S_HAVE_DEADLINE] = deadline is not None
        sc[_kernelc.S_DEADLINE] = deadline or 0
        sc[_kernelc.S_REF_BANK] = refresh.next_bank

        cfg = np.zeros(_kernelc.N_CFG, dtype=np.int64)
        cfg[_kernelc.C_N_BANKS] = n_banks
        cfg[_kernelc.C_BANK_GROUPS] = self._bank_groups
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
        cfg[_kernelc.C_N] = n
        cfg[_kernelc.C_REC_CAP] = rec_cap
        cfg[_kernelc.C_CAS_TIMES] = 1 if cas_times else 0
        cfg[_kernelc.C_REF_INTERVAL] = refresh.interval_ps
        cfg[_kernelc.C_REF_DURATION] = refresh.duration_ps
        cfg[_kernelc.C_REF_ALL_BANK] = 1 if all_bank_refresh else 0

        # Initial intake (the general engine's intake(), on the arrays).
        banks_head: List[int] = banks_arr[
            :min(n, policy.queue_depth * 2)].tolist()
        pos = queued = 0
        fresh_count = 0
        while queued < policy.queue_depth and pos < n:
            b = banks_head[pos]
            if int(adm[b] - head[b]) >= policy.per_bank_depth:
                break
            if adm[b] == head[b]:
                bstate[b] = 1
                fresh[fresh_count] = b
                fresh_count += 1
            adm[b] += 1
            pos += 1
            queued += 1
        sc[_kernelc.S_POS] = pos
        sc[_kernelc.S_QUEUED] = queued
        sc[_kernelc.S_FRESH_COUNT] = fresh_count

        def ptr(a: "np.ndarray[Any, Any]") -> Any:
            return ffi.cast("int64_t *", ffi.from_buffer(a))

        args = [ptr(cfg), ptr(sc), ptr(banks_arr), ptr(rows_arr),
                ptr(cols_arr), ptr(qseqs), ptr(qstart), ptr(head),
                ptr(adm), ptr(bstate), ptr(open_arr), ptr(act_time),
                ptr(cas_allowed), ptr(pre_allowed), ptr(act_allowed),
                ptr(bg_of), ptr(last_cas_bg), ptr(faw_ring), ptr(fresh),
                ptr(heap), ptr(rec), ptr(cas_col)]

        # The C side applies refresh events itself; it returns only when
        # the queues drain, the record buffer needs growing, or no bank
        # head can ever issue.
        while True:
            reason = lib.run_segment(*args)
            if reason != _kernelc.EXIT_RECORD_FULL:
                break
            grown = np.zeros((rec_cap + n) * 6, dtype=np.int64)
            grown[:rec_cap * 6] = rec
            rec = grown
            rec_cap += n
            cfg[_kernelc.C_REC_CAP] = rec_cap
            args[-2] = ptr(rec)
        if reason == _kernelc.EXIT_DEADLOCK:
            raise RuntimeError("scheduler deadlock: no prepared bank head")
        refs = int(sc[_kernelc.S_REFRESHES])
        refresh.skip(refs)

        # ---- finalize: stats, commands, shared-state writeback ---------
        n_requests = int(sc[_kernelc.S_N_REQUESTS])
        hits = int(sc[_kernelc.S_HITS])
        misses = int(sc[_kernelc.S_MISSES])
        empties = int(sc[_kernelc.S_EMPTIES])
        acts = int(sc[_kernelc.S_ACTS])
        pres = int(sc[_kernelc.S_PRES])
        last_data_end = int(sc[_kernelc.S_LAST_DATA_END])

        self._open_row[:] = [
            None if v < 0 else v for v in open_arr.tolist()]
        self._act_time[:] = act_time.tolist()
        self._cas_allowed[:] = cas_allowed.tolist()
        self._pre_allowed[:] = pre_allowed.tolist()
        self._act_allowed[:] = act_allowed.tolist()

        commands: List[ScheduledCommand] = []
        if record:
            cas_kind = CommandType.RD if is_read else CommandType.WR
            ref_kind = (CommandType.REF_ALL if all_bank_refresh
                        else CommandType.REF_BANK)
            kind_by_code = {_kernelc.REC_ACT: CommandType.ACT,
                            _kernelc.REC_PRE: CommandType.PRE,
                            _kernelc.REC_CAS: cas_kind,
                            _kernelc.REC_REF: ref_kind}
            rec_count = int(sc[_kernelc.S_REC_COUNT])
            flat = rec[:rec_count * 6].tolist()
            for i in range(0, rec_count * 6, 6):
                commands.append(ScheduledCommand(
                    flat[i], kind_by_code[flat[i + 1]], bank=flat[i + 2],
                    row=flat[i + 3], column=flat[i + 4],
                    request_id=flat[i + 5]))

        stats = PhaseStats()
        stats.requests = n_requests
        stats.page_hits = hits
        stats.page_misses = misses
        stats.page_empties = empties
        stats.activates = acts
        stats.precharges = pres
        stats.refreshes = refs
        stats.data_time_ps = n_requests * burst
        stats.makespan_ps = last_data_end
        reads = n_requests if is_read else 0
        writes = 0 if is_read else n_requests
        ref_key = (CommandType.REF_ALL if all_bank_refresh
                   else CommandType.REF_BANK).value
        stats.command_counts = {
            CommandType.ACT.value: acts,
            CommandType.PRE.value: pres,
            (CommandType.RD if is_read else CommandType.WR).value: n_requests,
            ref_key: refs,
        }
        stats.energy_tally = EnergyTally(act_pre=acts, rd=reads, wr=writes,
                                         ref=refs, makespan_ps=last_data_end)
        return EngineResult(stats=stats, commands=commands, reads=reads,
                            writes=writes, turnarounds=0,
                            cas_times=cas_col[:n] if cas_times else None)
