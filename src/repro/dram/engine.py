"""Unified DRAM scheduling engine: one core for every workload shape.

Homogeneous all-read or all-write phases, mixed read/write traffic
(:func:`repro.dram.mixed.run_mixed_phase`, with the tRTW/tWTR
direction-turnaround rules) and trace replay all run through the single
engine here.  Callers enter through
:class:`~repro.dram.kernel.KernelEngine`, which runs homogeneous phases
in this engine's compiled twin and hands everything else to this
engine.  The engine layers as

* **intake** — a :class:`WorkloadSource` turns one request-stream shape
  into columnar batches, and the caller names the shape by picking the
  source: per-element tuples, columnar address chunks, mixed
  read/write streams and replayed command traces each have one;
* **per-bank state** — array-backed per-bank queues (no per-request
  tuple or deque node is ever allocated: each bank owns flat
  ``rows``/``columns``/``sequence`` columns and a head/admitted cursor
  pair) plus the open-row and tRCD/tRAS/tRP/tRFC timing windows, all
  built by each run: every run is one cold phase;
* **eager row management** — any bank whose queue head needs a
  different row gets its PRE/ACT pair scheduled at the earliest legal
  time, overlapping row cycles with data transfers on other banks
  (deferral logic keeps far-future ACTs from clogging the sequential
  tRRD/tFAW bookkeeping);
* **CAS arbiter** — a ready-set arbiter that only examines banks whose
  open row matches their queue head; among heads that achieve the
  earliest legal issue slot the oldest request wins (age-fair, keeps
  bank groups rotating).  The read/write **turnaround rule set**
  (tRTW after a read command, tWTR_S/L after write data) activates
  automatically when the source is mixed;
* **timeline** — issue slots are computed event-driven and quantized to
  the command clock exactly when that grid is representable on the
  integer-picosecond timeline (see :mod:`repro.dram.controller` for the
  quantization contract), producing
  :class:`~repro.dram.stats.PhaseStats` and, on request, the full
  :class:`~repro.dram.commands.ScheduledCommand` list.

The engine is proven bit-identical to the frozen scalar homogeneous
and mixed schedulers (the test-only oracle
``tests/oracles/scheduler.py``) by the differential batteries in
``tests/dram/test_engine_differential.py``,
and is measurably faster on the Table I phase workload (pinned by
``benchmarks/bench_controller.py``).
"""

from __future__ import annotations

import abc
import bisect
import heapq
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import (TYPE_CHECKING, Any, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np
from numpy.typing import NDArray

from repro.dram.commands import CAS_COMMANDS, CommandType, ScheduledCommand
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    partition_banks,
)
from repro.dram.presets import REFRESH_ALL_BANK, DramConfig
from repro.dram.refresh import RefreshScheduler, check_interval
from repro.dram.stats import EnergyTally, PhaseStats

if TYPE_CHECKING:
    from repro.dram.controller import ControllerConfig

#: Operation kinds for homogeneous sources (shared with the controller).
OP_READ = "RD"
OP_WRITE = "WR"


def check_op(op: str) -> None:
    """Raise ``ValueError`` unless ``op`` is :data:`OP_READ` or :data:`OP_WRITE`."""
    if op not in (OP_READ, OP_WRITE):
        raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {op!r}")


_FAR_PAST = -(10**15)
_FAR_FUTURE = 10**18

# Sort key committing deferred activations in ascending bank order
# (heap entries are ``(act_ready, bank, t_pre, is_empty, row)``);
# module-level so the arbiter loop never rebuilds a closure.
_ENTRY_BANK = itemgetter(1)

#: Requests buffered per batch when normalizing per-element streams.
_STREAM_BATCH = 1024


def check_batch(
    banks: Sequence[int], rows: Sequence[int], columns: Sequence[int],
    n_banks: int, base: int,
) -> Tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64]]:
    """One intake batch's columns as int64 arrays, validated.

    Every intake route checks its batches here.  ``base`` is the stream
    position of the batch's first request: errors name requests by it.

    Raises:
        ValueError: when the columns disagree in length, or naming the
            first request whose bank lies outside ``[0, n_banks)`` or
            whose row is negative (its bank is reported first).
    """
    m = len(banks)
    if len(rows) != m or len(columns) != m:
        raise ValueError(
            f"request chunk columns disagree in length: "
            f"{m} banks, {len(rows)} rows, {len(columns)} columns")
    banks_arr = np.ascontiguousarray(banks, dtype=np.int64)
    rows_arr = np.ascontiguousarray(rows, dtype=np.int64)
    cols_arr = np.ascontiguousarray(columns, dtype=np.int64)
    bad = (banks_arr < 0) | (banks_arr >= n_banks) | (rows_arr < 0)
    if bad.any():
        k = int(np.argmax(bad))
        bank = int(banks_arr[k])
        reason = (f"bank out of range [0, {n_banks})"
                  if not 0 <= bank < n_banks else "row must be >= 0")
        raise ValueError(
            f"request #{base + k} (bank={bank}, row={int(rows_arr[k])}, "
            f"column={int(cols_arr[k])}): {reason}")
    return banks_arr, rows_arr, cols_arr


# ---------------------------------------------------------------------------
# Workload sources
# ---------------------------------------------------------------------------

#: One normalized intake batch: (banks, rows, columns, directions).
#: ``directions`` is ``None`` for homogeneous sources and a same-length
#: sequence of ``is_read`` booleans for mixed ones.
Batch = Tuple[Sequence[int], Sequence[int], Sequence[int], Optional[Sequence[bool]]]


class WorkloadSource(abc.ABC):
    """Normalized request intake for the scheduling engine.

    A source turns some external request-stream shape into columnar
    :data:`Batch` es consumed strictly in order.  The contract:

    * batches concatenate to the exact request sequence in program
      order — batch boundaries are invisible to scheduling;
    * ``mixed`` declares whether requests carry a direction; when
      ``True`` every batch's ``directions`` column is present and the
      engine charges the read/write turnaround rules, when ``False``
      the whole phase runs in the single direction passed to
      :meth:`SchedulingEngine.run`;
    * bank indices are validated by the engine at intake, so sources
      never need to pre-check.
    """

    #: Whether requests carry a per-request direction.
    mixed: bool = False

    @abc.abstractmethod
    def batches(self) -> Iterator[Batch]:
        """Yield the request stream as columnar batches, in order."""


class TupleSource(WorkloadSource):
    """``(bank, row, column)`` tuples — the per-element reference shape."""

    def __init__(self, requests: Iterable[Tuple[int, int, int]]) -> None:
        self._requests = requests

    def batches(self) -> Iterator[Batch]:
        """Buffer the tuple stream into fixed-size columnar batches."""
        source = iter(self._requests)
        while True:
            part = list(islice(source, _STREAM_BATCH))
            if not part:
                return
            yield ([r[0] for r in part], [r[1] for r in part],
                   [r[2] for r in part], None)


class ChunkSource(WorkloadSource):
    """Columnar ``(banks, rows, columns)`` chunks — the vectorized shape.

    Accepts exactly what ``InterleaverMapping.write_addresses_array`` /
    ``read_addresses_array`` produce; chunks pass through untouched and
    the engine bulk-converts and partitions them per bank.
    """

    def __init__(
            self,
            chunks: Iterable[Tuple[Sequence[int], Sequence[int],
                                   Sequence[int]]]) -> None:
        self._chunks = chunks

    def batches(self) -> Iterator[Batch]:
        """Pass every columnar chunk through untouched (no direction)."""
        for banks, rows, cols in self._chunks:
            yield banks, rows, cols, None


class MixedSource(WorkloadSource):
    """``(is_read, bank, row, column)`` tuples — mixed traffic."""

    mixed = True

    def __init__(self, requests: Iterable[Tuple[bool, int, int, int]]) -> None:
        self._requests = requests

    def batches(self) -> Iterator[Batch]:
        """Buffer the mixed stream, splitting off the direction column."""
        source = iter(self._requests)
        while True:
            part = list(islice(source, _STREAM_BATCH))
            if not part:
                return
            yield ([r[1] for r in part], [r[2] for r in part],
                   [r[3] for r in part], [r[0] for r in part])


class TraceReplaySource(WorkloadSource):
    """Replays a recorded command trace as a (mixed) request stream.

    Takes any iterable of :class:`~repro.dram.commands.ScheduledCommand`
    (e.g. from ``EngineResult.commands`` or
    :func:`repro.dram.trace.read_trace`), keeps the data-moving RD/WR
    commands in issue-time order and presents them as requests — so a
    recorded schedule can be *re-scheduled* under a different
    configuration, policy, or timing set and re-checked with
    :class:`~repro.dram.trace.TraceChecker`.  ACT/PRE/REF commands are
    dropped: they are controller decisions the engine re-derives.
    """

    mixed = True

    def __init__(self, commands: Iterable[ScheduledCommand]) -> None:
        self._commands = commands

    def batches(self) -> Iterator[Batch]:
        """Present the trace's RD/WR commands, issue-ordered, as requests."""
        cas = sorted((c for c in self._commands if c.command in CAS_COMMANDS),
                     key=lambda c: c.time_ps)
        for start in range(0, len(cas), _STREAM_BATCH):
            part = cas[start:start + _STREAM_BATCH]
            yield ([c.bank for c in part], [c.row for c in part],
                   [c.column for c in part],
                   [c.command is CommandType.RD for c in part])


class _PartitionedSource(WorkloadSource):
    """Static bank partitioning as an intake transformation.

    Under :data:`~repro.dram.policy.POLICY_BANK_PARTITION` every
    request's bank index is remapped into the partition its stream
    class owns (writes: lower half, reads: upper half; see
    :func:`~repro.dram.policy.partition_bank`) *before* the scheduler
    sees it — scheduling within a partition is then plain open-page
    FR-FCFS on the remapped stream, which is what makes the
    discipline's scalar reference trivial (the frozen open-page oracle
    on the remapped stream).

    Original bank indices are validated here (:func:`check_batch`),
    because the modulo fold would silently wrap out-of-range banks into
    valid partition slots.
    """

    def __init__(self, inner: WorkloadSource, n_banks: int,
                 is_read: bool) -> None:
        self._inner = inner
        self._n_banks = n_banks
        self._is_read = is_read
        self.mixed = inner.mixed

    def batches(self) -> Iterator[Batch]:
        """Yield the inner batches with banks folded into partitions."""
        n_banks = self._n_banks
        half = n_banks // 2
        offset = half if self._is_read else 0
        count = 0
        for banks_col, rows_col, cols_col, dirs_col in self._inner.batches():
            banks, rows, cols = check_batch(banks_col, rows_col, cols_col,
                                            n_banks, count)
            if dirs_col is None:
                remapped = banks % half + offset
            else:
                reads = np.asarray(dirs_col, dtype=bool)
                remapped = banks % half + np.where(reads, half, 0)
            yield remapped, rows, cols, dirs_col
            count += len(banks)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


@dataclass
class EngineResult:
    """Outcome of one engine run.

    Attributes:
        stats: aggregate phase statistics.
        commands: the scheduled command list (``policy.record_commands``).
        reads: read bursts issued (``stats.requests`` for a homogeneous
            read phase, the direction split for mixed sources).
        writes: write bursts issued.
        turnarounds: data-bus direction switches (mixed sources only).
        cas_times: on request (``run(..., cas_times=True)``), the CAS
            issue time of every request as an int64 array in issue
            order — entry ``k`` belongs to the command recording would
            stamp with ``request_id=k`` — else ``None``.
    """

    stats: PhaseStats
    commands: List[ScheduledCommand] = field(default_factory=list)
    reads: int = 0
    writes: int = 0
    turnarounds: int = 0
    cas_times: Optional[NDArray[np.int64]] = field(default=None, compare=False)


def build_result(
    config: DramConfig, op: str, counters: Sequence[int],
    commands: List[ScheduledCommand],
    cas_times: Optional[NDArray[np.int64]],
    directions: Optional[Tuple[int, int, int]] = None,
) -> EngineResult:
    """One run's counters as an :class:`EngineResult`.

    Both engines finish through this function.  Energy tallies cost
    nothing extra: every counter the energy model charges already
    exists for the scheduling statistics.

    Args:
        config: the configuration the run scheduled against.
        op: the direction of a homogeneous run.
        counters: ``(requests, page_hits, page_misses, page_empties,
            activates, precharges, refreshes, makespan_ps)``.
        commands: the recorded commands (empty unless recording).
        cas_times: the CAS-time column, when the run was asked for it.
        directions: a mixed run's ``(reads, writes, turnarounds)``;
            ``None`` for a homogeneous run, whose every request moves
            data in direction ``op``.
    """
    requests, hits, misses, empties, acts, pres, refs, makespan = counters
    ref_key = (CommandType.REF_ALL if config.refresh_mode == REFRESH_ALL_BANK
               else CommandType.REF_BANK).value
    counts = {CommandType.ACT.value: acts, CommandType.PRE.value: pres}
    if directions is None:
        is_read = op == OP_READ
        reads, writes, turnarounds = (requests, 0, 0) if is_read else (0, requests, 0)
        # A homogeneous run reports its CAS key even with no requests.
        counts[(CommandType.RD if is_read else CommandType.WR).value] = requests
        counts[ref_key] = refs
    else:
        reads, writes, turnarounds = directions
        counts[ref_key] = refs
        # Only directions that actually occurred get a CAS key, so a
        # single-direction mixed stream produces the exact dict a
        # homogeneous phase reports.
        if reads:
            counts[CommandType.RD.value] = reads
        if writes:
            counts[CommandType.WR.value] = writes
    stats = PhaseStats(
        requests=requests, page_hits=hits, page_misses=misses,
        page_empties=empties, activates=acts, precharges=pres,
        refreshes=refs, data_time_ps=requests * config.burst_duration_ps,
        makespan_ps=makespan, command_counts=counts,
        energy_tally=EnergyTally(act_pre=acts, rd=reads, wr=writes, ref=refs,
                                 makespan_ps=makespan))
    return EngineResult(stats=stats, commands=commands, reads=reads,
                        writes=writes, turnarounds=turnarounds,
                        cas_times=cas_times)


class SchedulingEngine:
    """Schedules workload sources against one DRAM configuration.

    Every :meth:`run` is one cold phase, the paper's per-phase
    semantics: it starts with every bank precharged and the refresh
    timer at zero, and builds its per-bank tables and refresh scheduler
    itself.  The engine keeps only its configuration and policy.

    Args:
        config: DRAM configuration (geometry + timing + refresh mode).
        policy: controller policy (queue depths, refresh, recording);
            an instance of
            :class:`~repro.dram.controller.ControllerConfig`.

    Raises:
        ValueError: when refresh is enabled and ``tREFI`` is not
            positive (:func:`~repro.dram.refresh.check_interval`).
    """

    def __init__(self, config: DramConfig, policy: ControllerConfig) -> None:
        check_interval(config, policy.refresh_enabled)
        self.config = config
        self.policy = policy

    def run(self, source: WorkloadSource, op: str = OP_READ,
            cas_times: bool = False) -> EngineResult:
        """Schedule one workload source to completion.

        Args:
            source: the request stream.  A homogeneous source runs in
                direction ``op``; a mixed source carries per-request
                directions and additionally charges the turnaround
                rules (``op`` is then ignored).
            op: :data:`OP_READ` or :data:`OP_WRITE`.
            cas_times: fill ``EngineResult.cas_times`` (no command
                objects are built for it).

        Returns:
            An :class:`EngineResult`; direction counters are filled for
            mixed sources.

        Raises:
            ValueError: on an unknown ``op`` or a request whose bank
                index lies outside ``[0, geometry.banks)`` or whose row
                is negative (validated at intake, naming the offending
                request).
        """
        check_op(op)
        config = self.config
        policy = self.policy
        n_banks = config.geometry.banks
        bank_groups = config.geometry.bank_groups
        discipline = policy.discipline
        if discipline == POLICY_BANK_PARTITION:
            partition_banks(n_banks)  # even bank count required
            source = _PartitionedSource(source, n_banks, op == OP_READ)
        mixed = source.mixed

        timing = config.timing
        burst = config.burst_duration_ps
        # Command-clock grid for issue-slot quantization (see the
        # controller module docstring: only when the clock is exact on
        # the integer-picosecond timeline).
        tck = timing.tck if burst % timing.tck == 0 else 1
        quant = tck > 1
        trp = timing.trp
        trcd = timing.trcd
        tras = timing.tras
        trrd_s = timing.trrd_s
        trrd_l = timing.trrd_l
        tfaw = timing.tfaw
        tccd_s = timing.tccd_s
        tccd_l = timing.tccd_l
        twr = timing.twr
        trtp = timing.trtp
        trtw = timing.trtw
        twtr_s = timing.twtr_s
        twtr_l = timing.twtr_l
        cl = timing.cl
        cwl = timing.cwl
        is_read = op == OP_READ
        latency = cl if is_read else cwl

        # Per-bank row state of a cold phase: every bank precharged.
        open_row: List[Optional[int]] = [None] * n_banks
        cas_allowed = [0] * n_banks
        pre_allowed = [0] * n_banks
        act_allowed = [0] * n_banks

        queue_depth = policy.queue_depth
        per_bank_depth = policy.per_bank_depth
        record = policy.record_commands
        # Auto-close mechanism shared by closed-page (cap 1) and
        # FR-FCFS-cap (cap k): `streak[b]` counts column accesses since
        # bank b's last ACT; reaching the cap charges a PRE at the
        # bank's precharge-ready time and closes the row.  With the
        # mechanism off (open-page / bank partitioning) no arbiter
        # decision changes — the bit-identity anchor of the policy zoo.
        if discipline == POLICY_CLOSED_PAGE:
            cap_limit = 1
        elif discipline == POLICY_FRFCFS_CAP:
            cap_limit = policy.cap
        else:
            cap_limit = 0
        auto_close = cap_limit > 0
        streak = [0] * n_banks
        commands: List[ScheduledCommand] = []
        cas_log: Optional[List[int]] = [] if cas_times else None
        refresh = RefreshScheduler(config, enabled=policy.refresh_enabled)
        all_bank_refresh = config.refresh_mode == REFRESH_ALL_BANK

        # Global channel state.
        bg_of = [b % bank_groups for b in range(n_banks)]
        last_cas = _FAR_PAST            # any bank group (tCCD_S)
        last_cas_bg = [_FAR_PAST] * bank_groups
        last_act = _FAR_PAST
        last_act_bg = -1
        faw_ring = [_FAR_PAST] * 4      # issue times of the last four ACTs
        faw_idx = 0
        bus_free = 0
        last_data_end = 0
        # Direction bookkeeping (mixed sources only).
        last_was_read: Optional[bool] = None
        last_rd_cmd = _FAR_PAST
        last_wr_data_end = _FAR_PAST
        last_wr_bg = -1

        # ---- array-backed per-bank queues ------------------------------
        # Each bank owns flat append-only columns of its requests; a
        # bank's FIFO is the window between the served cursor `head[b]`
        # and the admitted cursor `adm[b]`.  `bank_stream` records the
        # owning bank per global stream position — which makes window
        # admission a pure integer read, with no per-request tuple or
        # deque node ever allocated.
        rows_q: List[List[int]] = [[] for _ in range(n_banks)]
        cols_q: List[List[int]] = [[] for _ in range(n_banks)]
        seqs_q: List[List[int]] = [[] for _ in range(n_banks)]
        dirs_q: List[List[bool]] = [[] for _ in range(n_banks)] if mixed else []
        head = [0] * n_banks            # served requests per bank (cursor)
        adm = [0] * n_banks             # admitted (windowed) per bank (cursor)
        bank_stream: List[int] = []     # owning bank per stream position
        stream_base = 0                 # stream position of bank_stream[0]
        pos = 0                         # next stream position to admit
        loaded = 0                      # stream positions loaded so far
        queued = 0                      # admitted and not yet served

        # Banks with requests are always split into *ready* (open row
        # matches the queue head: CAS candidates) and *pending* (head
        # still needs its row cycle); `bstate` tracks which (0 = no
        # requests, 1 = pending, 2 = ready).  `ready_order` holds the
        # ready heads' sequence numbers in ascending (oldest-first)
        # order, so the arbiter can walk candidates oldest-first and
        # stop at the first one achieving the bound — the decisions are
        # identical to scanning everything, at a fraction of the cost.
        bstate = [0] * n_banks
        ready_order: List[int] = []
        insort = bisect.insort
        bisect_left = bisect.bisect_left

        batch_iter = source.batches()
        exhausted = False
        # Eager-block scheduling state.  A bank that enters the pending
        # state is evaluated exactly once: its head either hits the
        # open row (straight to ready) or needs a row cycle whose
        # classification and earliest activation time are *fixed* while
        # the bank stays pending — so deferred banks wait in a min-heap
        # of ``(act_ready, bank, t_pre, is_empty, row)`` entries and
        # are committed, in bank order, once the bus frontier reaches
        # them (or one is force-activated when nothing is ready).
        # `fresh` holds banks that became pending since the last
        # evaluation; `rescan_all` (set by refresh, which moves the
        # timing windows) invalidates every cached entry.
        fresh: List[int] = []
        defer_heap: List[Tuple[int, int, int, bool, int]] = []
        rescan_all = False
        heappush = heapq.heappush
        heappop = heapq.heappop

        def compact() -> None:
            """Trim served prefixes so memory stays bounded by the live
            window (queue depth + one batch), not the whole stream.

            Only list prefixes are dropped; sequence numbers stay
            absolute, and `stream_base` keeps `bank_stream` addressable
            by absolute position.  Loading only happens when admission
            has caught up with the loaded stream, so the surviving
            suffixes are bounded and the cost amortizes to O(1) per
            request.
            """
            nonlocal stream_base
            for b in range(n_banks):
                h = head[b]
                if h > 2048:
                    del rows_q[b][:h]
                    del cols_q[b][:h]
                    del seqs_q[b][:h]
                    if mixed:
                        del dirs_q[b][:h]
                    adm[b] -= h
                    head[b] = 0
            cut = pos
            for b in range(n_banks):
                if adm[b] > head[b]:
                    s = seqs_q[b][head[b]]
                    if s < cut:
                        cut = s
            if cut - stream_base > 2048:
                del bank_stream[:cut - stream_base]
                stream_base = cut

        def load_batch() -> bool:
            """Pull, validate and partition the next non-empty batch."""
            nonlocal loaded, exhausted
            compact()
            for banks_col, rows_col, cols_col, dirs_col in batch_iter:
                banks, rows, cols = check_batch(banks_col, rows_col, cols_col,
                                                n_banks, loaded)
                if not len(banks):
                    continue
                # A stable sort by bank keeps each bank's requests in
                # stream order.
                order = np.argsort(banks, kind="stable")
                counts = np.bincount(banks, minlength=n_banks)
                ends = np.cumsum(counts).tolist()
                columns: Tuple[Tuple[Any, NDArray[Any]], ...] = (
                    (rows_q, rows[order]), (cols_q, cols[order]),
                    (seqs_q, order + loaded))
                if mixed:
                    columns += (
                        (dirs_q, np.asarray(dirs_col, dtype=bool)[order]),)
                for b in np.flatnonzero(counts).tolist():
                    start = ends[b] - int(counts[b])
                    for queue, column in columns:
                        queue[b].extend(column[start:ends[b]].tolist())
                bank_stream.extend(banks.tolist())
                loaded += len(banks)
                return True
            exhausted = True
            return False

        def intake() -> None:
            """Admit requests until the queue window is full or a bank
            FIFO at ``per_bank_depth`` blocks the stream head."""
            nonlocal pos, queued
            while queued < queue_depth:
                if pos == loaded:
                    if exhausted or not load_batch():
                        return
                b = bank_stream[pos - stream_base]
                if adm[b] - head[b] >= per_bank_depth:
                    return
                if adm[b] == head[b]:
                    bstate[b] = 1
                    fresh.append(b)
                adm[b] += 1
                pos += 1
                queued += 1

        n_requests = 0
        hits = misses = empties = acts = pres = refs = 0
        reads = writes = turnarounds = 0

        intake()

        # Cached refresh deadline: it only moves when an event fires.
        deadline = refresh.next_deadline_ps

        # Reused scratch list for multi-entry deferred commits; hoisted
        # so the arbiter loop never allocates a container per iteration.
        commit_buf: List[Tuple[int, int, int, bool, Optional[int]]] = []

        while queued:
            # ---- refresh ---------------------------------------------------
            while deadline is not None and last_cas >= deadline:
                event = refresh.due(last_cas)
                if event is None:
                    break
                ref_time = event.deadline_ps
                for b in event.banks:
                    if open_row[b] is not None:
                        t_pre = pre_allowed[b]
                        if quant:
                            remainder = t_pre % tck
                            if remainder:
                                t_pre += tck - remainder
                        if record:
                            commands.append(ScheduledCommand(t_pre, CommandType.PRE, bank=b))
                        pres += 1
                        open_row[b] = None
                        bank_free_at = t_pre + trp
                    else:
                        bank_free_at = act_allowed[b]
                    if bank_free_at > ref_time:
                        ref_time = bank_free_at
                if quant:
                    remainder = ref_time % tck
                    if remainder:
                        ref_time += tck - remainder
                for b in event.banks:
                    open_row[b] = None
                    if bstate[b] == 2:
                        del ready_order[bisect_left(ready_order, seqs_q[b][head[b]])]
                        bstate[b] = 1
                    act_allowed[b] = ref_time + event.duration_ps
                rescan_all = True  # cached deferral times are stale now
                refs += 1
                if record:
                    kind = CommandType.REF_ALL if all_bank_refresh else CommandType.REF_BANK
                    commands.append(
                        ScheduledCommand(
                            ref_time,
                            kind,
                            bank=-1 if all_bank_refresh else event.banks[0],
                        )
                    )
                deadline = refresh.next_deadline_ps

            # ---- eager per-bank row management ----------------------------
            # See the module docstring; identical policy in both modes.
            # Newly-pending banks are evaluated once: a head hit goes
            # straight to `ready`, a row cycle is classified and parked
            # in the deferral heap with its fixed activation-ready time.
            if rescan_all:
                # Refresh moved timing windows and open rows: every
                # cached evaluation is stale, so every pending bank is
                # evaluated again (ascending bank order, like the
                # pre-engine scan).  Heap entries are unique per bank,
                # so their pop order does not depend on how they went in.
                rescan_all = False
                del defer_heap[:]
                del fresh[:]
                for b in range(n_banks):
                    if bstate[b] == 1:
                        fresh.append(b)
            if fresh:
                for b in sorted(fresh) if len(fresh) > 1 else fresh:
                    row = rows_q[b][head[b]]
                    current = open_row[b]
                    if current == row:
                        bstate[b] = 2
                        insort(ready_order, seqs_q[b][head[b]])
                        hits += 1
                    elif current is None:
                        heappush(defer_heap, (act_allowed[b], b, -1, True, row))
                    else:
                        t_pre = pre_allowed[b]
                        if quant:
                            remainder = t_pre % tck
                            if remainder:
                                t_pre += tck - remainder
                        heappush(defer_heap, (t_pre + trp, b, t_pre, False, row))
                del fresh[:]

            # Commit every deferred activation the bus frontier has
            # reached — in bank order, matching the pre-engine scan.
            # When nothing is ready and nothing is reachable, the
            # earliest (act_ready, bank) entry is force-activated
            # beyond the frontier, exactly the seed's forced pass.
            if defer_heap:
                committable = None
                if defer_heap[0][0] <= bus_free:
                    entry = heappop(defer_heap)
                    if defer_heap and defer_heap[0][0] <= bus_free:
                        del commit_buf[:]
                        commit_buf.append(entry)
                        commit_buf.append(heappop(defer_heap))
                        while defer_heap and defer_heap[0][0] <= bus_free:
                            commit_buf.append(heappop(defer_heap))
                        commit_buf.sort(key=_ENTRY_BANK)
                        committable = commit_buf
                    else:
                        committable = (entry,)
                elif not ready_order:
                    committable = (heappop(defer_heap),)
                if committable:
                    for act_ready, b, t_pre, is_empty, row in committable:
                        if is_empty:
                            empties += 1
                        else:
                            misses += 1
                            pres += 1
                            if record:
                                commands.append(ScheduledCommand(t_pre, CommandType.PRE, bank=b))
                        bg = bg_of[b]
                        t_act = act_ready
                        if last_act != _FAR_PAST:
                            spacing = trrd_l if bg == last_act_bg else trrd_s
                            t = last_act + spacing
                            if t > t_act:
                                t_act = t
                        t = faw_ring[faw_idx] + tfaw
                        if t > t_act:
                            t_act = t
                        if quant:
                            remainder = t_act % tck
                            if remainder:
                                t_act += tck - remainder
                        faw_ring[faw_idx] = t_act
                        faw_idx = (faw_idx + 1) & 3
                        last_act = t_act
                        last_act_bg = bg
                        acts += 1
                        if record:
                            commands.append(ScheduledCommand(t_act, CommandType.ACT, bank=b, row=row))
                        open_row[b] = row
                        cas_allowed[b] = t_act + trcd
                        pre_allowed[b] = t_act + tras
                        if auto_close:
                            streak[b] = 0
                        bstate[b] = 2
                        insort(ready_order, seqs_q[b][head[b]])

            # ---- CAS arbitration -------------------------------------------
            # Both modes walk the ready heads oldest-first (`ready_order`
            # is sorted by sequence number) and stop at the first head
            # that achieves the earliest possible issue slot — identical
            # decisions to scanning every candidate, usually after one
            # or two evaluations.
            if not mixed:
                # Homogeneous: `bound` is the earliest (quantized) slot
                # anything could get; achievers issue exactly there and
                # the oldest achiever wins.
                bound = last_cas + tccd_s
                t = bus_free - latency
                if t > bound:
                    bound = t
                if quant:
                    remainder = bound % tck
                    if remainder:
                        bound += tck - remainder
                chosen = -1
                chosen_i = -1
                best_pb = _FAR_FUTURE
                achieved = False
                i = 0
                for p in ready_order:
                    b = bank_stream[p - stream_base]
                    pb = cas_allowed[b]
                    t = last_cas_bg[bg_of[b]] + tccd_l
                    if t > pb:
                        pb = t
                    if pb <= bound:
                        chosen = b
                        chosen_i = i
                        achieved = True
                        break
                    if pb < best_pb:
                        best_pb = pb
                        chosen = b
                        chosen_i = i
                    i += 1
                if chosen < 0:
                    # Defensive: cannot happen — every non-empty FIFO
                    # head is in `ready` after the eager loop above.
                    raise RuntimeError("scheduler deadlock: no prepared bank head")
                if achieved:
                    t_cas = bound
                else:
                    t_cas = best_pb
                    if quant:
                        remainder = t_cas % tck
                        if remainder:
                            t_cas += tck - remainder
                req_read = is_read
            else:
                # Mixed: per-candidate evaluation with the turnaround
                # rule set (tRTW after a read command, tWTR_S/L after
                # write data); earliest quantized slot wins, ties to the
                # oldest request.  `floor` is the one constraint shared
                # by every candidate, so matching it ends the walk.
                floor = last_cas + tccd_s
                if quant:
                    remainder = floor % tck
                    if remainder:
                        floor += tck - remainder
                best_cas = _FAR_FUTURE
                chosen = -1
                chosen_i = -1
                req_read = True
                i = 0
                for p in ready_order:
                    b = bank_stream[p - stream_base]
                    h = head[b]
                    b_read = dirs_q[b][h]
                    bg = bg_of[b]
                    t_cas_b = cas_allowed[b]
                    t = last_cas + tccd_s
                    if t > t_cas_b:
                        t_cas_b = t
                    t = last_cas_bg[bg] + tccd_l
                    if t > t_cas_b:
                        t_cas_b = t
                    t = bus_free - (cl if b_read else cwl)
                    if t > t_cas_b:
                        t_cas_b = t
                    if b_read:
                        # write -> read: tWTR after the last write data.
                        if last_wr_data_end != _FAR_PAST:
                            spacing = twtr_l if bg == last_wr_bg else twtr_s
                            t = last_wr_data_end + spacing
                            if t > t_cas_b:
                                t_cas_b = t
                    else:
                        # read -> write: tRTW after the last read command.
                        if last_rd_cmd != _FAR_PAST:
                            t = last_rd_cmd + trtw
                            if t > t_cas_b:
                                t_cas_b = t
                    if quant:
                        remainder = t_cas_b % tck
                        if remainder:
                            t_cas_b += tck - remainder
                    if t_cas_b < best_cas:
                        best_cas = t_cas_b
                        chosen = b
                        chosen_i = i
                        req_read = b_read
                        if t_cas_b == floor:
                            break
                    i += 1
                if chosen < 0:
                    raise RuntimeError("scheduler deadlock: no prepared bank head")
                t_cas = best_cas
                latency = cl if req_read else cwl

            # ---- pop, timeline update, intake ------------------------------
            h = head[chosen]
            rq = rows_q[chosen]
            row = rq[h]
            col = cols_q[chosen][h]
            del ready_order[chosen_i]
            h += 1
            head[chosen] = h
            queued -= 1
            closing = False
            if auto_close:
                s = streak[chosen] + 1
                if s >= cap_limit:
                    closing = True
                    s = 0
                streak[chosen] = s
            if adm[chosen] == h:
                bstate[chosen] = 0
            elif not closing and rq[h] == open_row[chosen]:
                hits += 1
                insort(ready_order, seqs_q[chosen][h])
            else:
                bstate[chosen] = 1
                fresh.append(chosen)

            bg = bg_of[chosen]
            last_cas = t_cas
            last_cas_bg[bg] = t_cas
            data_end = t_cas + latency + burst
            bus_free = data_end
            last_data_end = data_end
            if mixed:
                if last_was_read is not None and last_was_read != req_read:
                    turnarounds += 1
                last_was_read = req_read
                if req_read:
                    reads += 1
                    last_rd_cmd = t_cas
                    t = t_cas + trtp
                else:
                    writes += 1
                    last_wr_data_end = data_end
                    last_wr_bg = bg
                    t = data_end + twr
            elif is_read:
                t = t_cas + trtp
            else:
                t = data_end + twr
            if t > pre_allowed[chosen]:
                pre_allowed[chosen] = t
            if record:
                kind = CommandType.RD if req_read else CommandType.WR
                commands.append(
                    ScheduledCommand(
                        t_cas, kind, bank=chosen, row=row, column=col, request_id=n_requests
                    )
                )
            if cas_log is not None:
                cas_log.append(t_cas)
            n_requests += 1
            if closing:
                # Auto-precharge: close the row at its precharge-ready
                # time (tRAS / tRTP / tWR already folded into
                # `pre_allowed` above), exactly where an eager row-miss
                # PRE would land.
                t_pre = pre_allowed[chosen]
                if quant:
                    remainder = t_pre % tck
                    if remainder:
                        t_pre += tck - remainder
                if record:
                    commands.append(ScheduledCommand(t_pre, CommandType.PRE, bank=chosen))
                pres += 1
                open_row[chosen] = None
                act_allowed[chosen] = t_pre + trp
            # Inline single-slot admission: the pop freed exactly one
            # window slot and the next request is usually already
            # loaded — equivalent to (but cheaper than) intake().
            if pos < loaded and queued == queue_depth - 1:
                b = bank_stream[pos - stream_base]
                if adm[b] - head[b] < per_bank_depth:
                    if adm[b] == head[b]:
                        bstate[b] = 1
                        fresh.append(b)
                    adm[b] += 1
                    pos += 1
                    queued += 1
            else:
                intake()

        return build_result(
            config, op,
            (n_requests, hits, misses, empties, acts, pres, refs, last_data_end),
            commands,
            None if cas_log is None else np.array(cas_log, dtype=np.int64),
            (reads, writes, turnarounds) if mixed else None)
