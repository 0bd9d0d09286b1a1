"""The scalar scheduler oracle the differential batteries prove against.

:func:`reference_run_phase` and :func:`reference_run_mixed_phase` are
the homogeneous and mixed read/write schedulers as they stood before
the unified engine (:mod:`repro.dram.engine`) replaced them, kept as
standalone functions, plus two policy additions:

* bank partitioning remaps the request stream at entry (the discipline
  is an intake transformation, so the seed scheduler on the remapped
  stream *is* its reference);
* closed-page and FR-FCFS-cap add a per-bank column-access streak,
  reset at ACT, that at the cap charges a PRE at the bank's
  precharge-ready time and closes the row.  The lines are marked
  ``# auto-close``.

Under a policy that implies no cap the auto-close lines never run, so
the functions are the seed schedulers.  ``test_scheduler_digest.py``
pins their output over every battery case.  Bug fixes go to the
engine; an intentional behavior change must show up as a documented
engine/oracle divergence in a battery.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Any, Deque, Iterator, List, Optional, Set, Tuple

from repro.dram.commands import CommandType, ScheduledCommand
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import EngineResult
from repro.dram.mixed import MixedRequest, MixedResult
from repro.dram.policy import (POLICY_BANK_PARTITION, POLICY_CLOSED_PAGE,
                               POLICY_FRFCFS_CAP, partition_bank,
                               partition_banks)
from repro.dram.presets import REFRESH_ALL_BANK, DramConfig
from repro.dram.refresh import RefreshScheduler
from repro.dram.stats import PhaseStats

_FAR_PAST = -(10**15)
_FAR_FUTURE = 10**18


def _cap_limit(policy: ControllerConfig) -> int:
    """The auto-close streak cap one policy implies (0 = disabled)."""
    if policy.discipline == POLICY_CLOSED_PAGE:
        return 1
    if policy.discipline == POLICY_FRFCFS_CAP:
        return policy.cap
    return 0


def _as_list(values: Any) -> List[int]:
    """Bulk-convert one chunk column to a plain Python list."""
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        converted: List[int] = tolist()
        return converted
    return list(values)


def partition_tuple_stream(requests: Any, n_banks: int,
                           is_read: bool) -> List[Tuple[int, int, int]]:
    """Scalar bank-partition remap of a homogeneous tuple stream.

    Validates every original bank index (mirroring the engine's intake
    error, message for message) and folds it into the stream class's
    partition with :func:`~repro.dram.policy.partition_bank`.
    """
    partition_banks(n_banks)  # even bank count required
    remapped: List[Tuple[int, int, int]] = []
    for k, (bank, row, col) in enumerate(requests):
        if bank < 0 or bank >= n_banks:
            raise ValueError(
                f"request #{k} (bank={bank}, row={row}, column={col}): "
                f"bank out of range [0, {n_banks})")
        remapped.append((partition_bank(bank, n_banks, is_read), row, col))
    return remapped


def partition_mixed_stream(requests: Any,
                           n_banks: int) -> List[Tuple[bool, int, int, int]]:
    """Scalar bank-partition remap of a mixed request stream.

    Each request's stream class is its own direction flag: reads fold
    into the upper partition, writes into the lower one.
    """
    partition_banks(n_banks)  # even bank count required
    remapped: List[Tuple[bool, int, int, int]] = []
    for is_read, bank, row, col in requests:
        remapped.append(
            (is_read, partition_bank(bank, n_banks, is_read), row, col))
    return remapped


def reference_run_phase(config: DramConfig, requests: Any, op: str = OP_READ,
                        policy: Optional[ControllerConfig] = None
                        ) -> EngineResult:
    """The seed homogeneous-phase scheduler, under any discipline.

    Accepts the request streams the engine's
    :class:`~repro.dram.engine.TupleSource` and
    :class:`~repro.dram.engine.ChunkSource` carry (an iterable of
    ``(bank, row, column)`` tuples or of columnar chunks) and returns an
    :class:`~repro.dram.engine.EngineResult` with its statistics and
    commands.
    Bank partitioning remaps a tuple stream at entry; the lines marked
    ``# auto-close`` are the streak counters, their reset at ACT, and
    the cap check plus auto-PRE around the pop.
    """
    policy = policy or ControllerConfig()
    if op not in (OP_READ, OP_WRITE):
        raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {op!r}")
    if policy.discipline == POLICY_BANK_PARTITION:
        requests = partition_tuple_stream(requests, config.geometry.banks,
                                          op == OP_READ)

    geometry = config.geometry
    n_banks = geometry.banks
    bank_groups = geometry.bank_groups
    open_row: List[Optional[int]] = [None] * n_banks
    act_time = [_FAR_PAST] * n_banks
    cas_allowed = [0] * n_banks
    pre_allowed = [0] * n_banks
    act_allowed = [0] * n_banks
    refresh = RefreshScheduler(config, enabled=policy.refresh_enabled)

    timing = config.timing
    burst = config.burst_duration_ps
    tck = timing.tck if burst % timing.tck == 0 else 1
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
    is_read = op == OP_READ
    latency = timing.cl if is_read else timing.cwl

    queue_depth = policy.queue_depth
    per_bank_depth = policy.per_bank_depth
    record = policy.record_commands
    commands: List[ScheduledCommand] = []
    stats = PhaseStats()
    all_bank_refresh = config.refresh_mode == REFRESH_ALL_BANK

    cap_limit = _cap_limit(policy)  # auto-close
    auto_close = cap_limit > 0  # auto-close
    streak = [0] * n_banks  # auto-close

    bg_of = [b % bank_groups for b in range(n_banks)]
    last_cas = _FAR_PAST
    last_cas_bg = [_FAR_PAST] * bank_groups
    last_act = _FAR_PAST
    last_act_bg = -1
    faw_ring = [_FAR_PAST] * 4
    faw_idx = 0
    bus_free = 0
    last_data_end = 0

    fifos: List[Deque[Tuple[int, int, int]]] = [deque() for _ in range(n_banks)]
    pending: Set[int] = set()
    ready: Set[int] = set()
    queued = 0
    seq = 0
    order_seq: Deque[int] = deque()
    order_bank: Deque[int] = deque()

    stalled: Optional[Tuple[int, int, int]] = None
    exhausted = False
    intake = 0

    raw = iter(requests)
    first = next(raw, None)
    if first is None:
        exhausted = True
        chunked = False
        source = raw
    else:
        chunked = hasattr(first[0], "__len__")
        source = chain((first,), raw)

    buf_banks: List[int] = []
    buf_rows: List[int] = []
    buf_cols: List[int] = []
    buf_pos = 0
    buf_len = 0

    def load_chunk() -> bool:
        nonlocal buf_banks, buf_rows, buf_cols, buf_pos, buf_len
        nonlocal exhausted, intake
        while True:
            item = next(source, None)
            if item is None:
                exhausted = True
                return False
            banks_col, rows_col, cols_col = item
            banks = _as_list(banks_col)
            if not banks:
                continue
            rows = _as_list(rows_col)
            cols = _as_list(cols_col)
            if len(rows) != len(banks) or len(cols) != len(banks):
                raise ValueError(
                    f"request chunk columns disagree in length: "
                    f"{len(banks)} banks, {len(rows)} rows, {len(cols)} columns"
                )
            if min(banks) < 0 or max(banks) >= n_banks:
                for k, bank in enumerate(banks):
                    if not 0 <= bank < n_banks:
                        raise ValueError(
                            f"request #{intake + k} (bank={bank}, row={rows[k]}, "
                            f"column={cols[k]}): bank out of range [0, {n_banks})"
                        )
            buf_banks, buf_rows, buf_cols = banks, rows, cols
            buf_pos = 0
            buf_len = len(banks)
            intake += buf_len
            return True

    def refill_tuples() -> None:
        nonlocal queued, seq, stalled, exhausted, intake, fresh_pending
        while queued < queue_depth:
            if stalled is not None:
                bank = stalled[0]
                fifo = fifos[bank]
                if len(fifo) >= per_bank_depth:
                    return
                if not fifo:
                    pending.add(bank)
                    fresh_pending = True
                fifo.append((stalled[1], stalled[2], seq))
                order_seq.append(seq)
                order_bank.append(bank)
                seq += 1
                queued += 1
                stalled = None
                continue
            if exhausted:
                return
            item = next(source, None)
            if item is None:
                exhausted = True
                return
            bank, row, col = item
            if bank < 0 or bank >= n_banks:
                raise ValueError(
                    f"request #{intake} (bank={bank}, row={row}, column={col}): "
                    f"bank out of range [0, {n_banks})"
                )
            intake += 1
            fifo = fifos[bank]
            if len(fifo) >= per_bank_depth:
                stalled = (bank, row, col)
                return
            if not fifo:
                pending.add(bank)
                fresh_pending = True
            fifo.append((row, col, seq))
            order_seq.append(seq)
            order_bank.append(bank)
            seq += 1
            queued += 1

    def refill_chunks() -> None:
        nonlocal queued, seq, stalled, buf_pos, fresh_pending
        while queued < queue_depth:
            if stalled is not None:
                bank = stalled[0]
                fifo = fifos[bank]
                if len(fifo) >= per_bank_depth:
                    return
                if not fifo:
                    pending.add(bank)
                    fresh_pending = True
                fifo.append((stalled[1], stalled[2], seq))
                order_seq.append(seq)
                order_bank.append(bank)
                seq += 1
                queued += 1
                stalled = None
                continue
            if buf_pos >= buf_len:
                if exhausted or not load_chunk():
                    return
            bank = buf_banks[buf_pos]
            row = buf_rows[buf_pos]
            col = buf_cols[buf_pos]
            buf_pos += 1
            fifo = fifos[bank]
            if len(fifo) >= per_bank_depth:
                stalled = (bank, row, col)
                return
            if not fifo:
                pending.add(bank)
                fresh_pending = True
            fifo.append((row, col, seq))
            order_seq.append(seq)
            order_bank.append(bank)
            seq += 1
            queued += 1

    refill = refill_chunks if chunked else refill_tuples

    n_requests = 0
    hits = misses = empties = acts = pres = refs = 0
    quant = tck > 1

    fresh_pending = False
    deferred_floor = _FAR_FUTURE

    refill()

    deadline = refresh.next_deadline_ps

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
                ready.discard(b)
                if fifos[b]:
                    pending.add(b)
                act_allowed[b] = ref_time + event.duration_ps
            fresh_pending = True
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
        if pending and (fresh_pending or deferred_floor <= bus_free or not ready):
            fresh_pending = False
            horizon = bus_free
            forced_bank = -1
            while True:
                deferred_ready = _FAR_FUTURE
                deferred_bank = -1
                for b in sorted(pending) if len(pending) > 1 else tuple(pending):
                    row = fifos[b][0][0]
                    current = open_row[b]
                    if current == row:
                        pending.discard(b)
                        ready.add(b)
                        hits += 1
                        continue
                    if current is None:
                        t_pre = -1
                        act_ready = act_allowed[b]
                    else:
                        t_pre = pre_allowed[b]
                        if quant:
                            remainder = t_pre % tck
                            if remainder:
                                t_pre += tck - remainder
                        act_ready = t_pre + trp
                    if act_ready > horizon and b != forced_bank:
                        if act_ready < deferred_ready:
                            deferred_ready = act_ready
                            deferred_bank = b
                        continue
                    if current is None:
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
                    act_time[b] = t_act
                    cas_allowed[b] = t_act + trcd
                    pre_allowed[b] = t_act + tras
                    streak[b] = 0  # auto-close
                    pending.discard(b)
                    ready.add(b)
                if ready or deferred_bank < 0:
                    deferred_floor = deferred_ready
                    break
                forced_bank = deferred_bank

        # ---- CAS arbitration -------------------------------------------
        bound = last_cas + tccd_s
        t = bus_free - latency
        if t > bound:
            bound = t
        if quant:
            remainder = bound % tck
            if remainder:
                bound += tck - remainder
        chosen = -1

        while order_seq:
            b = order_bank[0]
            fifo = fifos[b]
            if fifo and fifo[0][2] == order_seq[0]:
                break
            order_seq.popleft()
            order_bank.popleft()
        oldest_bank = order_bank[0]
        if oldest_bank in ready:
            pb = cas_allowed[oldest_bank]
            t = last_cas_bg[bg_of[oldest_bank]] + tccd_l
            if t > pb:
                pb = t
            if pb <= bound:
                chosen = oldest_bank
                t_cas = bound

        if chosen < 0:
            bg_limits = [t + tccd_l for t in last_cas_bg]
            best_pb = _FAR_FUTURE
            best_seq = _FAR_FUTURE
            achieved = False
            for b in ready:
                pb = cas_allowed[b]
                t = bg_limits[bg_of[b]]
                if t > pb:
                    pb = t
                if pb <= bound:
                    seq_b = fifos[b][0][2]
                    if not achieved or seq_b < best_seq:
                        achieved = True
                        best_seq = seq_b
                        chosen = b
                elif not achieved:
                    seq_b = fifos[b][0][2]
                    if pb < best_pb or (pb == best_pb and seq_b < best_seq):
                        best_pb = pb
                        best_seq = seq_b
                        chosen = b
            if chosen < 0:
                raise RuntimeError("scheduler deadlock: no prepared bank head")
            if achieved:
                t_cas = bound
            else:
                t_cas = best_pb
                if quant:
                    remainder = t_cas % tck
                    if remainder:
                        t_cas += tck - remainder

        fifo = fifos[chosen]
        row, col, _seqno = fifo.popleft()
        queued -= 1
        closing = False  # auto-close
        if auto_close:  # auto-close
            s = streak[chosen] + 1
            if s >= cap_limit:
                closing = True
                s = 0
            streak[chosen] = s
        if not fifo:
            ready.discard(chosen)
        elif not closing and fifo[0][0] == open_row[chosen]:
            hits += 1
        else:
            ready.discard(chosen)
            pending.add(chosen)
            fresh_pending = True

        bg = bg_of[chosen]
        last_cas = t_cas
        last_cas_bg[bg] = t_cas
        data_end = t_cas + latency + burst
        bus_free = data_end
        last_data_end = data_end
        if is_read:
            t = t_cas + trtp
        else:
            t = data_end + twr
        if t > pre_allowed[chosen]:
            pre_allowed[chosen] = t
        if record:
            kind = CommandType.RD if is_read else CommandType.WR
            commands.append(
                ScheduledCommand(
                    t_cas, kind, bank=chosen, row=row, column=col, request_id=n_requests
                )
            )
        n_requests += 1
        if closing:  # auto-close
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
        if stalled is None and buf_pos < buf_len and queued == queue_depth - 1:
            bank = buf_banks[buf_pos]
            row = buf_rows[buf_pos]
            col = buf_cols[buf_pos]
            buf_pos += 1
            fifo = fifos[bank]
            if len(fifo) >= per_bank_depth:
                stalled = (bank, row, col)
            else:
                if not fifo:
                    pending.add(bank)
                    fresh_pending = True
                fifo.append((row, col, seq))
                order_seq.append(seq)
                order_bank.append(bank)
                seq += 1
                queued += 1
        else:
            refill()

    stats.requests = n_requests
    stats.page_hits = hits
    stats.page_misses = misses
    stats.page_empties = empties
    stats.activates = acts
    stats.precharges = pres
    stats.refreshes = refs
    stats.data_time_ps = n_requests * burst
    stats.makespan_ps = last_data_end
    stats.command_counts = {
        CommandType.ACT.value: acts,
        CommandType.PRE.value: pres,
        (CommandType.RD if is_read else CommandType.WR).value: n_requests,
        (CommandType.REF_ALL if all_bank_refresh else CommandType.REF_BANK).value: refs,
    }
    return EngineResult(stats=stats, commands=commands)


def reference_run_mixed_phase(config: DramConfig, requests: Any,
                              policy: Optional[ControllerConfig] = None
                              ) -> MixedResult:
    """The seed mixed read/write scheduler, under any discipline.

    Same signature and result as
    :func:`repro.dram.mixed.run_mixed_phase`, except that its ``stats``
    carry no ``command_counts`` and no commands are ever recorded (both
    are engine additions the batteries account for).  Bank
    partitioning remaps the stream at entry; the ``# auto-close``
    lines are the same three as in :func:`reference_run_phase`.
    """
    policy = policy or ControllerConfig()
    if policy.discipline == POLICY_BANK_PARTITION:
        requests = partition_mixed_stream(requests, config.geometry.banks)
    timing = config.timing
    geometry = config.geometry
    n_banks = geometry.banks
    bank_groups = geometry.bank_groups
    burst = config.burst_duration_ps
    tck = timing.tck if burst % timing.tck == 0 else 1
    quant = tck > 1

    trp, trcd, tras = timing.trp, timing.trcd, timing.tras
    trrd_s, trrd_l, tfaw = timing.trrd_s, timing.trrd_l, timing.tfaw
    tccd_s, tccd_l = timing.tccd_s, timing.tccd_l
    twr, trtp, trtw = timing.twr, timing.trtp, timing.trtw
    twtr_s, twtr_l = timing.twtr_s, timing.twtr_l
    cl, cwl = timing.cl, timing.cwl

    open_row: List[Optional[int]] = [None] * n_banks
    cas_allowed = [0] * n_banks
    pre_allowed = [0] * n_banks
    act_allowed = [0] * n_banks
    prepared = [False] * n_banks

    refresh = RefreshScheduler(config, enabled=policy.refresh_enabled)

    cap_limit = _cap_limit(policy)  # auto-close
    auto_close = cap_limit > 0  # auto-close
    streak = [0] * n_banks  # auto-close

    last_cas = _FAR_PAST
    last_cas_bg = [_FAR_PAST] * bank_groups
    last_act = _FAR_PAST
    last_act_bg = -1
    faw_ring = [_FAR_PAST] * 4
    faw_idx = 0
    bus_free = 0
    last_data_end = 0
    last_was_read: Optional[bool] = None
    last_rd_cmd = _FAR_PAST
    last_wr_data_end = _FAR_PAST
    last_wr_bg = -1

    fifos: List[Deque[Tuple[int, int, int, bool]]] = [deque() for _ in range(n_banks)]
    queued = 0
    seq = 0
    stalled: Optional[MixedRequest] = None
    exhausted = False
    source: Iterator[MixedRequest] = iter(requests)

    stats = PhaseStats()
    hits = misses = empties = acts = pres = refs = 0
    n_requests = reads = writes = turnarounds = 0

    def refill() -> None:
        nonlocal queued, seq, stalled, exhausted
        while queued < policy.queue_depth:
            if stalled is not None:
                is_read, bank, row, col = stalled
                if len(fifos[bank]) >= policy.per_bank_depth:
                    return
                fifos[bank].append((row, col, seq, is_read))
                seq += 1
                queued += 1
                stalled = None
                continue
            if exhausted:
                return
            item = next(source, None)
            if item is None:
                exhausted = True
                return
            is_read, bank, row, col = item
            if len(fifos[bank]) >= policy.per_bank_depth:
                stalled = item
                return
            fifos[bank].append((row, col, seq, is_read))
            seq += 1
            queued += 1

    refill()

    while queued:
        # ---- refresh (same policy as the homogeneous scheduler) ------
        deadline = refresh.next_deadline_ps
        while deadline is not None and last_cas >= deadline:
            event = refresh.due(last_cas)
            if event is None:
                break
            ref_time = event.deadline_ps
            for b in event.banks:
                if open_row[b] is not None:
                    pres += 1
                    open_row[b] = None
                    prepared[b] = False
                    t_pre = pre_allowed[b]
                    if quant:
                        remainder = t_pre % tck
                        if remainder:
                            t_pre += tck - remainder
                    bank_ready = t_pre + trp
                else:
                    bank_ready = act_allowed[b]
                if bank_ready > ref_time:
                    ref_time = bank_ready
            if quant:
                remainder = ref_time % tck
                if remainder:
                    ref_time += tck - remainder
            for b in event.banks:
                open_row[b] = None
                prepared[b] = False
                act_allowed[b] = ref_time + event.duration_ps
            refs += 1
            deadline = refresh.next_deadline_ps

        # ---- eager row management with the ACT horizon ----------------
        horizon = bus_free
        any_prepared = False
        forced_bank = -1
        while True:
            deferred_ready = _FAR_FUTURE
            deferred_bank = -1
            for b in range(n_banks):
                if not fifos[b]:
                    continue
                if prepared[b]:
                    any_prepared = True
                    continue
                row = fifos[b][0][0]
                current = open_row[b]
                if current == row:
                    prepared[b] = True
                    hits += 1
                    any_prepared = True
                    continue
                if current is None:
                    act_ready = act_allowed[b]
                else:
                    t_pre = pre_allowed[b]
                    if quant:
                        remainder = t_pre % tck
                        if remainder:
                            t_pre += tck - remainder
                    act_ready = t_pre + trp
                if act_ready > horizon and b != forced_bank:
                    if act_ready < deferred_ready:
                        deferred_ready = act_ready
                        deferred_bank = b
                    continue
                if current is None:
                    empties += 1
                else:
                    misses += 1
                    pres += 1
                bg = b % bank_groups
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
                open_row[b] = row
                cas_allowed[b] = t_act + trcd
                pre_allowed[b] = t_act + tras
                streak[b] = 0  # auto-close
                prepared[b] = True
                any_prepared = True
            if any_prepared or deferred_bank < 0:
                break
            forced_bank = deferred_bank

        # ---- CAS arbitration with turnaround ---------------------------
        best_cas = _FAR_FUTURE
        best_seq = _FAR_FUTURE
        chosen = -1
        chosen_cas = 0
        for b in range(n_banks):
            if not prepared[b] or not fifos[b]:
                continue
            row, col, seq_b, is_read = fifos[b][0]
            bg = b % bank_groups
            latency = cl if is_read else cwl
            t_cas = cas_allowed[b]
            t = last_cas + tccd_s
            if t > t_cas:
                t_cas = t
            t = last_cas_bg[bg] + tccd_l
            if t > t_cas:
                t_cas = t
            t = bus_free - latency
            if t > t_cas:
                t_cas = t
            if is_read:
                if last_wr_data_end != _FAR_PAST:
                    spacing = twtr_l if bg == last_wr_bg else twtr_s
                    t = last_wr_data_end + spacing
                    if t > t_cas:
                        t_cas = t
            else:
                if last_rd_cmd != _FAR_PAST:
                    t = last_rd_cmd + trtw
                    if t > t_cas:
                        t_cas = t
            if quant:
                remainder = t_cas % tck
                if remainder:
                    t_cas += tck - remainder
            if t_cas < best_cas or (t_cas == best_cas and seq_b < best_seq):
                best_cas = t_cas
                best_seq = seq_b
                chosen = b
                chosen_cas = t_cas
        if chosen < 0:
            raise RuntimeError("scheduler deadlock: no prepared bank head")

        row, col, _seq, is_read = fifos[chosen].popleft()
        queued -= 1
        closing = False  # auto-close
        if auto_close:  # auto-close
            s = streak[chosen] + 1
            if s >= cap_limit:
                closing = True
                s = 0
            streak[chosen] = s
        prepared[chosen] = (not closing and bool(fifos[chosen])
                            and fifos[chosen][0][0] == open_row[chosen])
        if prepared[chosen]:
            hits += 1

        bg = chosen % bank_groups
        latency = cl if is_read else cwl
        t_cas = chosen_cas
        last_cas = t_cas
        last_cas_bg[bg] = t_cas
        data_end = t_cas + latency + burst
        bus_free = data_end
        last_data_end = data_end
        if last_was_read is not None and last_was_read != is_read:
            turnarounds += 1
        last_was_read = is_read
        if is_read:
            reads += 1
            last_rd_cmd = t_cas
            t = t_cas + trtp
        else:
            writes += 1
            last_wr_data_end = data_end
            last_wr_bg = bg
            t = data_end + twr
        if t > pre_allowed[chosen]:
            pre_allowed[chosen] = t
        n_requests += 1
        if closing:  # auto-close
            t_pre = pre_allowed[chosen]
            if quant:
                remainder = t_pre % tck
                if remainder:
                    t_pre += tck - remainder
            pres += 1
            open_row[chosen] = None
            act_allowed[chosen] = t_pre + trp
        refill()

    stats.requests = n_requests
    stats.page_hits = hits
    stats.page_misses = misses
    stats.page_empties = empties
    stats.activates = acts
    stats.precharges = pres
    stats.refreshes = refs
    stats.data_time_ps = n_requests * burst
    stats.makespan_ps = last_data_end
    return MixedResult(stats=stats, reads=reads, writes=writes,
                       turnarounds=turnarounds)
