"""Mixed read/write traffic: the interleaver's steady-state operation.

The paper reports write and read phases separately (their minimum sets
throughput), because in the real system the two phases run on *separate
devices* in double-buffer fashion or alternate in large blocks.  A
single-device design could also interleave the streams request by
request — writing frame k+1 while reading frame k — at the price of
data-bus turnaround penalties (tRTW between a read and a write command,
tWTR between write data and a read command).

:func:`run_mixed_phase` schedules such a mixed stream as one cold
phase through the scheduler front door,
:class:`~repro.dram.kernel.KernelEngine`, which hands it to a fresh
:class:`~repro.dram.engine.SchedulingEngine` — the same per-bank
queues, eager row management and age-fair CAS arbiter as a
homogeneous phase, with the engine's direction-turnaround rule set
active;
:func:`steady_state_interleaver` builds the canonical 1:1 write/read
interleaving of two frames and reports the utilization split.  The
result quantifies how much turnaround a fine-grained single-device
design would pay, and thereby why the per-phase (block-alternating)
methodology of the paper is the right operating model.

Since the unified-engine refactor mixed runs also fill
``stats.command_counts`` and honor ``policy.record_commands``, so a
mixed schedule can be dumped with
:func:`repro.dram.trace.write_trace` and independently validated with
:class:`repro.dram.trace.TraceChecker` exactly like a homogeneous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.dram.commands import ScheduledCommand
from repro.dram.controller import ControllerConfig
from repro.dram.engine import MixedSource
from repro.dram.presets import DramConfig
from repro.dram.stats import PhaseStats
from repro.mapping.base import AddressArrays, InterleaverMapping

#: A mixed request: (is_read, bank, row, column).
MixedRequest = Tuple[bool, int, int, int]


@dataclass(frozen=True)
class MixedResult:
    """Outcome of a mixed-traffic run.

    Attributes:
        stats: aggregate phase statistics (both directions combined).
        reads: number of read bursts.
        writes: number of write bursts.
        turnarounds: bus direction switches that occurred.
        commands: the scheduled command list (only populated when the
            policy sets ``record_commands``).
    """

    stats: PhaseStats
    reads: int
    writes: int
    turnarounds: int
    commands: List[ScheduledCommand] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Data-bus utilization of the whole mixed run."""
        return self.stats.utilization


def run_mixed_phase(
    config: DramConfig,
    requests: Iterable[MixedRequest],
    policy: Optional[ControllerConfig] = None,
) -> MixedResult:
    """Schedule a mixed read/write request stream.

    Same engine as a homogeneous phase (per-bank queues, eager row
    management, age-fair CAS arbiter) plus the direction-turnaround
    rules:

    * read -> write: ``WR`` command at least ``tRTW`` after the ``RD``;
    * write -> read: ``RD`` command at least ``tWTR_S``/``tWTR_L``
      (bank-group-discriminated) after the end of write data.

    Mixed streams always schedule through the general core: the
    turnaround rule set has no kernel fast path.
    """
    # Imported on first use, keeping the kernel module out of the
    # package's import time.
    from repro.dram.kernel import KernelEngine

    policy = policy or ControllerConfig()
    result = KernelEngine(config, policy).run(MixedSource(requests))
    return MixedResult(stats=result.stats, reads=result.reads,
                       writes=result.writes, turnarounds=result.turnarounds,
                       commands=result.commands)


class RowShiftedMapping(InterleaverMapping):
    """Places a mapping's frame at a different DRAM row region.

    Used to double-buffer two frames on one device: the frame being
    read lives ``row_offset`` rows above the frame being written, so
    the two streams never share pages.
    """

    def __init__(self, inner: InterleaverMapping, row_offset: int) -> None:
        super().__init__(inner.space, inner.geometry)
        if row_offset < 0:
            raise ValueError(f"row_offset must be >= 0, got {row_offset}")
        self.inner = inner
        self.row_offset = row_offset
        self.name = inner.name
        if row_offset + inner.rows_used() > inner.geometry.rows:
            raise ValueError(
                f"shifted frame needs rows up to {row_offset + inner.rows_used()} "
                f"but the device has {inner.geometry.rows}"
            )

    def address_tuple(self, i: int, j: int) -> Tuple[int, int, int]:
        """The inner mapping's address, shifted ``row_offset`` rows up."""
        bank, row, column = self.inner.address_tuple(i, j)
        return bank, row + self.row_offset, column

    def address_arrays(self, i: Any, j: Any) -> AddressArrays:
        """The inner mapping's address arrays, shifted ``row_offset`` rows up."""
        bank, row, column = self.inner.address_arrays(i, j)
        return bank, row + self.row_offset, column

    def rows_used(self) -> int:
        """Rows of the *unshifted* frame (the shift is capacity-checked)."""
        return self.inner.rows_used()


def _address_tuples(chunks: Iterable[AddressArrays]) -> Iterator[Tuple[int, int, int]]:
    """``(bank, row, column)`` tuples of Python ints from columnar chunks."""
    for banks, rows, columns in chunks:
        yield from zip(banks.tolist(), rows.tolist(), columns.tolist())


def interleaved_stream(
    write_mapping: InterleaverMapping,
    read_mapping: InterleaverMapping,
    group: int = 1,
) -> Iterator[MixedRequest]:
    """1:1 interleaving of a write frame and a read frame.

    Args:
        write_mapping: mapping of the frame being written (row-wise).
        read_mapping: mapping of the frame being read (column-wise);
            usually the same mapping at a different base region.
        group: number of same-direction requests issued back to back
            before switching direction (larger groups amortize the
            turnaround penalty).
    """
    if group < 1:
        raise ValueError(f"group must be >= 1, got {group}")
    writers = _address_tuples(write_mapping.write_addresses_array())
    readers = _address_tuples(read_mapping.read_addresses_array())
    live = True
    while live:
        live = False
        for _ in range(group):
            item = next(writers, None)
            if item is not None:
                live = True
                yield (False,) + item
        for _ in range(group):
            item = next(readers, None)
            if item is not None:
                live = True
                yield (True,) + item


def read_frame_mapping(mapping: InterleaverMapping) -> RowShiftedMapping:
    """The read frame, ``mapping.rows_used()`` rows above the write frame."""
    return RowShiftedMapping(mapping, mapping.rows_used())


def steady_state_interleaver(
    config: DramConfig,
    mapping: InterleaverMapping,
    group: int = 1,
    policy: Optional[ControllerConfig] = None,
) -> MixedResult:
    """Simulate the steady-state write(k+1)/read(k) operation.

    The read frame is double-buffered above the write frame
    (:func:`read_frame_mapping`) so the two streams never share pages.
    """
    stream = interleaved_stream(mapping, read_frame_mapping(mapping), group)
    return run_mixed_phase(config, stream, policy)
