"""Event-driven, JEDEC-constraint-accurate memory controller.

The controller consumes a stream of burst-granular requests
(bank, row, column) belonging to one access phase (all writes or all
reads — the interleaver alternates full phases) and schedules the DRAM
command stream for it, honoring:

* per-bank row-cycle timing (tRCD, tRP, tRAS, tWR, tRTP),
* activate throttles across banks (tRRD_S/L, the tFAW sliding window),
* CAS-to-CAS spacing with bank-group discrimination (tCCD_S/L),
* data-bus occupancy (one burst at a time),
* refresh (all-bank or per-bank, may be disabled).

Architecture — the same one production controllers and DRAMSys use:

* Incoming requests are distributed to **per-bank FIFOs** (total
  occupancy bounded by ``queue_depth``).  Within a bank, requests are
  served strictly in order.
* Each bank machine works **eagerly**: the moment its FIFO head needs a
  different row than the open one, the PRE/ACT pair is scheduled at the
  earliest legal time — row cycles on one bank overlap data transfers
  on the others, which is precisely how staggered page misses get
  hidden.
* A **CAS arbiter** picks, among the bank heads whose row is open, the
  request whose column command can legally issue earliest (this keeps
  bank groups rotating instead of clustering same-group CAS at
  ``tCCD_L``); ties go to the oldest request.

The scheduler itself lives in :mod:`repro.dram.engine` (the reference
arbiter, the core that also powers
:func:`repro.dram.mixed.run_mixed_phase` and trace replay) and
:mod:`repro.dram.kernel` (its compiled, bit-identical fast path) —
:class:`MemoryController` is a thin adapter that normalizes the request
stream into a :class:`~repro.dram.engine.WorkloadSource` and runs it.
The engine is *event-driven*: instead of ticking every clock it computes
the earliest legal issue slot of each command directly and quantizes it
up to the command-clock grid (``timing.tck``), which matches a
cycle-ticking simulator for this command mix but runs orders of
magnitude faster in Python.  Quantization applies whenever the command
clock is exactly representable on the integer-picosecond timeline
(equivalently: a burst occupies a whole number of clocks, true for
DDR3/DDR4/DDR5-3200).  For speed grades whose clock period is not an
integer picosecond count (DDR5-6400, the LPDDR grades) the rounded grid
would *itself* be a time-base artifact — seamless bursts would pick up
a phantom gap of up to one clock — so issue slots stay continuous
there; see ``tests/dram/test_controller_intake.py`` for the regression
tests pinning both behaviors.  Command-bus slot contention (one command
per clock edge) is the one constraint not modeled; with one CAS per
burst (4+ clocks apart) plus at most one ACT and one PRE per CAS, the
command bus never saturates for these workloads.

Request intake accepts two stream shapes (see :meth:`run_phase`):

* an iterable of ``(bank, row, column)`` tuples — the reference path;
* an iterable of columnar *chunks* ``(banks, rows, columns)`` where
  each element is an array/sequence of equal length — the vectorized
  path produced by ``InterleaverMapping.write_addresses_array`` /
  ``read_addresses_array``.  Chunks are bulk-partitioned into the
  engine's array-backed per-bank queues, so the hot loop never
  materializes a Python tuple per request on intake.

Both paths feed the identical scheduler and yield identical
:class:`~repro.dram.stats.PhaseStats`, which is property-tested in
``tests/dram`` and ``tests/integration``; bit-identical equivalence to
the pre-engine scheduler is proven by the differential battery in
``tests/dram/test_engine_differential.py``.

Every phase runs through the batch-advance
:class:`~repro.dram.kernel.KernelEngine`, which schedules homogeneous
phases in its compiled loop and delegates everything else — no
toolchain, closed-page/cap disciplines, mixed traffic — to the
reference :class:`~repro.dram.engine.SchedulingEngine` it wraps.  The
two share one bank-state table by reference and produce bit-identical
results (the kernel's contract; see :mod:`repro.dram.kernel`); the
differential batteries run the reference engine directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.dram.bank import BankSnapshot
from repro.dram.commands import ScheduledCommand
from repro.dram.engine import OP_READ, OP_WRITE, as_workload
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    POLICY_NAMES,
    POLICY_OPEN_PAGE,
    check_discipline,
)
from repro.dram.presets import DramConfig
from repro.dram.stats import PhaseStats

#: One columnar request chunk: (banks, rows, columns) of equal length.
RequestChunk = Tuple[Sequence[int], Sequence[int], Sequence[int]]

#: The request-stream shapes accepted by :meth:`MemoryController.run_phase`.
RequestStream = Union[Iterable[Tuple[int, int, int]], Iterable[RequestChunk]]

__all__ = [
    "OP_READ",
    "OP_WRITE",
    "POLICY_BANK_PARTITION",
    "POLICY_CLOSED_PAGE",
    "POLICY_FRFCFS_CAP",
    "POLICY_NAMES",
    "POLICY_OPEN_PAGE",
    "ControllerConfig",
    "MemoryController",
    "PhaseResult",
    "RequestChunk",
    "RequestStream",
]


@dataclass(frozen=True)
class ControllerConfig:
    """Tunable controller policy parameters.

    Attributes:
        queue_depth: total requests buffered across all per-bank FIFOs.
            Deep queues let bank machines start row cycles earlier and
            are what hides staggered page misses; 64 covers the longest
            JEDEC miss chain at the fastest speed grade in this project.
        per_bank_depth: cap on one bank's FIFO (bounds the skew between
            banks; also what a hardware implementation would have).
        refresh_enabled: model refresh commands (the paper's default) or
            suppress them (legal while interleaver data lives shorter
            than the retention period — the paper's >99 % experiment).
        record_commands: keep the full scheduled-command list on the
            result for inspection; costs memory, used by tests.
        discipline: page-management discipline (one of
            :data:`~repro.dram.policy.POLICY_NAMES`); the default
            :data:`~repro.dram.policy.POLICY_OPEN_PAGE` is the engine's
            original behavior, bit for bit.
        cap: row-hit streak cap under
            :data:`~repro.dram.policy.POLICY_FRFCFS_CAP` (ignored by
            the other disciplines); ``cap=1`` equals closed-page.
    """

    queue_depth: int = 64
    per_bank_depth: int = 16
    refresh_enabled: bool = True
    record_commands: bool = False
    discipline: str = POLICY_OPEN_PAGE
    cap: int = 4

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.per_bank_depth < 1:
            raise ValueError(f"per_bank_depth must be >= 1, got {self.per_bank_depth}")
        check_discipline(self.discipline)
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")


@dataclass
class PhaseResult:
    """Outcome of one simulated phase."""

    stats: PhaseStats
    commands: List[ScheduledCommand] = field(default_factory=list)


class MemoryController:
    """Schedules one access phase against one DRAM configuration.

    A fresh controller starts with all banks precharged and the refresh
    timer at zero; create one controller per phase (the interleaver's
    phases are milliseconds long, so cross-phase boundary effects are
    negligible, and the paper reports the phases separately).

    This class is an adapter over the batch-advance
    :class:`~repro.dram.kernel.KernelEngine`; the bank state lives for
    the controller's lifetime, so consecutive :meth:`run_phase` calls
    see warm rows, whether the kernel ran a phase natively or
    delegated it to the general engine.
    """

    def __init__(self, config: DramConfig,
                 policy: Optional[ControllerConfig] = None) -> None:
        # Imported on first use, keeping the kernel module out of the
        # package's import time.
        from repro.dram.kernel import KernelEngine

        self.config = config
        self.policy = policy or ControllerConfig()
        self._kernel = KernelEngine(config, self.policy)

    def bank_snapshot(self, bank: int) -> BankSnapshot:
        """Readable state of one bank (testing/debugging)."""
        return self._kernel.bank_snapshot(bank)

    def run_phase(self, requests: RequestStream,
                  op: str = OP_READ) -> PhaseResult:
        """Simulate one phase and return its statistics.

        Args:
            requests: the request stream in program order, either as an
                iterable of ``(bank, row, column)`` triples at burst
                granularity, or as an iterable of columnar chunks
                ``(banks, rows, columns)`` whose elements are
                equal-length arrays/sequences (the vectorized fast
                path).  The two shapes are scheduled identically.
            op: :data:`OP_READ` or :data:`OP_WRITE` for the whole phase.

        Returns:
            A :class:`PhaseResult` whose ``stats.utilization`` is the
            data-bus utilization of the phase.

        Raises:
            ValueError: on an unknown ``op``, or when a request carries
                a bank index outside ``[0, geometry.banks)`` or a
                negative row (validated at intake, naming the offending
                request).
        """
        result = self._kernel.run(as_workload(requests), op=op)
        return PhaseResult(stats=result.stats, commands=result.commands)
