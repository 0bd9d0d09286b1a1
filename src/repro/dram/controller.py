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

This module holds the controller's policy, :class:`ControllerConfig`,
and the phase directions.  The scheduler's one front door is
:class:`~repro.dram.kernel.KernelEngine`:
``KernelEngine(config, policy).run(source, op)`` schedules one cold
phase from a :class:`~repro.dram.engine.WorkloadSource` —
:class:`~repro.dram.engine.TupleSource` for ``(bank, row, column)``
tuples, :class:`~repro.dram.engine.ChunkSource` for the columnar chunks
``InterleaverMapping.write_addresses_array`` /
``read_addresses_array`` produce.  It runs homogeneous phases in its
compiled loop and delegates everything else — no toolchain,
closed-page/cap disciplines, mixed traffic — to a fresh reference
:class:`~repro.dram.engine.SchedulingEngine`; the two produce
bit-identical results (the kernel's contract; see
:mod:`repro.dram.kernel`), and the differential batteries run the
reference engine directly.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.engine import OP_READ, OP_WRITE
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    POLICY_NAMES,
    POLICY_OPEN_PAGE,
    check_discipline,
)

__all__ = [
    "OP_READ",
    "OP_WRITE",
    "POLICY_BANK_PARTITION",
    "POLICY_CLOSED_PAGE",
    "POLICY_FRFCFS_CAP",
    "POLICY_NAMES",
    "POLICY_OPEN_PAGE",
    "ControllerConfig",
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
