"""Bandwidth and page-policy statistics for one simulated access phase.

Utilization follows the paper's definition: the fraction of the phase's
wall-clock time during which the data bus transfers payload,

    utilization = (bursts x burst_duration) / makespan

where the makespan runs from the phase start (time 0) to the end of the
last data burst.  The maximum interleaver throughput is set by the
*minimum* utilization across the write and read phases
(:func:`min_phase_utilization`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class EnergyTally:
    """Per-command tallies the energy model charges (engine-filled).

    Pure integer counters: the scheduling engine derives one of these
    from counters it already keeps in its hot loop, so command-level
    energy accounting costs nothing per request — no per-command Python
    object is ever created for it.  :func:`repro.dram.energy
    .energy_from_tally` turns a tally into an
    :class:`~repro.dram.energy.EnergyReport`, and the differential
    battery in ``tests/dram/test_energy_differential.py`` proves the
    tally exactly equals a recount over the recorded command list.

    Attributes:
        act_pre: ACT commands issued (each is charged as one ACT/PRE
            row-cycle pair; refresh-forced extra PREs ride along free,
            like DRAMPower's pairing convention).
        rd: read bursts issued.
        wr: write bursts issued.
        ref: refresh commands issued (REFab or REFpb, whichever the
            configuration's refresh mode uses).
        makespan_ps: phase start to end of last data burst — the window
            over which background power is integrated.
    """

    act_pre: int = 0
    rd: int = 0
    wr: int = 0
    ref: int = 0
    makespan_ps: int = 0


@dataclass
class PhaseStats:
    """Counters collected while simulating one access phase.

    Attributes:
        requests: CAS commands issued for payload (one per burst).
        page_hits: requests served from an already-open row.
        page_misses: requests that found a different row open (PRE+ACT).
        page_empties: requests that found the bank precharged (ACT only).
        activates: ACT commands issued.
        precharges: PRE commands issued.
        refreshes: refresh commands issued.
        data_time_ps: total data-bus busy time.
        makespan_ps: time from phase start to end of last burst.
        command_counts: per-command-type issue counts.
        energy_tally: energy-model command tallies (engine-filled;
            excluded from equality so engine stats still compare equal
            to oracles that never tallied energy).
        kernel_fallback: ``True`` when a kernel-engine run delegated to
            the general engine because the selected scheduling
            discipline is not kernel-implemented (see
            :mod:`repro.dram.policy`).  An execution annotation, not a
            scheduling outcome: excluded from equality (results are
            bit-identical either way) and from store payloads.
    """

    requests: int = 0
    page_hits: int = 0
    page_misses: int = 0
    page_empties: int = 0
    activates: int = 0
    precharges: int = 0
    refreshes: int = 0
    data_time_ps: int = 0
    makespan_ps: int = 0
    command_counts: Dict[str, int] = field(default_factory=dict)
    energy_tally: Optional[EnergyTally] = field(default=None, compare=False,
                                                repr=False)
    kernel_fallback: bool = field(default=False, compare=False, repr=False)

    @property
    def utilization(self) -> float:
        """Data-bus utilization over the phase (0.0 – 1.0)."""
        if self.makespan_ps <= 0:
            return 0.0
        return self.data_time_ps / self.makespan_ps

    @property
    def hit_rate(self) -> float:
        """Fraction of requests that were page hits."""
        if self.requests == 0:
            return 0.0
        return self.page_hits / self.requests

    @property
    def miss_rate(self) -> float:
        """Fraction of requests that were page misses (conflict)."""
        if self.requests == 0:
            return 0.0
        return self.page_misses / self.requests


def min_phase_utilization(write: PhaseStats, read: PhaseStats) -> float:
    """The interleaver-throughput-limiting utilization (paper, Sec. III)."""
    return min(write.utilization, read.utilization)
