"""Refresh scheduling policies.

Two policies cover the five standards in the paper:

* **All-bank refresh** (DDR3, DDR4): every ``tREFI`` the controller
  precharges the whole rank and issues REFab, stalling all banks for
  ``tRFC``.  This steals a fixed few percent of bandwidth — visible in
  the paper's optimized-mapping results, which top out around 92–96 %
  on DDR3/DDR4 with refresh enabled.
* **Per-bank refresh** (DDR5 REFsb, LPDDR4/LPDDR5 REFpb): banks are
  refreshed one at a time in round-robin order every per-bank interval;
  traffic to the other banks continues, so a mapping that spreads
  accesses over all banks hides refresh almost completely (the paper's
  ~100 % DDR5/LPDDR5 results).

The policy objects only decide *which* banks to quiesce and *when*; the
controller applies the timing.  Refresh can be disabled entirely, which
is legal whenever interleaver data lives shorter than the DRAM retention
period (32–64 ms) — the paper's ">99 % consistently" experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dram.presets import REFRESH_ALL_BANK, REFRESH_PER_BANK, DramConfig


@dataclass
class RefreshEvent:
    """One refresh decision handed to the controller.

    Attributes:
        deadline_ps: nominal time the refresh is due.
        banks: flat bank indices to quiesce (all banks for REFab).
        duration_ps: time the affected banks are unavailable (tRFC or
            tRFCpb).
    """

    deadline_ps: int
    banks: List[int]
    duration_ps: int


def check_interval(config: DramConfig, enabled: bool) -> None:
    """Reject a refresh interval no scheduler could ever leave.

    The engines call this when they are built, so a bad configuration
    fails before any phase runs.

    Raises:
        ValueError: when refresh is enabled and ``tREFI`` is not
            positive: every deadline would be due forever, and the
            engines would never leave their refresh loop.
    """
    if enabled and config.timing.trefi <= 0:
        raise ValueError("trefi must be positive when refresh is "
                         f"enabled, got {config.timing.trefi}")


class RefreshScheduler:
    """Generates the refresh event stream for one configuration.

    Args:
        config: the DRAM configuration (interval/duration/policy).
        enabled: when ``False``, :meth:`due` never fires.

    Raises:
        ValueError: as :func:`check_interval`.
    """

    def __init__(self, config: DramConfig, enabled: bool = True) -> None:
        check_interval(config, enabled)
        self.config = config
        self.enabled = enabled
        self._interval = config.timing.trefi
        self._next_deadline = self._interval
        self._rr_bank = 0
        if config.refresh_mode == REFRESH_PER_BANK:
            self._duration = config.timing.trfc_pb
        else:
            self._duration = config.timing.trfc

    @property
    def next_deadline_ps(self) -> Optional[int]:
        """Next refresh deadline, or ``None`` when refresh is disabled."""
        return self._next_deadline if self.enabled else None

    @property
    def interval_ps(self) -> int:
        """Spacing of consecutive deadlines (tREFI)."""
        return self._interval

    @property
    def duration_ps(self) -> int:
        """Time an event keeps its banks unavailable (tRFC or tRFCpb)."""
        return self._duration

    @property
    def next_bank(self) -> int:
        """Bank the next per-bank event refreshes (round-robin)."""
        return self._rr_bank

    def due(self, now_ps: int) -> Optional[RefreshEvent]:
        """Return the pending refresh event if one is due at ``now_ps``.

        Consumes the deadline: the caller must apply the event.  Call in
        a loop until ``None`` in case the simulation jumped over several
        intervals at once.
        """
        if not self.enabled or now_ps < self._next_deadline:
            return None
        deadline = self._next_deadline
        self._next_deadline += self._interval
        if self.config.refresh_mode == REFRESH_ALL_BANK:
            banks = list(range(self.config.geometry.banks))
        else:
            banks = [self._rr_bank]
            self._rr_bank = (self._rr_bank + 1) % self.config.geometry.banks
        return RefreshEvent(deadline_ps=deadline, banks=banks, duration_ps=self._duration)

    def overhead_bound(self) -> float:
        """Upper bound on the bandwidth fraction refresh can steal.

        For all-bank refresh this is ``tRFC / tREFI``; for per-bank
        refresh the same ratio applies per bank but is usually hidden by
        bank parallelism, so the bound is loose there.
        """
        if not self.enabled:
            return 0.0
        return self._duration / self._interval
