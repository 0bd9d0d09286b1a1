"""DRAM command vocabulary and scheduled-command records.

The controller's output is a time-ordered list of
:class:`ScheduledCommand` entries — the same information a cycle-
accurate simulator would drive onto the command bus.  Tests replay
these records to check that every JEDEC constraint was honored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CommandType(enum.Enum):
    """Commands the controller can issue."""

    ACT = "ACT"            #: activate a row (open the page)
    PRE = "PRE"            #: precharge (close the page)
    RD = "RD"              #: burst read from the open page
    WR = "WR"              #: burst write to the open page
    REF_ALL = "REFab"      #: all-bank refresh
    REF_BANK = "REFpb"     #: per-bank / same-bank refresh


#: Command types that move data over the bus.
CAS_COMMANDS = (CommandType.RD, CommandType.WR)


@dataclass(frozen=True)
class ScheduledCommand:
    """One command placed on the command bus.

    Attributes:
        time_ps: issue time on the command-clock grid.
        command: the command type.
        bank: flat bank index (``-1`` for all-bank refresh).
        row: row address (``-1`` when not applicable).
        column: burst-granular column address (``-1`` when not applicable).
        request_id: issue index of a RD/WR command: the number of CAS
            commands the phase issued before it.  Not the request's
            position in the stream, which the scheduler reorders across
            banks (``-1`` for ACT, PRE and refresh).
    """

    time_ps: int
    command: CommandType
    bank: int = -1
    row: int = -1
    column: int = -1
    request_id: int = -1

    def __post_init__(self) -> None:
        if self.time_ps < 0:
            raise ValueError(f"command time must be non-negative, got {self.time_ps}")

    @property
    def moves_data(self) -> bool:
        """Whether this command occupies the data bus."""
        return self.command in CAS_COMMANDS

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        parts = [f"{self.time_ps:>12d} ps  {self.command.value:<6s}"]
        if self.bank >= 0:
            parts.append(f"bank={self.bank}")
        if self.row >= 0:
            parts.append(f"row={self.row}")
        if self.column >= 0:
            parts.append(f"col={self.column}")
        return " ".join(parts)
