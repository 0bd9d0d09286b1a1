"""Scalar per-command energy recount: the readable energy oracle.

:func:`energy_from_commands_reference` recounts a recorded command list
one command at a time and prices the counts with the model's own
arithmetic.  The energy battery
(``tests/dram/test_energy_differential.py``) holds the engine's
zero-cost tally (:func:`repro.dram.energy.energy_from_tally`, the one
production path) exactly equal to it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.dram.commands import CommandType, ScheduledCommand
from repro.dram.energy import (EnergyParams, EnergyReport, _build_report,
                               energy_params_for)
from repro.dram.presets import DramConfig


def energy_from_commands_reference(
    config: DramConfig,
    commands: Iterable[ScheduledCommand],
    params: Optional[EnergyParams] = None,
) -> EnergyReport:
    """Scalar per-command recount of a recorded command stream."""
    params = params or energy_params_for(config)
    timing = config.timing
    burst = config.burst_duration_ps
    act = rd = wr = ref = 0
    makespan = 0
    for command in commands:
        kind = command.command
        if kind is CommandType.RD:
            rd += 1
            end = command.time_ps + timing.cl + burst
            if end > makespan:
                makespan = end
        elif kind is CommandType.WR:
            wr += 1
            end = command.time_ps + timing.cwl + burst
            if end > makespan:
                makespan = end
        elif kind is CommandType.ACT:
            act += 1
        elif kind is CommandType.REF_ALL or kind is CommandType.REF_BANK:
            ref += 1
    return _build_report(config, params, act_pre=act, rd=rd, wr=wr, ref=ref,
                         makespan_ps=makespan)
