"""Cycle-accurate-equivalent DRAM channel model (DRAMSys substitute).

Public surface:

* :class:`~repro.dram.presets.DramConfig` and
  :func:`~repro.dram.presets.get_config` /
  :func:`~repro.dram.presets.all_configs` — the ten Table I devices;
* :class:`~repro.dram.kernel.KernelEngine` /
  :class:`~repro.dram.controller.ControllerConfig` — the scheduler;
* :func:`~repro.dram.simulator.simulate_interleaver` — one-call
  write+read phase simulation;
* :class:`~repro.dram.address.DramAddress`,
  :class:`~repro.dram.address.LinearDecoder` — addressing;
* :class:`~repro.dram.stats.PhaseStats` — results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.dram.address import DramAddress, LinearDecoder
    from repro.dram.commands import CommandType, ScheduledCommand
    from repro.dram.energy import (
        EnergyParams,
        EnergyReport,
        combine_interleaver_reports,
        energy_from_tally,
        energy_params_for,
        refresh_command_energy_pj,
    )
    from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
    from repro.dram.engine import (
        ChunkSource,
        EngineResult,
        MixedSource,
        SchedulingEngine,
        TraceReplaySource,
        TupleSource,
        WorkloadSource,
    )
    from repro.dram.geometry import Geometry
    from repro.dram.presets import (
        REFRESH_ALL_BANK,
        REFRESH_PER_BANK,
        TABLE1_CONFIG_NAMES,
        DramConfig,
        all_configs,
        get_config,
    )
    from repro.dram.mixed import (
        MixedResult,
        RowShiftedMapping,
        interleaved_stream,
        run_mixed_phase,
        steady_state_interleaver,
    )
    from repro.dram.refresh import RefreshEvent, RefreshScheduler
    from repro.dram.simulator import (
        InterleaverSimResult,
        simulate_interleaver,
        simulate_phase,
    )
    from repro.dram.stats import EnergyTally, PhaseStats, min_phase_utilization
    from repro.dram.timing import TimingParams, from_datasheet
    from repro.dram.trace import TraceChecker, Violation, check_phase_commands, read_trace, write_trace

__all__ = [
    "ChunkSource",
    "CommandType",
    "ControllerConfig",
    "DramAddress",
    "DramConfig",
    "EngineResult",
    "EnergyParams",
    "EnergyReport",
    "EnergyTally",
    "Geometry",
    "InterleaverSimResult",
    "LinearDecoder",
    "MixedResult",
    "MixedSource",
    "OP_READ",
    "OP_WRITE",
    "SchedulingEngine",
    "TraceReplaySource",
    "TupleSource",
    "WorkloadSource",
    "PhaseStats",
    "REFRESH_ALL_BANK",
    "REFRESH_PER_BANK",
    "RefreshEvent",
    "RefreshScheduler",
    "RowShiftedMapping",
    "ScheduledCommand",
    "TABLE1_CONFIG_NAMES",
    "TimingParams",
    "TraceChecker",
    "Violation",
    "all_configs",
    "check_phase_commands",
    "combine_interleaver_reports",
    "energy_from_tally",
    "energy_params_for",
    "refresh_command_energy_pj",
    "interleaved_stream",
    "from_datasheet",
    "get_config",
    "min_phase_utilization",
    "simulate_interleaver",
    "read_trace",
    "run_mixed_phase",
    "steady_state_interleaver",
    "simulate_phase",
    "write_trace",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.dram.address": ("DramAddress", "LinearDecoder"),
    "repro.dram.commands": ("CommandType", "ScheduledCommand"),
    "repro.dram.energy": (
        "EnergyParams", "EnergyReport", "combine_interleaver_reports",
        "energy_from_tally", "energy_params_for",
        "refresh_command_energy_pj"),
    "repro.dram.controller": ("OP_READ", "OP_WRITE", "ControllerConfig"),
    "repro.dram.engine": (
        "ChunkSource", "EngineResult", "MixedSource", "SchedulingEngine",
        "TraceReplaySource", "TupleSource", "WorkloadSource"),
    "repro.dram.geometry": ("Geometry",),
    "repro.dram.presets": (
        "REFRESH_ALL_BANK", "REFRESH_PER_BANK", "TABLE1_CONFIG_NAMES",
        "DramConfig", "all_configs", "get_config"),
    "repro.dram.mixed": (
        "MixedResult", "RowShiftedMapping", "interleaved_stream",
        "run_mixed_phase", "steady_state_interleaver"),
    "repro.dram.refresh": ("RefreshEvent", "RefreshScheduler"),
    "repro.dram.simulator": (
        "InterleaverSimResult", "simulate_interleaver", "simulate_phase"),
    "repro.dram.stats": ("EnergyTally", "PhaseStats", "min_phase_utilization"),
    "repro.dram.timing": ("TimingParams", "from_datasheet"),
    "repro.dram.trace": (
        "TraceChecker", "Violation", "check_phase_commands", "read_trace",
        "write_trace"),
})
