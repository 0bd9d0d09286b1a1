"""Cycle-accurate-equivalent DRAM channel model (DRAMSys substitute).

Public surface:

* :class:`~repro.dram.presets.DramConfig` and
  :func:`~repro.dram.presets.get_config` /
  :func:`~repro.dram.presets.all_configs` — the ten Table I devices;
* :class:`~repro.dram.controller.MemoryController` /
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
        command_arrays,
        energy_from_commands,
        energy_from_tally,
        energy_params_for,
        interleaver_energy,
        phase_energy,
        refresh_command_energy_pj,
    )
    from repro.dram.controller import (
        OP_READ,
        OP_WRITE,
        ControllerConfig,
        MemoryController,
        PhaseResult,
    )
    from repro.dram.engine import (
        ChunkSource,
        EngineResult,
        MixedSource,
        SchedulingEngine,
        TraceReplaySource,
        TupleSource,
        WorkloadSource,
        as_workload,
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
        simulate_phase_result,
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
    "MemoryController",
    "MixedResult",
    "MixedSource",
    "OP_READ",
    "OP_WRITE",
    "PhaseResult",
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
    "as_workload",
    "check_phase_commands",
    "combine_interleaver_reports",
    "command_arrays",
    "energy_from_commands",
    "energy_from_tally",
    "energy_params_for",
    "refresh_command_energy_pj",
    "interleaved_stream",
    "interleaver_energy",
    "from_datasheet",
    "get_config",
    "min_phase_utilization",
    "phase_energy",
    "simulate_interleaver",
    "read_trace",
    "run_mixed_phase",
    "steady_state_interleaver",
    "simulate_phase",
    "simulate_phase_result",
    "write_trace",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.dram.address": ("DramAddress", "LinearDecoder"),
    "repro.dram.commands": ("CommandType", "ScheduledCommand"),
    "repro.dram.energy": (
        "EnergyParams", "EnergyReport", "combine_interleaver_reports",
        "command_arrays", "energy_from_commands", "energy_from_tally",
        "energy_params_for", "interleaver_energy", "phase_energy",
        "refresh_command_energy_pj"),
    "repro.dram.controller": (
        "OP_READ", "OP_WRITE", "ControllerConfig", "MemoryController",
        "PhaseResult"),
    "repro.dram.engine": (
        "ChunkSource", "EngineResult", "MixedSource", "SchedulingEngine",
        "TraceReplaySource", "TupleSource", "WorkloadSource", "as_workload"),
    "repro.dram.geometry": ("Geometry",),
    "repro.dram.presets": (
        "REFRESH_ALL_BANK", "REFRESH_PER_BANK", "TABLE1_CONFIG_NAMES",
        "DramConfig", "all_configs", "get_config"),
    "repro.dram.mixed": (
        "MixedResult", "RowShiftedMapping", "interleaved_stream",
        "run_mixed_phase", "steady_state_interleaver"),
    "repro.dram.refresh": ("RefreshEvent", "RefreshScheduler"),
    "repro.dram.simulator": (
        "InterleaverSimResult", "simulate_interleaver", "simulate_phase",
        "simulate_phase_result"),
    "repro.dram.stats": ("EnergyTally", "PhaseStats", "min_phase_utilization"),
    "repro.dram.timing": ("TimingParams", "from_datasheet"),
    "repro.dram.trace": (
        "TraceChecker", "Violation", "check_phase_commands", "read_trace",
        "write_trace"),
})
