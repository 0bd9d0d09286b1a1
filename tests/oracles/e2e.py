"""Per-frame scalar oracle of the end-to-end co-simulation.

:func:`run_e2e_reference` runs element by element everything
:func:`repro.system.e2e.run_e2e` vectorizes: the per-frame channel
loop, per-element address tuples through a
:class:`~repro.dram.engine.TupleSource`, and the general engine with
commands recorded, scanned into frame latencies.  The e2e battery
(``tests/system/test_e2e.py``) and ``benchmarks/bench_e2e.py`` pin the
batched bridge against it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.dram.commands import ScheduledCommand
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import SchedulingEngine, TupleSource, WorkloadSource
from repro.dram.presets import DramConfig
from repro.dram.stats import PhaseStats
from repro.mapping.base import InterleaverMapping
from repro.system.downlink import OpticalDownlink
from repro.system.e2e import (E2ECell, E2EResult, _check_bridge,
                              _check_frame_bursts, _finalize)
from repro.system.parallel import _task_mapping


def _frame_tuple_requests(mapping: InterleaverMapping, frames: int,
                          op: str) -> Iterator[Tuple[int, int, int]]:
    """Per-frame, per-element scalar address stream.

    Yields the exact request sequence of a same-parameter
    :class:`~repro.system.e2e.FrameStreamSource`, one
    ``(bank, row, column)`` tuple at a time from scalar
    :meth:`~repro.mapping.base.InterleaverMapping.address_tuple` calls.
    """
    for _ in range(frames):
        if op == OP_WRITE:
            yield from mapping.write_addresses()
        else:
            yield from mapping.read_addresses()


def _frame_latencies(commands: Sequence[ScheduledCommand], frames: int,
                     elements_per_frame: int, config: DramConfig,
                     op: str) -> Tuple[int, ...]:
    """Per-frame service times from a recorded homogeneous schedule.

    With ``record_commands`` the engine stamps every RD/WR with its
    sequential ``request_id``; request ``r`` belongs to frame
    ``r // elements_per_frame``.  CAS latency plus burst duration turn
    issue slots into data-end times; the latencies sum to the phase
    makespan.
    """
    if frames == 0:
        return ()
    timing = config.timing
    latency = timing.cl if op == OP_READ else timing.cwl
    burst = config.burst_duration_ps
    times = []
    ids = []
    for command in commands:
        if command.moves_data:
            times.append(command.time_ps)
            ids.append(command.request_id)
    ends = np.asarray(times, dtype=np.int64) + latency + burst
    frame_of = np.asarray(ids, dtype=np.int64) // elements_per_frame
    completion = np.zeros(frames, dtype=np.int64)
    np.maximum.at(completion, frame_of, ends)
    np.maximum.accumulate(completion, out=completion)
    return tuple(np.diff(completion, prepend=0).tolist())


def run_dram_phase_reference(
        config: DramConfig, policy: ControllerConfig, source: WorkloadSource,
        frames: int, elements_per_frame: int,
        op: str) -> Tuple[PhaseStats, Tuple[int, ...]]:
    """Oracle twin of :func:`repro.system.e2e._run_dram_phase`.

    Schedules on the general engine with commands recorded and scans
    them with :func:`_frame_latencies`; recording leaves the returned
    :class:`~repro.dram.stats.PhaseStats` untouched (proven
    stats-invariant in ``tests/dram/test_energy_properties.py``).
    """
    engine = SchedulingEngine(config, replace(policy, record_commands=True))
    result = engine.run(source, op=op)
    _check_frame_bursts(result.stats, frames, elements_per_frame)
    latencies = _frame_latencies(result.commands, frames, elements_per_frame,
                                 config, op)
    return result.stats, latencies


def run_e2e_reference(cell: E2ECell) -> E2EResult:
    """Per-frame scalar oracle of :func:`repro.system.e2e.run_e2e`.

    Returns an :class:`~repro.system.e2e.E2EResult` that must compare
    equal to ``run_e2e(cell)``.
    """
    downlink = OpticalDownlink(
        cell.interleaver, cell.code, cell.channel,
        rng=np.random.default_rng(cell.seed),
    )
    outcome = downlink.run(cell.frames)
    config, mapping = _task_mapping(cell.mapping, cell.config_name,
                                    cell.interleaver.triangle_n)
    _check_bridge(cell.interleaver, mapping)
    policy = cell.policy or ControllerConfig()
    elements = cell.interleaver.elements_per_frame
    write, write_lat = run_dram_phase_reference(
        config, policy,
        TupleSource(_frame_tuple_requests(mapping, cell.frames, OP_WRITE)),
        cell.frames, elements, OP_WRITE)
    read, read_lat = run_dram_phase_reference(
        config, policy,
        TupleSource(_frame_tuple_requests(mapping, cell.frames, OP_READ)),
        cell.frames, elements, OP_READ)
    return _finalize(cell, outcome, write, write_lat, read, read_lat, config)
