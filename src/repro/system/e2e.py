"""End-to-end downlink -> DRAM co-simulation (closing the paper's loop).

The paper's core claim is that a two-stage interleaver can be
deinterleaved *in DRAM* at line rate.  Before this module the
repository simulated the two halves of that claim in isolation: the
Gilbert-Elliott channel side (:mod:`repro.system.downlink`,
:mod:`repro.system.campaign`) measured code-word failure rates, while
the DRAM side (:mod:`repro.dram.simulator`) scheduled synthetic
full-phase address streams.  This module closes the loop:

* a :class:`FrameStreamSource` is a first-class
  :class:`~repro.dram.engine.WorkloadSource` that bridges interleaved
  frame *burst elements* to mapped DRAM addresses through the existing
  vectorized ``address_arrays`` path — every burst element the receiver
  stores (write phase, row-wise) or drains (read phase, column-wise)
  becomes one DRAM burst at the address the mapping assigns it;
* :func:`run_e2e` runs one joint cell — (channel params x interleaver
  geometry x DRAM configuration x mapping) — and returns channel
  code-word failure rates, DRAM utilization, frame energy, *and*
  per-frame write/read latencies from a single description.

``tests/system/test_e2e.py`` proves the batched path bit-identical to
a per-frame scalar oracle (``tests/oracles/e2e.py``: per-frame channel
loop, per-element address tuples, the general engine with recorded
commands).

Per-frame latency is defined as the *frame service time* on the data
bus: with ``completion[f]`` the end of the last data burst belonging to
frame ``f`` (monotonized, since the queue window may let a few requests
of frame ``f+1`` finish early), frame ``f``'s latency is
``completion[f] - completion[f-1]`` (``completion[-1] = 0``).  The sum
of the latencies is exactly the phase makespan, and a frame that a
refresh or a row-miss chain interrupts shows up as a tail-latency
outlier — the quantity :func:`latency_percentile_ps` summarizes.  The
production path schedules on the batch-advance kernel and folds the
latencies in NumPy from its per-request CAS issue times
(``EngineResult.cas_times``); no command objects are built.

Cells are declarative frozen dataclasses of primitives (the campaign
engine's design rules): they pickle cheaply, every worker rebuilds its
own simulator state from the cell alone, and results are bit-identical
for any ``--jobs`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.energy import (
    EnergyReport,
    combine_interleaver_reports,
    energy_from_stats,
)
from repro.dram.engine import Batch, WorkloadSource
from repro.dram.presets import DramConfig
from repro.dram.stats import PhaseStats
from repro.interleaver.triangular import DEFAULT_COORD_CHUNK
from repro.interleaver.two_stage import TwoStageConfig
from repro.mapping.base import InterleaverMapping
from repro.system.downlink import DownlinkResult, OpticalDownlink
from repro.system.parallel import _task_mapping


def _check_bridge(interleaver: TwoStageConfig,
                  mapping: InterleaverMapping) -> None:
    """Validate that a mapping can hold the interleaver's frames.

    Args:
        interleaver: two-stage interleaver dimensions.
        mapping: candidate DRAM address mapping.

    Raises:
        ValueError: when the mapping's index space does not hold exactly
            one burst element per frame element (a geometry/mapping size
            mismatch), or when the mapping needs more DRAM rows than the
            device has (via
            :meth:`~repro.mapping.base.InterleaverMapping.check_capacity`).
    """
    elements = interleaver.elements_per_frame
    cells = mapping.space.num_elements
    if elements != cells:
        raise ValueError(
            "interleaver frame and mapping index space disagree: "
            f"{elements} burst elements per frame (triangle_n="
            f"{interleaver.triangle_n}) vs {cells} mapped cells"
        )
    mapping.check_capacity()


class FrameStreamSource(WorkloadSource):
    """Interleaved frame streams as a DRAM engine workload source.

    The bridge at the heart of the co-simulation: one interleaver frame
    is ``interleaver.elements_per_frame`` burst elements, and storing
    (or draining) a frame means issuing exactly one DRAM burst per
    element at the address the mapping assigns it — row-wise traversal
    for the write phase (elements arrive in transmit order), column-wise
    for the read phase (elements leave in deinterleaved order).  The
    address stream of one frame is precomputed once through the
    mapping's vectorized ``address_arrays`` kernel and replayed per
    frame, so ``frames`` frames cost one address computation.

    The source honors the :class:`~repro.dram.engine.WorkloadSource`
    contract: batches concatenate to the exact per-frame request
    sequence in program order, and an empty stream (``frames == 0``)
    yields no batches at all.

    Args:
        mapping: interleaver-to-DRAM address mapping; its index space
            must hold exactly one cell per frame burst element.
        interleaver: two-stage interleaver dimensions (the frame
            geometry being bridged).
        frames: number of frames in the stream (``>= 0``).
        op: :data:`~repro.dram.controller.OP_WRITE` for the row-wise
            store traversal, :data:`~repro.dram.controller.OP_READ` for
            the column-wise drain traversal.

    Raises:
        ValueError: on a geometry/mapping size mismatch, a mapping that
            exceeds the device, a negative ``frames``, or an unknown
            ``op``.
    """

    def __init__(
        self,
        mapping: InterleaverMapping,
        interleaver: TwoStageConfig,
        frames: int,
        op: str = OP_WRITE,
    ) -> None:
        _check_bridge(interleaver, mapping)
        if frames < 0:
            raise ValueError(f"frames must be >= 0, got {frames}")
        if op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {op!r}")
        self.mapping = mapping
        self.interleaver = interleaver
        self.frames = frames
        self.op = op
        chunks = (mapping.write_addresses_array() if op == OP_WRITE
                  else mapping.read_addresses_array())
        self._frame = [np.concatenate(column) for column in zip(*chunks)]

    @property
    def elements_per_frame(self) -> int:
        """DRAM bursts issued per frame (one per burst element)."""
        return self.interleaver.elements_per_frame

    def batches(self) -> Iterator[Batch]:
        """Yield the frames back to back, in batches of whole frames.

        A batch holds as many frames as
        :data:`~repro.interleaver.triangular.DEFAULT_COORD_CHUNK`
        bursts allow, and at least one.
        """
        per_batch = max(1, DEFAULT_COORD_CHUNK // self.elements_per_frame)
        for start in range(0, self.frames, per_batch):
            count = min(per_batch, self.frames - start)
            banks, rows, cols = (np.tile(column, count)
                                 for column in self._frame)
            yield banks, rows, cols, None


def latency_percentile_ps(latencies: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of integer per-frame latencies.

    Nearest-rank (the value at index ``ceil(q/100 * n) - 1`` of the
    sorted sample) keeps the result an exact observed integer latency —
    no float interpolation, so percentiles are bit-stable across
    platforms and suitable for golden-file pins.

    Args:
        latencies: per-frame latencies in picoseconds (non-empty).
        q: percentile in ``(0, 100]``.

    Returns:
        The q-th percentile latency in picoseconds.

    Raises:
        ValueError: on an empty sample or a percentile outside
            ``(0, 100]``.
    """
    if not latencies:
        raise ValueError("latency percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(latencies)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True)
class E2ECell:
    """One joint co-simulation experiment.

    One coordinate of the full co-simulation cross product: a
    channel, an interleaver geometry, a code, a DRAM configuration and
    an address mapping, plus the seed and frame count that make the
    Monte Carlo side reproducible.  Like
    :class:`~repro.system.campaign.CampaignCell` the cell is a frozen
    dataclass of primitives — picklable, hashable, and the *only* input
    a worker process needs.

    Attributes:
        channel: Gilbert-Elliott fade statistics.
        interleaver: two-stage interleaver dimensions (``triangle_n``
            also fixes the DRAM-side index space).
        code: code-word length and correction radius.
        config_name: preset DRAM configuration name (see
            :mod:`repro.dram.presets`).
        mapping: mapping registry key (see
            :func:`repro.system.sweep.mapping_registry`).
        seed: RNG seed; the cell's entire channel randomness derives
            from it.
        frames: frames to co-simulate (``>= 1``).
        policy: optional controller policy overrides (picklable).
    """

    channel: GilbertElliottParams
    interleaver: TwoStageConfig
    code: CodewordConfig
    config_name: str
    mapping: str
    seed: int
    frames: int
    policy: Optional[ControllerConfig] = None

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")

    def execute(self) -> E2EResult:
        """Co-simulate the cell (see :func:`run_e2e`)."""
        return run_e2e(self)


@dataclass(frozen=True)
class E2EResult:
    """Joint outcome of one co-simulation cell.

    Every statistic the two halves of the system produce from one cell
    description: the channel/decoder comparison (interleaved vs
    baseline), both DRAM phase statistics with their energy accounting,
    and the per-frame latency samples.  Two results compare equal iff
    the underlying runs were identical — the differential battery and
    the ``--jobs`` determinism tests rely on that.

    Attributes:
        cell: the cell that produced this result.
        downlink: channel/decoder outcome over all frames (code-word
            failure rates with and without interleaving).
        write: DRAM write-phase statistics (frames stored).
        read: DRAM read-phase statistics (frames drained).
        write_latencies_ps: per-frame write service times, in frame
            order (see the module docstring for the definition).
        read_latencies_ps: per-frame read service times.
        energy: whole-frame energy report (write + read phases,
            payload counted once).
    """

    cell: E2ECell
    downlink: DownlinkResult
    write: PhaseStats
    read: PhaseStats
    write_latencies_ps: Tuple[int, ...]
    read_latencies_ps: Tuple[int, ...]
    energy: EnergyReport

    @property
    def cwer_interleaved(self) -> float:
        """Code-word failure rate with the two-stage interleaver."""
        return self.downlink.interleaved.codeword_error_rate

    @property
    def cwer_baseline(self) -> float:
        """Code-word failure rate without interleaving."""
        return self.downlink.baseline.codeword_error_rate

    @property
    def gain(self) -> float:
        """Failure-rate ratio baseline / interleaved (``inf`` = all rescued)."""
        return self.downlink.gain

    @property
    def write_utilization(self) -> float:
        """Data-bus utilization of the DRAM write phase."""
        return self.write.utilization

    @property
    def read_utilization(self) -> float:
        """Data-bus utilization of the DRAM read phase."""
        return self.read.utilization

    @property
    def min_utilization(self) -> float:
        """The throughput-limiting phase utilization."""
        return min(self.write.utilization, self.read.utilization)

    def write_latency_percentile(self, q: float) -> int:
        """Nearest-rank percentile of the per-frame write latencies (ps)."""
        return latency_percentile_ps(self.write_latencies_ps, q)

    def read_latency_percentile(self, q: float) -> int:
        """Nearest-rank percentile of the per-frame read latencies (ps)."""
        return latency_percentile_ps(self.read_latencies_ps, q)


def _fold_frame_latencies(cas_times: "np.ndarray[Any, Any]", frames: int,
                          elements_per_frame: int, config: DramConfig,
                          op: str) -> Tuple[int, ...]:
    """Per-frame service times from per-request CAS issue times.

    ``cas_times[k]`` is the issue time of the ``k``-th CAS the phase
    issued (recording stamps it ``request_id=k``; see
    ``EngineResult.cas_times``), and this fold cuts that column into
    consecutive blocks of ``elements_per_frame`` entries, one reshape
    and a row-wise maximum per block.  A block is a frame only if no
    request crosses a frame boundary in issue order, but the schedulers
    reorder requests across banks: a frame whose last request issues
    after its block ends is charged too early an end.
    ``TestFrameLatencyFold`` in ``tests/system/test_e2e.py`` recomputes
    the ends in stream order and is an expected failure until this
    fold does the same.
    """
    if frames == 0:
        return ()
    timing = config.timing
    latency = timing.cl if op == OP_READ else timing.cwl
    ends = cas_times.reshape(frames, elements_per_frame).max(axis=1)
    ends += latency + config.burst_duration_ps
    completion = np.maximum.accumulate(ends)
    return tuple(np.diff(completion, prepend=0).tolist())


def _check_frame_bursts(stats: PhaseStats, frames: int,
                        elements_per_frame: int) -> None:
    """Fail loudly when a frame stream scheduled the wrong burst count."""
    if stats.requests != frames * elements_per_frame:
        raise RuntimeError(
            f"frame stream scheduled {stats.requests} bursts, "
            f"expected {frames} frames x {elements_per_frame} elements"
        )


def _run_dram_phase(config: DramConfig, policy: ControllerConfig,
                    source: WorkloadSource, frames: int,
                    elements_per_frame: int,
                    op: str) -> Tuple[PhaseStats, Tuple[int, ...]]:
    """Schedule one co-simulation phase and extract per-frame latencies.

    A fresh engine per phase (the paper's cold-start semantics, like
    :func:`repro.dram.simulator.simulate_interleaver`).  The kernel
    hands back one CAS issue time per request — natively, or from the
    general engine when it falls back — and
    :func:`_fold_frame_latencies` turns them into frame latencies.
    """
    # Imported on first use, keeping the kernel module out of the
    # package's import time.
    from repro.dram.kernel import KernelEngine

    result = KernelEngine(config, policy).run(source, op=op, cas_times=True)
    _check_frame_bursts(result.stats, frames, elements_per_frame)
    assert result.cas_times is not None  # requested above
    latencies = _fold_frame_latencies(result.cas_times, frames,
                                      elements_per_frame, config, op)
    return result.stats, latencies


def _finalize(cell: E2ECell, downlink_outcome: DownlinkResult,
              write: PhaseStats, write_lat: Tuple[int, ...],
              read: PhaseStats, read_lat: Tuple[int, ...],
              config: DramConfig) -> E2EResult:
    """Assemble the joint result from its downlink and DRAM halves.

    :func:`run_e2e` and the scalar oracle in ``tests/oracles/e2e.py``
    both finish through it.
    """
    write_energy = energy_from_stats(config, write)
    read_energy = energy_from_stats(config, read)
    return E2EResult(
        cell=cell,
        downlink=downlink_outcome,
        write=write,
        read=read,
        write_latencies_ps=write_lat,
        read_latencies_ps=read_lat,
        energy=combine_interleaver_reports(write_energy, read_energy),
    )


def run_e2e(cell: E2ECell) -> E2EResult:
    """Run one joint co-simulation cell (also the worker entry point).

    The production path: the channel side runs through
    :meth:`~repro.system.downlink.OpticalDownlink.run_batched` (frame
    blocks, sparse position decode), and the DRAM side feeds both
    phase traversals through :class:`FrameStreamSource` — the batched
    frame -> address bridge.  Bit-identical to the per-frame scalar
    oracle (differential-tested in ``tests/system/test_e2e.py``).

    Args:
        cell: the joint experiment description.

    Returns:
        The complete :class:`E2EResult`.

    Raises:
        KeyError: on an unknown DRAM configuration or mapping key.
        ValueError: on inconsistent channel/interleaver/code dimensions
            or a mapping that exceeds the device.
    """
    downlink = OpticalDownlink(
        cell.interleaver, cell.code, cell.channel,
        rng=np.random.default_rng(cell.seed),
    )
    outcome = downlink.run_batched(cell.frames)
    config, mapping = _task_mapping(cell.mapping, cell.config_name,
                                    cell.interleaver.triangle_n)
    policy = cell.policy or ControllerConfig()
    elements = cell.interleaver.elements_per_frame
    write, write_lat = _run_dram_phase(
        config, policy,
        FrameStreamSource(mapping, cell.interleaver, cell.frames, OP_WRITE),
        cell.frames, elements, OP_WRITE)
    read, read_lat = _run_dram_phase(
        config, policy,
        FrameStreamSource(mapping, cell.interleaver, cell.frames, OP_READ),
        cell.frames, elements, OP_READ)
    return _finalize(cell, outcome, write, write_lat, read, read_lat, config)
