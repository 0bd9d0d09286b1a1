"""High-level simulation entry points.

Glues together an interleaver index space, an address mapping and the
scheduler, and returns the per-phase bandwidth utilizations that the
paper's Table I reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, EngineResult
from repro.dram.presets import DramConfig
from repro.dram.stats import PhaseStats, min_phase_utilization
from repro.mapping.base import AddressArrays, InterleaverMapping


@dataclass(frozen=True)
class InterleaverSimResult:
    """Write- and read-phase outcome for one (config, mapping) pair.

    Attributes:
        config_name: DRAM configuration name (e.g. ``"DDR4-3200"``).
        mapping_name: mapping identifier (``"row-major"``/``"optimized"``).
        write: write-phase statistics.
        read: read-phase statistics.
    """

    config_name: str
    mapping_name: str
    write: PhaseStats
    read: PhaseStats

    @property
    def write_utilization(self) -> float:
        """Data-bus utilization of the write phase."""
        return self.write.utilization

    @property
    def read_utilization(self) -> float:
        """Data-bus utilization of the read phase."""
        return self.read.utilization

    @property
    def min_utilization(self) -> float:
        """The throughput-limiting utilization (paper, Sec. III)."""
        return min_phase_utilization(self.write, self.read)

    def effective_bandwidth_bytes_per_s(self, config: DramConfig) -> float:
        """Sustained interleaver bandwidth on this configuration."""
        return self.min_utilization * config.peak_bandwidth_bytes_per_s


def phase_addresses(mapping: InterleaverMapping,
                    op: str) -> Iterator[AddressArrays]:
    """A phase's traversal of ``mapping`` as columnar address chunks.

    Writes traverse row-wise
    (:meth:`~repro.mapping.base.InterleaverMapping.write_addresses_array`),
    reads column-wise
    (:meth:`~repro.mapping.base.InterleaverMapping.read_addresses_array`).
    """
    return (mapping.write_addresses_array() if op == OP_WRITE
            else mapping.read_addresses_array())


def simulate_phase(
    config: DramConfig,
    mapping: InterleaverMapping,
    op: str,
    policy: Optional[ControllerConfig] = None,
) -> EngineResult:
    """Simulate a single write or read phase.

    The mapping's columnar address chunks (:func:`phase_addresses`)
    feed the scheduler's front door,
    :class:`~repro.dram.kernel.KernelEngine`, as a
    :class:`~repro.dram.engine.ChunkSource`.  A mapping without a NumPy
    kernel still works, through the base class's per-element
    :meth:`~repro.mapping.base.InterleaverMapping.address_arrays`.

    With ``policy.record_commands`` set the result carries every
    scheduled command, ready for the independent JEDEC replay checker
    (:mod:`repro.dram.trace`) — the integration tests replay one
    recorded run per Table I (config, mapping) pair.

    Args:
        config: DRAM configuration to simulate.
        mapping: interleaver-to-DRAM address mapping.
        op: :data:`~repro.dram.controller.OP_WRITE` or
            :data:`~repro.dram.controller.OP_READ`; selects both the
            command type and the traversal order (writes are row-wise,
            reads column-wise).
        policy: controller policy overrides.

    Raises:
        ValueError: on any other ``op``.
    """
    # Imported on first use, keeping the kernel module out of the
    # package's import time.
    from repro.dram.kernel import KernelEngine

    return KernelEngine(config, policy or ControllerConfig()).run(
        ChunkSource(phase_addresses(mapping, op)), op)


def simulate_interleaver(
    config: DramConfig,
    mapping: InterleaverMapping,
    policy: Optional[ControllerConfig] = None,
) -> InterleaverSimResult:
    """Simulate both phases of one interleaver frame (Table I cell pair)."""
    return InterleaverSimResult(
        config_name=config.name,
        mapping_name=mapping.name,
        write=simulate_phase(config, mapping, OP_WRITE, policy).stats,
        read=simulate_phase(config, mapping, OP_READ, policy).stats,
    )
