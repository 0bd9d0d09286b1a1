"""repro — triangular block interleavers on DRAM for optical satellite links.

Reproduction of *"A Mapping of Triangular Block Interleavers to DRAM
for Optical Satellite Communication"* (DATE 2024): an event-driven
JEDEC DRAM channel simulator, the paper's optimized address mapping
(diagonal bank rotation + rectangular page tiling + bank-staggered
offset), the row-major baseline, the two-stage interleaver data path,
and the optical-downlink system context.

Quickstart::

    from repro import (TriangularIndexSpace, OptimizedMapping,
                       get_config, simulate_interleaver)

    config = get_config("DDR4-3200")
    space = TriangularIndexSpace(512)
    mapping = OptimizedMapping(space, config.geometry)
    result = simulate_interleaver(config, mapping)
    print(result.write_utilization, result.read_utilization)

Every package re-exports its names lazily (PEP 562): ``import repro``
loads no NumPy, and a name's defining module is imported at its first
access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.channel.codeword import CodewordConfig
    from repro.channel.gilbert_elliott import (
        GilbertElliottChannel,
        GilbertElliottParams,
        coherence_params,
    )
    from repro.dram.address import DramAddress
    from repro.dram.controller import ControllerConfig, MemoryController
    from repro.dram.geometry import Geometry
    from repro.dram.presets import (
        TABLE1_CONFIG_NAMES,
        DramConfig,
        all_configs,
        get_config,
    )
    from repro.dram.simulator import (
        InterleaverSimResult,
        simulate_interleaver,
        simulate_phase,
    )
    from repro.dram.stats import PhaseStats
    from repro.dram.timing import TimingParams
    from repro.interleaver.block import BlockInterleaver, TriangularInterleaver
    from repro.interleaver.triangular import (
        RectangularIndexSpace,
        TriangularIndexSpace,
        triangle_size_for_elements,
    )
    from repro.interleaver.two_stage import TwoStageConfig, TwoStageInterleaver
    from repro.mapping.analysis import profile_mapping
    from repro.mapping.base import InterleaverMapping
    from repro.mapping.optimized import OptimizedMapping
    from repro.mapping.row_major import RowMajorMapping
    from repro.mapping.validate import validate_mapping
    from repro.system.downlink import OpticalDownlink
    from repro.system.sweep import (
        format_e2e_table,
        format_energy_table,
        format_table1,
        run_e2e_table,
        run_energy_table,
        run_table1,
    )
    from repro.system.throughput import energy_pareto, provision, throughput_report

__version__ = "1.0.0"

__all__ = [
    "BlockInterleaver",
    "CodewordConfig",
    "ControllerConfig",
    "DramAddress",
    "DramConfig",
    "Geometry",
    "GilbertElliottChannel",
    "GilbertElliottParams",
    "InterleaverMapping",
    "InterleaverSimResult",
    "MemoryController",
    "OpticalDownlink",
    "OptimizedMapping",
    "PhaseStats",
    "RectangularIndexSpace",
    "RowMajorMapping",
    "TABLE1_CONFIG_NAMES",
    "TimingParams",
    "TriangularIndexSpace",
    "TriangularInterleaver",
    "TwoStageConfig",
    "TwoStageInterleaver",
    "all_configs",
    "coherence_params",
    "energy_pareto",
    "format_e2e_table",
    "format_energy_table",
    "format_table1",
    "get_config",
    "profile_mapping",
    "provision",
    "run_e2e_table",
    "run_energy_table",
    "run_table1",
    "simulate_interleaver",
    "simulate_phase",
    "throughput_report",
    "triangle_size_for_elements",
    "validate_mapping",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.channel.codeword": ("CodewordConfig",),
    "repro.channel.gilbert_elliott": (
        "GilbertElliottChannel", "GilbertElliottParams", "coherence_params"),
    "repro.dram.address": ("DramAddress",),
    "repro.dram.controller": ("ControllerConfig", "MemoryController"),
    "repro.dram.geometry": ("Geometry",),
    "repro.dram.presets": (
        "DramConfig", "TABLE1_CONFIG_NAMES", "all_configs", "get_config"),
    "repro.dram.simulator": (
        "InterleaverSimResult", "simulate_interleaver", "simulate_phase"),
    "repro.dram.stats": ("PhaseStats",),
    "repro.dram.timing": ("TimingParams",),
    "repro.interleaver.block": ("BlockInterleaver", "TriangularInterleaver"),
    "repro.interleaver.triangular": (
        "RectangularIndexSpace", "TriangularIndexSpace",
        "triangle_size_for_elements"),
    "repro.interleaver.two_stage": ("TwoStageConfig", "TwoStageInterleaver"),
    "repro.mapping.analysis": ("profile_mapping",),
    "repro.mapping.base": ("InterleaverMapping",),
    "repro.mapping.optimized": ("OptimizedMapping",),
    "repro.mapping.row_major": ("RowMajorMapping",),
    "repro.mapping.validate": ("validate_mapping",),
    "repro.system.downlink": ("OpticalDownlink",),
    "repro.system.sweep": (
        "format_e2e_table", "format_energy_table", "format_table1",
        "run_e2e_table", "run_energy_table", "run_table1"),
    "repro.system.throughput": (
        "energy_pareto", "provision", "throughput_report"),
})
