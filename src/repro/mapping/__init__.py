"""Interleaver-to-DRAM address mappings (the paper's contribution)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.mapping.analysis import (
        MappingProfile,
        PatternMetrics,
        analyze_pattern,
        miss_clustering,
        profile_mapping,
    )
    from repro.mapping.base import AddressTuple, InterleaverMapping
    from repro.mapping.optimized import OptimizedMapping
    from repro.mapping.row_major import RowMajorMapping
    from repro.mapping.tiling import TileGeometry, balanced_tile, row_strip_tile, tiles_covering
    from repro.mapping.validate import ValidationReport, assert_valid, validate_mapping

__getattr__, __dir__ = attach(__name__, __file__)
