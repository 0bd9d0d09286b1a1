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

__all__ = [
    "AddressTuple",
    "InterleaverMapping",
    "MappingProfile",
    "OptimizedMapping",
    "PatternMetrics",
    "RowMajorMapping",
    "TileGeometry",
    "ValidationReport",
    "analyze_pattern",
    "assert_valid",
    "balanced_tile",
    "miss_clustering",
    "profile_mapping",
    "row_strip_tile",
    "tiles_covering",
    "validate_mapping",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.mapping.analysis": (
        "MappingProfile", "PatternMetrics", "analyze_pattern",
        "miss_clustering", "profile_mapping"),
    "repro.mapping.base": ("AddressTuple", "InterleaverMapping"),
    "repro.mapping.optimized": ("OptimizedMapping",),
    "repro.mapping.row_major": ("RowMajorMapping",),
    "repro.mapping.tiling": (
        "TileGeometry", "balanced_tile", "row_strip_tile", "tiles_covering"),
    "repro.mapping.validate": (
        "ValidationReport", "assert_valid", "validate_mapping"),
})
