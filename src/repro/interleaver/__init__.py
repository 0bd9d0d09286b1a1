"""Functional interleaver implementations (index math and data paths)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.interleaver.triangular import (
        RectangularIndexSpace,
        TriangularIndexSpace,
        interleaver_delay,
        triangle_size_for_elements,
    )

__getattr__, __dir__ = attach(__name__, __file__)
