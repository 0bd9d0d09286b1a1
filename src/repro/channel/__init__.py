"""Optical LEO downlink channel models (burst errors, FEC framing)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.channel.burst_stats import (
        BurstProfile,
        FrameBurstArrays,
        burst_profile,
        errors_per_codeword,
        frame_burst_arrays,
    )
    from repro.channel.codeword import (
        CodewordConfig,
        DecodingReport,
        decode_mask,
        report_from_counts,
        report_from_tallies,
    )
    from repro.channel.gilbert_elliott import (
        BAD,
        GOOD,
        GilbertElliottChannel,
        GilbertElliottParams,
        coherence_params,
    )

__all__ = [
    "BAD",
    "BurstProfile",
    "FrameBurstArrays",
    "CodewordConfig",
    "DecodingReport",
    "GOOD",
    "GilbertElliottChannel",
    "GilbertElliottParams",
    "burst_profile",
    "coherence_params",
    "decode_mask",
    "errors_per_codeword",
    "frame_burst_arrays",
    "report_from_counts",
    "report_from_tallies",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.channel.burst_stats": (
        "BurstProfile", "FrameBurstArrays", "burst_profile",
        "errors_per_codeword", "frame_burst_arrays"),
    "repro.channel.codeword": (
        "CodewordConfig", "DecodingReport", "decode_mask",
        "report_from_counts", "report_from_tallies"),
    "repro.channel.gilbert_elliott": (
        "BAD", "GOOD", "GilbertElliottChannel", "GilbertElliottParams",
        "coherence_params"),
})
