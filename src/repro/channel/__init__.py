"""Optical LEO downlink channel models (burst errors, FEC framing)."""

from __future__ import annotations

from repro.channel.burst_stats import (
    BurstProfile,
    FrameBurstArrays,
    burst_profile,
    burst_profiles_from_positions,
    codeword_failure_rate,
    dispersion_gain,
    errors_per_codeword,
    errors_per_codeword_frames,
    frame_burst_arrays,
    frame_burst_profiles,
    run_length_histogram,
    worst_window_errors,
)
from repro.channel.codeword import (
    CodewordConfig,
    DecodingReport,
    decode_mask,
    decode_masks,
    random_burst_tolerance,
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
    "burst_profiles_from_positions",
    "codeword_failure_rate",
    "coherence_params",
    "decode_mask",
    "decode_masks",
    "dispersion_gain",
    "errors_per_codeword",
    "errors_per_codeword_frames",
    "frame_burst_arrays",
    "frame_burst_profiles",
    "random_burst_tolerance",
    "report_from_counts",
    "report_from_tallies",
    "run_length_histogram",
    "worst_window_errors",
]
