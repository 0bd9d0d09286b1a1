"""End-to-end optical LEO downlink simulation (the paper's Sec. I context).

Pipeline per frame::

    payload symbols
      -> two-stage interleaver (SRAM block + triangular DRAM stage)
      -> Gilbert-Elliott burst channel
      -> deinterleaver
      -> bounded-distance decoder (t symbol errors per code word)

The simulation demonstrates the interleaver's purpose: at the same
average symbol error rate, the burst channel destroys many code words
when symbols are transmitted in order, while the triangular interleaver
spreads each fade over many code words and keeps the per-word error
count below the correction radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
from repro.channel.gilbert_elliott import GilbertElliottChannel, GilbertElliottParams
from repro.interleaver.two_stage import TwoStageConfig, cached_interleaver


def check_dimensions(interleaver: TwoStageConfig,
                     code: CodewordConfig) -> None:
    """Fail fast when interleaver grouping and code length disagree.

    :class:`OpticalDownlink` makes this check, and every campaign cell
    repeats it at construction, so a bad grid dies with a field-naming
    error before any worker is spawned.
    """
    if interleaver.codeword_symbols != code.n_symbols:
        raise ValueError(
            "interleaver.codeword_symbols and code.n_symbols disagree: "
            f"{interleaver.codeword_symbols} vs {code.n_symbols}")


def gain_ratio(baseline: float, interleaved: float) -> float:
    """Interleaving gain: the failure ratio baseline / interleaved.

    ``inf`` when only the baseline fails (the interleaver rescued every
    failure) and 1 when neither arm fails.  Either argument may be a
    failure count or rate, as long as both are the same kind.
    """
    if interleaved == 0:
        return 1.0 if baseline == 0 else float("inf")
    return baseline / interleaved


def format_gain(gain: float) -> str:
    """Gain column text (``inf`` = every baseline failure rescued)."""
    return "inf" if math.isinf(gain) else f"{gain:.1f}x"


@dataclass(frozen=True)
class DownlinkResult:
    """Per-run comparison of interleaved vs. uninterleaved transmission.

    Attributes:
        channel_profile: burstiness of the raw channel mask.
        interleaved: decoding outcome with the two-stage interleaver.
        baseline: decoding outcome without any interleaving.
        max_errors_interleaved: worst per-code-word error count with
            interleaving.
        max_errors_baseline: worst per-code-word error count without.
    """

    channel_profile: BurstProfile
    interleaved: DecodingReport
    baseline: DecodingReport
    max_errors_interleaved: int
    max_errors_baseline: int

    @property
    def gain(self) -> float:
        """Code-word failure-rate ratio baseline / interleaved."""
        return gain_ratio(self.baseline.codeword_error_rate,
                          self.interleaved.codeword_error_rate)


def merge_burst_profiles(profiles: Sequence[BurstProfile]) -> BurstProfile:
    """Aggregate per-frame burst profiles the way :meth:`OpticalDownlink.run` does."""
    return BurstProfile(
        total_symbols=sum(p.total_symbols for p in profiles),
        error_symbols=sum(p.error_symbols for p in profiles),
        burst_count=sum(p.burst_count for p in profiles),
        max_burst=max(p.max_burst for p in profiles),
        mean_burst=float(
            np.mean([p.mean_burst for p in profiles if p.burst_count])
        ) if any(p.burst_count for p in profiles) else 0.0,
    )


def merge_decoding_reports(reports: Sequence[DecodingReport]) -> DecodingReport:
    """Sum per-frame decoding outcomes into one aggregate report."""
    return DecodingReport(
        codewords=sum(r.codewords for r in reports),
        failed=sum(r.failed for r in reports),
        corrected_symbols=sum(r.corrected_symbols for r in reports),
        residual_symbol_errors=sum(r.residual_symbol_errors for r in reports),
    )


def _merge_burst_arrays(bursts: Sequence[FrameBurstArrays],
                        symbols: int) -> BurstProfile:
    """Aggregate chunked :class:`FrameBurstArrays` like :func:`merge_burst_profiles`.

    Bit-identical to expanding every chunk to per-frame
    :class:`BurstProfile` objects and merging those: the mean-burst
    average runs over the same per-frame float64 values in the same
    frame order.
    """
    burst_counts = np.concatenate([b.burst_counts for b in bursts])
    mean_lengths = np.concatenate([b.mean_lengths for b in bursts])
    with_bursts = burst_counts > 0
    return BurstProfile(
        total_symbols=symbols * int(burst_counts.size),
        error_symbols=int(sum(int(b.error_counts.sum()) for b in bursts)),
        burst_count=int(burst_counts.sum()),
        max_burst=int(max(int(b.max_lengths.max(initial=0)) for b in bursts)),
        mean_burst=float(np.mean(mean_lengths[with_bursts]))
        if with_bursts.any() else 0.0,
    )


class OpticalDownlink:
    """Frame-based downlink simulator.

    Args:
        interleaver_config: two-stage interleaver dimensions.
        code: code-word length and correction radius.
        channel_params: Gilbert–Elliott fade statistics.
        rng: optional generator for reproducible runs.
    """

    def __init__(
        self,
        interleaver_config: TwoStageConfig,
        code: CodewordConfig,
        channel_params: GilbertElliottParams,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        check_dimensions(interleaver_config, code)
        # Channel position s lands at payload position perm[s] (the
        # receiver applies the inverse permutation), hence in payload
        # code word perm[s] // codeword_symbols.
        self.interleaver, self._word_of = cached_interleaver(
            interleaver_config)
        self.code = code
        self.channel = GilbertElliottChannel(channel_params, rng)

    def run_frame(self) -> DownlinkResult:
        """Transmit one frame and compare with the uninterleaved baseline.

        Error propagation is tracked through the permutation directly
        (a mask permutes exactly like the payload), so the result is
        exact for any symbol alphabet.
        """
        frame_symbols = self.interleaver.frame_symbols
        channel_mask = self.channel.error_mask(frame_symbols)

        # Interleaved path: the transmitted stream is a permutation of
        # the payload; the channel corrupts transmit positions, and the
        # receiver's deinterleaver maps the mask back to payload order.
        mask_int = channel_mask.astype(np.uint8)
        payload_order_mask = self.interleaver.deinterleave(mask_int).astype(bool)
        interleaved = decode_mask(payload_order_mask, self.code)

        # Baseline: payload transmitted in order.
        baseline = decode_mask(channel_mask, self.code)

        per_word_int = errors_per_codeword(payload_order_mask, self.code.n_symbols)
        per_word_base = errors_per_codeword(channel_mask, self.code.n_symbols)
        return DownlinkResult(
            channel_profile=burst_profile(channel_mask),
            interleaved=interleaved,
            baseline=baseline,
            max_errors_interleaved=int(per_word_int.max(initial=0)),
            max_errors_baseline=int(per_word_base.max(initial=0)),
        )

    def run(self, frames: int) -> DownlinkResult:
        """Aggregate :meth:`run_frame` over several frames."""
        if frames < 1:
            raise ValueError(f"frames must be >= 1, got {frames}")
        results = [self.run_frame() for _ in range(frames)]
        return DownlinkResult(
            channel_profile=merge_burst_profiles(
                [r.channel_profile for r in results]),
            interleaved=merge_decoding_reports([r.interleaved for r in results]),
            baseline=merge_decoding_reports([r.baseline for r in results]),
            max_errors_interleaved=max(r.max_errors_interleaved for r in results),
            max_errors_baseline=max(r.max_errors_baseline for r in results),
        )

    #: Frames per block of :meth:`run_batched`'s dense route.  Large
    #: enough to amortize NumPy call overhead over the whole block,
    #: small enough that the block's mask/uniform buffers stay
    #: cache-resident instead of streaming multi-hundred-MB temporaries
    #: through DRAM.
    BATCH_FRAMES = 128

    def run_batched(self, frames: int) -> DownlinkResult:
        """Vectorized :meth:`run`: same result, whole frame batches per stage.

        The native route samples and decodes all ``frames`` in one call,
        :meth:`~repro.channel.gilbert_elliott.GilbertElliottChannel.sample_decode`,
        which hands back per-frame burst columns and both arms' decode
        tallies.  A batch that route cannot take (see that method) runs
        densely in blocks of ``BATCH_FRAMES``, each as the sparse error
        positions of
        :meth:`~repro.channel.gilbert_elliott.GilbertElliottChannel.error_positions`:
        per-code-word error counts are one ``bincount`` through the
        cached decode map (the full deinterleave gather never happens),
        and burst runs fall out of gaps in the sorted positions.  Either
        way the returned :class:`DownlinkResult` is bit-identical to
        :meth:`run` from the same generator state (differential-tested
        in ``tests/channel/test_batched_channel.py``).

        Args:
            frames: frames to transmit (>= 1).

        Returns:
            The aggregate :class:`DownlinkResult` over all frames.

        Raises:
            ValueError: on a non-positive ``frames``.
        """
        if frames < 1:
            raise ValueError(f"frames must be >= 1, got {frames}")
        symbols = self.interleaver.frame_symbols
        codeword_symbols = self.code.n_symbols
        words = symbols // codeword_symbols
        bursts = []
        reports_int = []
        reports_base = []
        max_int = 0
        max_base = 0
        done = 0
        fused = self.channel.sample_decode(self._word_of, self.code, frames)
        if fused is not None:
            columns, tallies = fused
            errors, burst_counts, longest = columns
            # A frame's burst lengths sum to its error count.
            mean_lengths = np.divide(errors, burst_counts,
                                     out=np.zeros(frames, dtype=np.float64),
                                     where=burst_counts > 0)
            bursts.append(FrameBurstArrays(symbols, errors, burst_counts,
                                           longest, mean_lengths))
            error_symbols = int(errors.sum())
            (failed_int, residual_int, max_int,
             failed_base, residual_base, max_base) = tallies.tolist()
            reports_int.append(report_from_tallies(
                frames * words, error_symbols, failed_int, residual_int))
            reports_base.append(report_from_tallies(
                frames * words, error_symbols, failed_base, residual_base))
            done = frames
        while done < frames:
            block = min(self.BATCH_FRAMES, frames - done)
            frame_idx, sym_idx = self.channel.error_positions(symbols, block)
            word_slots = frame_idx * words
            counts_int = np.bincount(
                word_slots + self._word_of[sym_idx],
                minlength=block * words).reshape(block, words)
            counts_base = np.bincount(
                word_slots + sym_idx // codeword_symbols,
                minlength=block * words).reshape(block, words)
            bursts.append(frame_burst_arrays(frame_idx, sym_idx, block, symbols))
            reports_int.append(report_from_counts(counts_int, self.code))
            reports_base.append(report_from_counts(counts_base, self.code))
            max_int = max(max_int, int(counts_int.max(initial=0)))
            max_base = max(max_base, int(counts_base.max(initial=0)))
            done += block
        return DownlinkResult(
            channel_profile=_merge_burst_arrays(bursts, symbols),
            interleaved=merge_decoding_reports(reports_int),
            baseline=merge_decoding_reports(reports_base),
            max_errors_interleaved=max_int,
            max_errors_baseline=max_base,
        )
