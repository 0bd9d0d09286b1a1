"""Burst-error statistics.

Quantifies how bursty an error mask is and how well an interleaver
dispersed it — the property that motivates the whole paper.  The key
metric is the distribution of errors *per code word*: a burst channel
without interleaving concentrates errors in few code words (overwhelming
the code's correction radius ``t``), while a good interleaver spreads
the same number of errors almost uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class BurstProfile:
    """Run-length view of an error mask.

    Attributes:
        total_symbols: mask length.
        error_symbols: number of corrupted symbols.
        burst_count: number of maximal error runs.
        max_burst: longest error run.
        mean_burst: average error run length (0 when no errors).
    """

    total_symbols: int
    error_symbols: int
    burst_count: int
    max_burst: int
    mean_burst: float

    @property
    def symbol_error_rate(self) -> float:
        """Fraction of observed symbols that were corrupted."""
        if self.total_symbols == 0:
            return 0.0
        return self.error_symbols / self.total_symbols


def burst_profile(mask: NDArray[np.bool_]) -> BurstProfile:
    """Compute the :class:`BurstProfile` of a boolean error mask."""
    mask = np.asarray(mask, dtype=bool)
    total = int(mask.size)
    errors = int(mask.sum())
    if errors == 0:
        return BurstProfile(total, 0, 0, 0, 0.0)
    padded = np.concatenate(([False], mask, [False]))
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts = changes[0::2]
    ends = changes[1::2]
    lengths = ends - starts
    return BurstProfile(
        total_symbols=total,
        error_symbols=errors,
        burst_count=int(lengths.size),
        max_burst=int(lengths.max()),
        mean_burst=float(lengths.mean()),
    )


def errors_per_codeword(mask: NDArray[np.bool_],
                        codeword_symbols: int) -> NDArray[Any]:
    """Number of corrupted symbols in each full code word.

    Args:
        mask: boolean error mask over the (deinterleaved) symbol
            stream.
        codeword_symbols: symbols per code word; a trailing partial
            code word is ignored.
    """
    if codeword_symbols < 1:
        raise ValueError(f"codeword_symbols must be >= 1, got {codeword_symbols}")
    mask = np.asarray(mask, dtype=bool)
    full = mask.size // codeword_symbols
    if full == 0:
        return np.zeros(0, dtype=np.int64)
    counts: NDArray[Any] = mask[: full * codeword_symbols].reshape(
        full, codeword_symbols).sum(axis=1)
    return counts


@dataclass(frozen=True)
class FrameBurstArrays:
    """Columnar per-frame burst statistics of an error-mask batch.

    The array form of a list of :class:`BurstProfile` — what the
    campaign hot path aggregates without building per-frame objects.
    Attributes are indexed by frame; entry ``f`` holds the fields of
    :func:`burst_profile` of frame ``f``'s mask.

    Attributes:
        symbols: mask length common to all frames.
        error_counts: corrupted symbols per frame.
        burst_counts: maximal error runs per frame.
        max_lengths: longest error run per frame.
        mean_lengths: average error run length per frame (0 where the
            frame has no bursts).
    """

    symbols: int
    error_counts: NDArray[Any]
    burst_counts: NDArray[Any]
    max_lengths: NDArray[Any]
    mean_lengths: NDArray[Any]


def frame_burst_arrays(frame_idx: NDArray[Any], sym_idx: NDArray[Any],
                       frames: int, symbols: int) -> FrameBurstArrays:
    """Per-frame burst statistics from sorted sparse error positions.

    Args:
        frame_idx, sym_idx: coordinates of the ``True`` cells of a
            ``(frames, symbols)`` error-mask batch, in row-major order
            (exactly what ``np.nonzero`` yields).
        frames, symbols: batch shape.
    """
    error_counts = np.bincount(frame_idx, minlength=frames)
    if frame_idx.size == 0:
        zeros = np.zeros(frames, dtype=np.int64)
        return FrameBurstArrays(symbols, error_counts, zeros, zeros,
                                np.zeros(frames, dtype=np.float64))
    # Flatten with one separator slot per frame so runs cannot bridge
    # frames; a burst is then a maximal span of consecutive flat
    # positions, found by one gap scan over the sparse coordinates.
    flat = frame_idx * (symbols + 1) + sym_idx
    is_start = np.empty(flat.size, dtype=bool)
    is_start[0] = True
    np.not_equal(flat[1:], flat[:-1] + 1, out=is_start[1:])
    start_slots = np.flatnonzero(is_start)
    lengths = np.diff(np.append(start_slots, flat.size))
    run_frames = frame_idx[start_slots]
    burst_counts = np.bincount(run_frames, minlength=frames)
    length_sums = np.bincount(run_frames, weights=lengths, minlength=frames)
    max_lengths = np.zeros(frames, dtype=np.int64)
    np.maximum.at(max_lengths, run_frames, lengths)
    mean_lengths = np.divide(length_sums, burst_counts,
                             out=np.zeros(frames, dtype=np.float64),
                             where=burst_counts > 0)
    return FrameBurstArrays(symbols, error_counts, burst_counts, max_lengths,
                            mean_lengths)
