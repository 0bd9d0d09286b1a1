"""Gilbert–Elliott burst-error channel.

Free-space optical downlinks from LEO satellites suffer long error
bursts: atmospheric scintillation fades the received power for spans
on the order of the channel coherence time (> 2 ms, i.e. hundreds of
kilobits at 100 Gbit/s).  The standard tractable model for such a
channel is the two-state Gilbert–Elliott Markov chain:

* **good** state: symbols are hit independently with probability
  ``p_good`` (near zero);
* **bad** state (deep fade): symbols are hit with probability
  ``p_bad`` (large);
* per-symbol transition probabilities ``p_g2b`` and ``p_b2g`` set the
  expected fade spacing (``1/p_g2b``) and fade duration (``1/p_b2g``).

The chain's stationary bad-state probability and average symbol error
rate are exposed in closed form for test cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.channel.codeword import CodewordConfig
from repro.dram import _kernelc

GOOD = 0
BAD = 1


@dataclass(frozen=True)
class GilbertElliottParams:
    """Channel parameters.

    Attributes:
        p_g2b: per-symbol probability of entering a fade.
        p_b2g: per-symbol probability of leaving a fade (mean fade
            length is ``1 / p_b2g`` symbols).
        p_bad: symbol error probability inside a fade.
        p_good: symbol error probability outside fades.
    """

    p_g2b: float
    p_b2g: float
    p_bad: float = 0.5
    p_good: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_g2b", "p_b2g"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name in ("p_bad", "p_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def stationary_bad(self) -> float:
        """Stationary probability of the bad state."""
        return self.p_g2b / (self.p_g2b + self.p_b2g)

    @property
    def mean_fade_symbols(self) -> float:
        """Expected fade duration in symbols."""
        return 1.0 / self.p_b2g

    @property
    def mean_gap_symbols(self) -> float:
        """Expected good-state run length in symbols."""
        return 1.0 / self.p_g2b

    @property
    def average_symbol_error_rate(self) -> float:
        """Long-run symbol error probability."""
        bad = self.stationary_bad
        return bad * self.p_bad + (1.0 - bad) * self.p_good


def coherence_params(
    symbols_per_coherence_time: float,
    fade_fraction: float,
    p_bad: float = 0.5,
    p_good: float = 0.0,
) -> GilbertElliottParams:
    """Derive chain parameters from physical link numbers.

    Args:
        symbols_per_coherence_time: mean fade duration in symbols
            (channel coherence time x symbol rate; the paper quotes
            > 2 ms coherence at > 100 Gbit/s).
        fade_fraction: long-run fraction of time spent in a fade.
        p_bad: symbol error probability inside fades.
        p_good: symbol error probability outside fades.
    """
    if symbols_per_coherence_time <= 1.0:
        raise ValueError("coherence time must exceed one symbol")
    if not 0.0 < fade_fraction < 1.0:
        raise ValueError(f"fade_fraction must be in (0, 1), got {fade_fraction}")
    p_b2g = 1.0 / symbols_per_coherence_time
    # stationary_bad = p_g2b / (p_g2b + p_b2g) = fade_fraction
    p_g2b = fade_fraction * p_b2g / (1.0 - fade_fraction)
    return GilbertElliottParams(p_g2b=p_g2b, p_b2g=p_b2g, p_bad=p_bad, p_good=p_good)


def combine_errors(fades: NDArray[np.bool_], draws: NDArray[np.float64],
                   params: GilbertElliottParams) -> NDArray[np.bool_]:
    """Error mask from a fade mask and one uniform per symbol.

    A symbol is hit when its uniform falls below ``p_bad`` inside a
    fade or below ``p_good`` outside one: the predicate ``draws <
    where(fades, p_bad, p_good)``, combined in boolean space so no
    float64 probability array is built (it would be 8x wider than the
    masks).  Every channel entry point and the rare-event estimator
    decide hits here.
    """
    errors = np.less(draws, params.p_bad)
    errors &= fades
    if params.p_good > 0.0:
        good_hits = np.less(draws, params.p_good)
        good_hits &= ~fades
        errors |= good_hits
    return errors


#: Mask of the low 64 bits of a PCG64 state word.
_LOW64 = (1 << 64) - 1


def _check_batch(count: int, frames: int) -> None:
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if frames < 0:
        raise ValueError(f"frames must be >= 0, got {frames}")


class GilbertElliottChannel:
    """Samples error masks from the Gilbert–Elliott chain.

    The state sequence is generated vectorized: state dwell times are
    geometric, so the chain is simulated as alternating geometric run
    lengths rather than per-symbol coin flips.

    Every entry point consumes the generator frame by frame: the
    frame's geometric dwells, then one float64 uniform per symbol.
    :meth:`sample_decode` keeps that contract while drawing only the
    uniforms that can matter: on a clean good state (``p_good == 0``)
    and a plain ``PCG64`` generator it runs the batch in the native
    sampler, which jumps the stream over good symbols, with
    bit-identical results.
    """

    def __init__(self, params: GilbertElliottParams,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.params = params
        self.rng = rng or np.random.default_rng()
        self._state = BAD if self.rng.random() < params.stationary_bad else GOOD
        self._batch_buffers: Optional[Tuple[Tuple[int, int], NDArray[np.bool_], NDArray[np.float64]]] = None  # (shape, fades, draws) scratch reuse

    def _fade_runs(self, count: int) -> List[Tuple[int, int]]:
        """Advance the chain over one frame; return its ``[start, end)`` fades.

        This dwell loop is the sampling core of every entry point: the
        draw order (one geometric per dwell, truncated dwells redrawn
        next frame) is part of the reproducibility contract, so every
        path must run exactly this loop.  Its one twin is the C loop of
        the native sampler (:data:`repro.dram._kernelc.SAMPLER_SOURCE`),
        held to it by the differential tests in
        ``tests/channel/test_batched_channel.py``.
        """
        params = self.params
        geometric = self.rng.geometric
        runs: List[Tuple[int, int]] = []
        position = 0
        state = self._state
        while position < count:
            p_leave = params.p_b2g if state == BAD else params.p_g2b
            end = position + geometric(p_leave)
            if state == BAD:
                runs.append((position, min(end, count)))
            if end > count:
                # Dwell continues into the next call.
                break
            position = end
            state = BAD if state == GOOD else GOOD
        self._state = state
        return runs

    def _fill_state_row(self, row: NDArray[np.bool_]) -> None:
        """Fill ``row`` with one frame's fade mask, advancing the chain."""
        row.fill(False)
        for start, end in self._fade_runs(row.size):
            row[start:end] = True

    def state_mask(self, count: int) -> NDArray[np.bool_]:
        """Boolean array: ``True`` where the channel is in a fade."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        mask = np.empty(count, dtype=bool)
        self._fill_state_row(mask)
        return mask

    def error_mask(self, count: int) -> NDArray[np.bool_]:
        """Boolean array: ``True`` where a symbol is corrupted."""
        fades = self.state_mask(count)
        return combine_errors(fades, self.rng.random(count), self.params)

    def _sample_batch(
            self, count: int,
            frames: int) -> Tuple[NDArray[np.bool_], NDArray[np.float64]]:
        """Fade masks and uniform draws for a frame batch (dense path).

        RNG consumption is frame-sequential — geometric dwells, then the
        frame's uniforms, identical to per-frame :meth:`error_mask`
        calls — which is what makes the batched entry points
        bit-identical to the scalar ones.
        """
        _check_batch(count, frames)
        # Scratch buffers are reused across same-shaped dense batches
        # (error_masks, and the chunk loop of a cell the native route
        # cannot take): refilling warm pages is much cheaper than
        # faulting in fresh ones every chunk.  They never escape — every
        # public entry point returns derived arrays.
        shape = (frames, count)
        if self._batch_buffers is None or self._batch_buffers[0] != shape:
            self._batch_buffers = (
                shape,
                np.empty(shape, dtype=bool),
                np.empty(shape, dtype=np.float64),
            )
        _, fades, draws = self._batch_buffers
        for f in range(frames):
            self._fill_state_row(fades[f])
            if count:
                self.rng.random(out=draws[f])
        return fades, draws

    def error_masks(self, count: int, frames: int) -> NDArray[np.bool_]:
        """Error masks for ``frames`` consecutive frames, shape ``(frames, count)``.

        The batched form of :meth:`error_mask`: row ``f`` is
        bit-identical to the ``f``-th sequential :meth:`error_mask` call
        from the same generator state (property-tested in
        ``tests/channel/test_batched_channel.py``), while the threshold
        comparison runs once over the whole 2-D batch.
        """
        fades, draws = self._sample_batch(count, frames)
        return combine_errors(fades, draws, self.params)

    def error_positions(
            self, count: int,
            frames: int) -> Tuple[NDArray[Any], NDArray[Any]]:
        """Sparse coordinates of corrupted symbols across a frame batch.

        Returns ``(frame_idx, sym_idx)`` arrays in row-major order,
        exactly ``np.nonzero(self.error_masks(count, frames))``.  This is
        the channel entry point of the downlink's dense route; batches
        the native sampler can take go through :meth:`sample_decode`.
        """
        frame_idx, sym_idx = np.nonzero(self.error_masks(count, frames))
        return frame_idx, sym_idx

    def sample_decode(
            self, word_of: NDArray[np.int64], code: CodewordConfig,
            frames: int) -> Optional[Tuple[NDArray[np.int64],
                                           NDArray[np.int64]]]:
        """Sample and decode a frame batch in one native call, if it can.

        ``word_of`` maps each of a frame's channel positions to the
        payload code word it lands in after deinterleaving.  Its length
        is the frame's symbol count, a whole number of code words; the
        baseline arm's code word of position ``s`` is
        ``s // code.n_symbols``.

        The batch runs in the native sampler
        (:func:`repro.dram._kernelc.load_sampler`) when ``p_good == 0``,
        the generator is exactly ``PCG64`` with no buffered 32-bit
        half, and the sampler loads.  Per frame it draws the dwells with
        NumPy's own ``random_geometric``, jumps the stream over good
        symbols and draws one uniform per fade symbol.  A float64
        uniform spends exactly one 64-bit draw, so the stream is
        consumed just as :meth:`error_positions` consumes it, and the
        generator and chain are left in the state that call leaves them
        in.

        Raises:
            ValueError: before any draw, when ``word_of`` does not cover
                whole code words or maps a position outside them.

        Returns:
            ``None``, drawing nothing, when the batch must take the
            dense route.  Otherwise ``(columns, tallies)``: ``columns``
            has shape ``(3, frames)`` and holds each frame's error
            count, burst count and longest burst (a frame's burst
            lengths sum to its error count); ``tallies`` holds six
            counts, the failed code words (more
            than ``t`` errors), their residual errors and the largest
            per-word count, of the interleaved arm and then of the
            baseline arm.
        """
        _check_batch(word_of.size, frames)
        if self.params.p_good != 0.0:
            return None
        # Imported here so that importing repro never loads numpy.random.
        from numpy.random import PCG64

        bit_generator = self.rng.bit_generator
        if type(bit_generator) is not PCG64:
            return None
        state = bit_generator.state
        sampler = _kernelc.load_sampler()
        if sampler is None or state["has_uint32"] or state["uinteger"]:
            return None
        ffi, lib = sampler
        params = self.params
        word_of = np.ascontiguousarray(word_of, dtype=np.int64)
        count = word_of.size
        words = state["state"]
        stream, inc = words["state"], words["inc"]
        rng_words = ffi.new("uint64_t[6]", [
            stream >> 64, stream & _LOW64, inc >> 64, inc & _LOW64,
            state["has_uint32"], state["uinteger"]])
        chain = ffi.new("int64_t *", self._state)
        scratch = np.zeros(count + 1 + 2 * (count // code.n_symbols),
                           dtype=np.int64)
        columns = np.empty((3, frames), dtype=np.int64)
        tallies = np.zeros(6, dtype=np.int64)
        status = lib.sample_fade_decode(
            rng_words, chain, count, frames,
            params.p_g2b, params.p_b2g, params.p_bad,
            ffi.from_buffer("int64_t[]", word_of),
            code.n_symbols, code.t_correctable,
            ffi.from_buffer("int64_t[]", scratch),
            ffi.from_buffer("int64_t[]", columns),
            ffi.from_buffer("int64_t[]", tallies))
        if status < 0:
            raise ValueError(
                f"word_of must map {count} channel positions into "
                f"{count // code.n_symbols} whole code words of "
                f"{code.n_symbols} symbols")
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": rng_words[0] << 64 | rng_words[1],
                      "inc": inc},
            "has_uint32": rng_words[4],
            "uinteger": rng_words[5],
        }
        self._state = chain[0]
        return columns, tallies

    def corrupt(self, symbols: NDArray[Any],
                bits_per_symbol: int = 3) -> NDArray[Any]:
        """Apply the channel to a symbol stream.

        Corrupted symbols are XOR-flipped with a uniformly random
        non-zero pattern, guaranteeing the symbol value changes.
        """
        if bits_per_symbol < 1:
            raise ValueError(f"bits_per_symbol must be >= 1, got {bits_per_symbol}")
        mask = self.error_mask(symbols.size)
        flips = self.rng.integers(1, 1 << bits_per_symbol, size=symbols.size,
                                  dtype=symbols.dtype if symbols.dtype.kind == "u" else np.uint16)
        corrupted = symbols.copy()
        corrupted[mask] ^= flips[mask]
        return corrupted
