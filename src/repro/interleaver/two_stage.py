"""The paper's two-stage interleaver (Sec. II, first paragraph).

A single DRAM burst moves far more bits than one symbol (e.g. 512 bits
vs. 3 bits), so the DRAM-level triangular interleaver operates on
*burst elements*, not symbols.  To keep the burst error dispersion
property, a small SRAM block interleaver runs first and ensures that
the symbols packed into one burst element all belong to **different
code words**:

1. **SRAM stage** — a rectangular block interleaver with
   ``rows = symbols_per_element`` and ``cols = code words per group``:
   writing code words row-w... column-wise produces groups in which
   consecutive symbols come from distinct code words.
2. **Packing** — consecutive ``symbols_per_element`` symbols form one
   burst element.
3. **DRAM stage** — a triangular block interleaver permutes the burst
   elements (this is the permutation that the address mappings of
   :mod:`repro.mapping` realize in DRAM).

The receiver applies the exact inverse pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.interleaver.block import BlockInterleaver, TriangularInterleaver


@dataclass(frozen=True)
class TwoStageConfig:
    """Dimensions of the two-stage interleaver.

    Attributes:
        triangle_n: triangular stage dimension (frame =
            ``triangle_n (triangle_n + 1) / 2`` burst elements).
        symbols_per_element: symbols packed into one DRAM burst element.
        codeword_symbols: symbols per code word (used by the SRAM stage
            to group code words; must be a multiple of
            ``symbols_per_element`` for exact framing).
    """

    triangle_n: int
    symbols_per_element: int
    codeword_symbols: int

    def __post_init__(self) -> None:
        if self.triangle_n < 1:
            raise ValueError(f"triangle_n must be >= 1, got {self.triangle_n}")
        if self.symbols_per_element < 1:
            raise ValueError(
                f"symbols_per_element must be >= 1, got {self.symbols_per_element}"
            )
        if self.codeword_symbols < 1:
            raise ValueError(f"codeword_symbols must be >= 1, got {self.codeword_symbols}")
        group_symbols = self.symbols_per_element * self.codeword_symbols
        if self.symbols_per_frame % group_symbols:
            raise ValueError(
                "frame must hold a whole number of SRAM groups: "
                f"{self.symbols_per_frame} symbols per frame vs. "
                f"group of {group_symbols}"
            )

    @property
    def elements_per_frame(self) -> int:
        """Burst elements per frame: ``triangle_n (triangle_n + 1) / 2``."""
        return self.triangle_n * (self.triangle_n + 1) // 2

    @property
    def symbols_per_frame(self) -> int:
        """Symbols per frame (elements x symbols per element)."""
        return self.elements_per_frame * self.symbols_per_element

    @property
    def codewords_per_frame(self) -> int:
        """Full code words per frame (frames are sized to whole groups)."""
        return self.symbols_per_frame // self.codeword_symbols


class TwoStageInterleaver:
    """SRAM block stage + DRAM triangular stage, with exact inverse.

    The SRAM stage runs per *group* of ``symbols_per_element`` code
    words: a ``symbols_per_element x codeword_symbols`` block
    interleaver whose column-wise read emits one symbol of each code
    word in turn, so every run of ``symbols_per_element`` consecutive
    symbols (= one burst element) holds symbols of all different code
    words.
    """

    def __init__(self, config: TwoStageConfig) -> None:
        # Geometry validity (whole SRAM groups per frame) is enforced by
        # TwoStageConfig itself, so every entry point fails fast.
        self.config = config
        self._sram = BlockInterleaver(config.symbols_per_element, config.codeword_symbols)
        self._dram = TriangularInterleaver(config.triangle_n)
        self._groups = config.symbols_per_frame // (
            config.symbols_per_element * config.codeword_symbols)
        # The whole two-stage pipeline is one fixed frame permutation;
        # the downlink decodes through it (see cached_interleaver).
        self._perm = self.interleave(
            np.arange(config.symbols_per_frame, dtype=np.int64))

    @property
    def frame_symbols(self) -> int:
        """Symbols consumed/produced per frame."""
        return self.config.symbols_per_frame

    # -- transmitter ----------------------------------------------------

    def interleave(self, frame: NDArray[Any]) -> NDArray[Any]:
        """Apply SRAM stage, pack elements, apply DRAM stage."""
        self._check(frame)
        config = self.config
        groups = frame.reshape(self._groups, -1)
        sram_out = self._sram.interleave(groups).reshape(-1)
        elements = sram_out.reshape(config.elements_per_frame, config.symbols_per_element)
        permuted = self._dram.interleave(elements.T).T
        return permuted.reshape(-1)

    # -- receiver --------------------------------------------------------

    def deinterleave(self, frame: NDArray[Any]) -> NDArray[Any]:
        """Exact inverse of :meth:`interleave`."""
        self._check(frame)
        config = self.config
        elements = frame.reshape(config.elements_per_frame, config.symbols_per_element)
        unpermuted = self._dram.deinterleave(elements.T).T
        sram_in = unpermuted.reshape(self._groups, -1)
        return self._sram.deinterleave(sram_in).reshape(-1)

    def permutation(self) -> NDArray[Any]:
        """Copy of the transmit permutation: ``interleave(x) == x[perm]``."""
        return self._perm.copy()

    # -- properties the paper relies on -----------------------------------

    def codeword_of_symbol(self, index: int) -> int:
        """Code word that the ``index``-th *input* symbol belongs to."""
        if not 0 <= index < self.frame_symbols:
            raise ValueError(f"symbol index {index} out of range")
        return index // self.config.codeword_symbols

    def element_codewords(self, frame_codeword_ids: NDArray[Any]) -> NDArray[Any]:
        """Code-word ids as seen per burst element after interleaving.

        Args:
            frame_codeword_ids: id of the code word of every input
                symbol (shape ``(frame_symbols,)``).

        Returns:
            Array of shape ``(elements_per_frame, symbols_per_element)``
            with the code-word id of each symbol inside each element —
            rows with all-distinct entries certify the burst-diversity
            property of the SRAM stage.
        """
        interleaved = self.interleave(frame_codeword_ids)
        return interleaved.reshape(
            self.config.elements_per_frame, self.config.symbols_per_element
        )

    def _check(self, frame: NDArray[Any]) -> None:
        if frame.ndim != 1 or frame.size != self.frame_symbols:
            raise ValueError(
                f"frame must be 1-D with {self.frame_symbols} symbols, got shape {frame.shape}"
            )


#: Largest frame, in symbols, whose interleaver :func:`cached_interleaver`
#: keeps.  An entry holds about 20 bytes per symbol at four symbols per
#: element (the frame permutation, the decode map and the triangular
#: stage's two permutations), so it stays under ~2.5 MiB; that admits
#: ``triangle_n`` up to 255 at four symbols per element.
CACHED_FRAME_SYMBOLS = 1 << 17


def _interleaver_with_map(
        config: TwoStageConfig) -> Tuple[TwoStageInterleaver, NDArray[np.int64]]:
    interleaver = TwoStageInterleaver(config)
    word_of = interleaver.permutation() // config.codeword_symbols
    word_of.flags.writeable = False
    return interleaver, word_of


_cached_interleaver_with_map = lru_cache(maxsize=4)(_interleaver_with_map)


def cached_interleaver(
        config: TwoStageConfig) -> Tuple[TwoStageInterleaver, NDArray[np.int64]]:
    """The interleaver of one geometry and its decode map, built once per process.

    Returns the :class:`TwoStageInterleaver` for ``config`` and a
    read-only int64 map from each channel position ``s`` to the payload
    code word the receiver puts it in, ``permutation()[s] //
    codeword_symbols``.  Building both permutations is the costly part
    of a downlink cell, and a campaign grid holds only a few geometries
    (the default grid three), so the four most recently used ones are
    kept.  A frame above :data:`CACHED_FRAME_SYMBOLS` is built afresh on
    every call, so a long-running ``repro serve`` holds at most ~10 MiB
    here whatever ``triangle_n`` its jobs ask for.
    """
    if config.symbols_per_frame > CACHED_FRAME_SYMBOLS:
        return _interleaver_with_map(config)
    return _cached_interleaver_with_map(config)
