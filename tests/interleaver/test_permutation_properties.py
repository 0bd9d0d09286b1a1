"""Property tests for interleaver permutations.

Every interleaver in the repo is a fixed frame permutation, so two
properties must hold for *any* geometry, including degenerate ones:

* **round-trip**: ``deinterleave(interleave(x)) == x`` and
  ``interleave(deinterleave(x)) == x``;
* **bijectivity**: the permutation visits every slot exactly once.

The parametrization sweeps ~50 geometries of the block, triangular and
two-stage constructions — depth 1, single code word, single row/column,
non-square shapes — the corners where index arithmetic slips first.
"""

import numpy as np
import pytest

from repro.interleaver.block import BlockInterleaver, TriangularInterleaver
from repro.interleaver.two_stage import (
    TwoStageConfig,
    TwoStageInterleaver,
    cached_interleaver,
)

BLOCK_SHAPES = [
    (1, 1), (1, 2), (2, 1), (1, 17), (17, 1), (2, 2), (2, 3), (3, 2),
    (4, 4), (3, 8), (8, 3), (5, 7), (7, 5), (4, 24), (24, 4), (6, 6),
    (2, 31), (31, 2), (9, 16), (16, 9),
]

TRIANGLE_SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16, 21, 32, 48, 63]

# (triangle_n, symbols_per_element, codeword_symbols) — all satisfy the
# whole-group framing constraint n(n+1)/2 * spe % (spe * cw) == 0.
TWO_STAGE_SHAPES = [
    (1, 1, 1),        # everything degenerate: one element, one symbol
    (2, 1, 3),        # single-symbol elements (depth-1 SRAM stage)
    (2, 2, 3),
    (3, 1, 6),        # one code word per frame
    (3, 2, 2),
    (3, 4, 6),
    (4, 1, 2),
    (4, 2, 5),
    (4, 3, 10),
    (7, 2, 4),
    (8, 4, 36),       # the README example geometry
    (8, 3, 4),
    (15, 4, 24),      # campaign small cell
    (15, 1, 8),
    (32, 4, 24),      # campaign mid cell
    (9, 5, 9),
    (12, 2, 13),
]


def _two_stage_id(shape):
    n, spe, cw = shape
    return f"n{n}-spe{spe}-cw{cw}"


def _assert_permutation_properties(interleaver, frame_symbols):
    identity = np.arange(frame_symbols, dtype=np.int64)
    forward = interleaver.interleave(identity)
    backward = interleaver.deinterleave(identity)

    # Bijectivity: both directions hit every slot exactly once.
    assert np.array_equal(np.sort(forward), identity)
    assert np.array_equal(np.sort(backward), identity)

    # Round-trip identity, both compositions, on arbitrary payloads.
    payload = np.random.default_rng(frame_symbols).integers(
        0, 1 << 16, size=frame_symbols)
    assert np.array_equal(
        interleaver.deinterleave(interleaver.interleave(payload)), payload)
    assert np.array_equal(
        interleaver.interleave(interleaver.deinterleave(payload)), payload)

    # The two directions are mutually inverse permutations.
    assert np.array_equal(forward[backward], identity)
    assert np.array_equal(backward[forward], identity)


class TestBlockInterleaver:
    @pytest.mark.parametrize("rows,cols", BLOCK_SHAPES,
                             ids=[f"{r}x{c}" for r, c in BLOCK_SHAPES])
    def test_permutation_properties(self, rows, cols):
        _assert_permutation_properties(BlockInterleaver(rows, cols), rows * cols)

    def test_degenerate_row_is_identity(self):
        """A 1 x k block interleaver cannot reorder anything."""
        interleaver = BlockInterleaver(1, 9)
        data = np.arange(9)
        assert np.array_equal(interleaver.interleave(data), data)


class TestTriangularInterleaver:
    @pytest.mark.parametrize("n", TRIANGLE_SIZES)
    def test_permutation_properties(self, n):
        _assert_permutation_properties(TriangularInterleaver(n),
                                       n * (n + 1) // 2)

    def test_n1_is_identity(self):
        interleaver = TriangularInterleaver(1)
        assert np.array_equal(interleaver.interleave(np.array([42])), [42])


class TestTwoStageInterleaver:
    @pytest.mark.parametrize("shape", TWO_STAGE_SHAPES, ids=_two_stage_id)
    def test_permutation_properties(self, shape):
        n, spe, cw = shape
        interleaver = TwoStageInterleaver(
            TwoStageConfig(triangle_n=n, symbols_per_element=spe,
                           codeword_symbols=cw))
        _assert_permutation_properties(interleaver, interleaver.frame_symbols)

    @pytest.mark.parametrize("shape", TWO_STAGE_SHAPES, ids=_two_stage_id)
    def test_precomputed_permutation_is_interleave(self, shape):
        n, spe, cw = shape
        interleaver = TwoStageInterleaver(
            TwoStageConfig(triangle_n=n, symbols_per_element=spe,
                           codeword_symbols=cw))
        perm = interleaver.permutation()
        identity = np.arange(interleaver.frame_symbols)
        assert np.array_equal(perm, interleaver.interleave(identity))
        assert np.array_equal(interleaver.deinterleave(perm), identity)

    @pytest.mark.parametrize("shape", TWO_STAGE_SHAPES, ids=_two_stage_id)
    def test_decode_map_follows_deinterleave(self, shape):
        """The downlink's decode map puts each channel position in the
        code word the deinterleaver moves it to."""
        n, spe, cw = shape
        interleaver, word_of = cached_interleaver(
            TwoStageConfig(triangle_n=n, symbols_per_element=spe,
                           codeword_symbols=cw))
        identity = np.arange(interleaver.frame_symbols)
        # deinterleave(identity)[p] is the channel position that lands
        # at payload position p.
        assert np.array_equal(word_of[interleaver.deinterleave(identity)],
                              identity // cw)
