"""Two-stage interleaver: identity and the burst-diversity property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interleaver import two_stage
from repro.interleaver.stream import sequential_symbols
from repro.interleaver.two_stage import (TwoStageConfig, TwoStageInterleaver,
                                           cached_interleaver)


def _config(n=8, spe=4, cw=9):
    return TwoStageConfig(triangle_n=n, symbols_per_element=spe, codeword_symbols=cw)


class TestConfig:
    def test_frame_arithmetic(self):
        config = _config()
        assert config.elements_per_frame == 36
        assert config.symbols_per_frame == 144
        assert config.codewords_per_frame == 16

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TwoStageConfig(triangle_n=0, symbols_per_element=4, codeword_symbols=9)
        with pytest.raises(ValueError):
            TwoStageConfig(triangle_n=8, symbols_per_element=0, codeword_symbols=9)
        with pytest.raises(ValueError):
            TwoStageConfig(triangle_n=8, symbols_per_element=4, codeword_symbols=0)

    def test_rejects_partial_groups(self):
        # 36 elements x 4 symbols = 144; group = 4 x 10 = 40 does not divide.
        with pytest.raises(ValueError, match="whole number"):
            TwoStageInterleaver(TwoStageConfig(8, 4, 10))


class TestIdentity:
    def test_roundtrip(self):
        interleaver = TwoStageInterleaver(_config())
        frame = sequential_symbols(interleaver.frame_symbols)
        recovered = interleaver.deinterleave(interleaver.interleave(frame))
        assert np.array_equal(recovered, frame)

    def test_interleave_is_permutation(self):
        interleaver = TwoStageInterleaver(_config())
        frame = sequential_symbols(interleaver.frame_symbols)
        out = interleaver.interleave(frame)
        assert sorted(out.tolist()) == sorted(frame.tolist())
        assert not np.array_equal(out, frame)

    def test_rejects_wrong_shape(self):
        interleaver = TwoStageInterleaver(_config())
        with pytest.raises(ValueError):
            interleaver.interleave(np.zeros(10, dtype=np.uint16))
        with pytest.raises(ValueError):
            interleaver.interleave(np.zeros((2, interleaver.frame_symbols), dtype=np.uint16))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 12), spe=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**31))
    def test_property_roundtrip(self, n, spe, seed):
        elements = n * (n + 1) // 2
        # pick a code word length that divides the frame into whole groups
        cw = elements  # groups = spe code words x elements symbols each
        interleaver = TwoStageInterleaver(TwoStageConfig(n, spe, cw))
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 8, size=interleaver.frame_symbols, dtype=np.uint16)
        assert np.array_equal(
            interleaver.deinterleave(interleaver.interleave(frame)), frame
        )


class TestBurstDiversity:
    """Paper Sec. II: symbols within one DRAM burst element belong to
    different code words."""

    def test_element_codewords_all_distinct(self):
        config = _config(n=8, spe=4, cw=9)
        interleaver = TwoStageInterleaver(config)
        ids = np.array([interleaver.codeword_of_symbol(k)
                        for k in range(interleaver.frame_symbols)])
        per_element = interleaver.element_codewords(ids)
        assert per_element.shape == (config.elements_per_frame, config.symbols_per_element)
        for row in per_element:
            assert len(set(row.tolist())) == config.symbols_per_element

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([4, 8, 12]), spe=st.sampled_from([2, 4, 8]))
    def test_property_diversity(self, n, spe):
        elements = n * (n + 1) // 2
        cw = elements
        interleaver = TwoStageInterleaver(TwoStageConfig(n, spe, cw))
        ids = np.array([interleaver.codeword_of_symbol(k)
                        for k in range(interleaver.frame_symbols)])
        per_element = interleaver.element_codewords(ids)
        for row in per_element:
            assert len(set(row.tolist())) == spe

    def test_codeword_of_symbol_bounds(self):
        interleaver = TwoStageInterleaver(_config())
        with pytest.raises(ValueError):
            interleaver.codeword_of_symbol(-1)
        with pytest.raises(ValueError):
            interleaver.codeword_of_symbol(interleaver.frame_symbols)


class TestCachedInterleaver:
    def test_one_build_per_geometry(self):
        config = _config(n=15, spe=4, cw=24)
        interleaver, word_of = cached_interleaver(config)
        again, same_map = cached_interleaver(_config(n=15, spe=4, cw=24))
        assert again is interleaver and same_map is word_of
        assert word_of.dtype == np.int64 and not word_of.flags.writeable
        np.testing.assert_array_equal(
            word_of, TwoStageInterleaver(config).permutation() // 24)

    def test_large_frames_are_not_kept(self, monkeypatch):
        config = _config(n=15, spe=4, cw=24)
        monkeypatch.setattr(two_stage, "CACHED_FRAME_SYMBOLS",
                            config.symbols_per_frame - 1)
        first, word_of = cached_interleaver(config)
        second, _ = cached_interleaver(config)
        assert first is not second
        np.testing.assert_array_equal(word_of, first.permutation() // 24)
