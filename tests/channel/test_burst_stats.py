"""Burst statistics and per-code-word error counts."""

import numpy as np
import pytest

from repro.channel.burst_stats import burst_profile, errors_per_codeword


def _mask(*positions, size=32):
    mask = np.zeros(size, dtype=bool)
    for p in positions:
        mask[p] = True
    return mask


class TestBurstProfile:
    def test_empty_mask(self):
        profile = burst_profile(np.zeros(10, dtype=bool))
        assert profile.error_symbols == 0
        assert profile.burst_count == 0
        assert profile.symbol_error_rate == 0.0

    def test_single_burst(self):
        mask = np.zeros(20, dtype=bool)
        mask[5:9] = True
        profile = burst_profile(mask)
        assert profile.burst_count == 1
        assert profile.max_burst == 4
        assert profile.mean_burst == 4.0
        assert profile.error_symbols == 4

    def test_multiple_bursts(self):
        mask = _mask(0, 1, 2, 10, 20, 21)
        profile = burst_profile(mask)
        assert profile.burst_count == 3
        assert profile.max_burst == 3
        assert profile.mean_burst == 2.0

    def test_burst_at_edges(self):
        mask = np.ones(5, dtype=bool)
        profile = burst_profile(mask)
        assert profile.burst_count == 1
        assert profile.max_burst == 5

    def test_error_rate(self):
        assert burst_profile(_mask(0, 1, size=10)).symbol_error_rate == 0.2


class TestErrorsPerCodeword:
    def test_counts(self):
        mask = _mask(0, 1, 9, size=12)
        counts = errors_per_codeword(mask, 4)
        assert counts.tolist() == [2, 0, 1]

    def test_discards_tail(self):
        mask = np.ones(10, dtype=bool)
        assert errors_per_codeword(mask, 4).tolist() == [4, 4]

    def test_empty_when_too_short(self):
        assert errors_per_codeword(np.ones(3, dtype=bool), 4).size == 0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            errors_per_codeword(np.ones(8, dtype=bool), 0)
