"""Code-word model and bounded-distance decoding."""

import numpy as np
import pytest

from repro.channel.codeword import (
    CodewordConfig,
    DecodingReport,
    decode_mask,
    report_from_tallies,
)


class TestConfig:
    def test_valid(self):
        config = CodewordConfig(n_symbols=255, t_correctable=16)
        assert config.correction_fraction == pytest.approx(16 / 255)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            CodewordConfig(n_symbols=0, t_correctable=0)

    def test_rejects_t_out_of_range(self):
        with pytest.raises(ValueError):
            CodewordConfig(n_symbols=10, t_correctable=10)
        with pytest.raises(ValueError):
            CodewordConfig(n_symbols=10, t_correctable=-1)


class TestDecode:
    def test_clean_mask(self):
        config = CodewordConfig(8, 2)
        report = decode_mask(np.zeros(32, dtype=bool), config)
        assert report.codewords == 4
        assert report.failed == 0
        assert report.frame_ok
        assert report.codeword_error_rate == 0.0

    def test_correctable_errors(self):
        config = CodewordConfig(8, 2)
        mask = np.zeros(16, dtype=bool)
        mask[[0, 3, 9]] = True  # 2 errors in word 0, 1 in word 1
        report = decode_mask(mask, config)
        assert report.failed == 0
        assert report.corrected_symbols == 3
        assert report.residual_symbol_errors == 0

    def test_uncorrectable_word(self):
        config = CodewordConfig(8, 2)
        mask = np.zeros(16, dtype=bool)
        mask[0:4] = True  # 4 errors in word 0
        report = decode_mask(mask, config)
        assert report.failed == 1
        assert report.codeword_error_rate == 0.5
        assert report.residual_symbol_errors == 4
        assert not report.frame_ok

    def test_empty_mask(self):
        report = decode_mask(np.zeros(0, dtype=bool), CodewordConfig(8, 2))
        assert report.codewords == 0
        assert report.codeword_error_rate == 0.0

    def test_tallies_split_corrected_from_residual(self):
        """The failed words keep their errors; the decoder fixes the rest."""
        config = CodewordConfig(8, 2)
        mask = np.zeros(24, dtype=bool)
        mask[[0, 1, 2, 3, 9, 17, 18]] = True  # 4 in word 0, 1 in 1, 2 in 2
        assert decode_mask(mask, config) == report_from_tallies(
            codewords=3, errors=7, failed=1, residual=4)
        assert report_from_tallies(3, 7, 1, 4) == DecodingReport(
            codewords=3, failed=1, corrected_symbols=3,
            residual_symbol_errors=4)
