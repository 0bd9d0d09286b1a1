"""Code-word framing and a t-error-correcting block-code model.

The downlink FEC is modeled at the symbol-error level: a code word of
``n`` symbols decodes correctly iff it contains at most ``t`` corrupted
symbols (the behavior of a bounded-distance decoder such as
Reed–Solomon).  This is all the paper's system context requires — the
interleaver's job is to keep the per-code-word error count under ``t``
in the presence of long fades, and the DRAM mapping's job is to make
that interleaver fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.channel.burst_stats import errors_per_codeword


@dataclass(frozen=True)
class CodewordConfig:
    """Block-code parameters at symbol granularity.

    Attributes:
        n_symbols: code word length in symbols.
        t_correctable: maximum number of symbol errors the decoder
            corrects.
    """

    n_symbols: int
    t_correctable: int

    def __post_init__(self) -> None:
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if not 0 <= self.t_correctable < self.n_symbols:
            raise ValueError(
                f"t_correctable must be in [0, {self.n_symbols}), got {self.t_correctable}"
            )

    @property
    def correction_fraction(self) -> float:
        """Fraction of a code word the decoder can repair."""
        return self.t_correctable / self.n_symbols


@dataclass(frozen=True)
class DecodingReport:
    """Outcome of decoding a stream against an error mask.

    Attributes:
        codewords: full code words decoded.
        failed: code words with more than ``t`` errors.
        corrected_symbols: symbol errors removed by the decoder.
        residual_symbol_errors: symbol errors left in failed words.
    """

    codewords: int
    failed: int
    corrected_symbols: int
    residual_symbol_errors: int

    @property
    def codeword_error_rate(self) -> float:
        """Fraction of decoded code words that failed."""
        if self.codewords == 0:
            return 0.0
        return self.failed / self.codewords

    @property
    def frame_ok(self) -> bool:
        """Whether every code word decoded (no failures at all)."""
        return self.failed == 0


def report_from_tallies(codewords: int, errors: int, failed: int,
                        residual: int) -> DecodingReport:
    """Decoding report from pooled tallies.

    The home of the corrected/residual split: of the ``errors`` symbol
    errors that fell on ``codewords`` code words, the ``failed`` words
    keep their ``residual`` errors and the decoder corrects the rest.
    :func:`report_from_counts` folds through here, and so does the
    downlink's native route, whose tallies come from the sampler.
    """
    return DecodingReport(
        codewords=codewords,
        failed=failed,
        corrected_symbols=errors - residual,
        residual_symbol_errors=residual,
    )


def report_from_counts(counts: NDArray[Any],
                       config: CodewordConfig) -> DecodingReport:
    """Aggregate decoding report from per-code-word error counts.

    The Python home of the bounded-distance failure criterion
    (``count > t``) — every Python decode entry point (scalar, the
    downlink's dense route, the rare-event estimator) folds through
    here, so the criterion cannot silently diverge between paths.  Its
    one twin is the native sampler's per-frame fold
    (:data:`repro.dram._kernelc.SAMPLER_SOURCE`), held to it by the
    differential tests in ``tests/channel/test_batched_channel.py``.

    Args:
        counts: integer error counts, one entry per code word (any
            shape; all entries are pooled into one report).
        config: code parameters.
    """
    failed = counts > config.t_correctable
    return report_from_tallies(int(counts.size), int(counts.sum()),
                               int(failed.sum()), int(counts[failed].sum()))


def decode_mask(mask: NDArray[np.bool_],
                config: CodewordConfig) -> DecodingReport:
    """Decode an error mask: which code words survive?

    Args:
        mask: boolean symbol-error mask in *code word order* (i.e.
            after deinterleaving at the receiver).
        config: code parameters.
    """
    return report_from_counts(errors_per_codeword(mask, config.n_symbols), config)
