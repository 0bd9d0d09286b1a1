#!/usr/bin/env python
"""Optical LEO downlink: why the interleaver exists at all.

Simulates the paper's Sec. I context end to end: a Gilbert–Elliott
burst channel (scintillation fades with a long coherence time), a
t-symbol-correcting block code, and the two-stage interleaver (small
SRAM block stage + large triangular DRAM stage).  Compares code-word
failure rates with and without interleaving at the *same* average
symbol error rate.

Run:  python examples/optical_downlink.py
"""

import math

import numpy as np

from repro import CodewordConfig, GilbertElliottParams, OpticalDownlink, TwoStageConfig


def main() -> None:
    """Compare code-word failures with and without interleaving."""
    # Channel: fades last ~60 symbols (a scaled stand-in for the >2 ms
    # coherence time at >100 Gbit/s), link spends 0.4 % of time faded.
    channel = GilbertElliottParams(
        p_g2b=0.004 / 0.996 / 60.0,
        p_b2g=1.0 / 60.0,
        p_bad=0.7,
    )
    interleaver = TwoStageConfig(
        triangle_n=48,             # 1176 burst elements per frame
        symbols_per_element=4,     # SRAM stage packs 4 code words per burst
        codeword_symbols=24,
    )
    code = CodewordConfig(n_symbols=24, t_correctable=2)

    print(f"Channel: mean fade {1 / channel.p_b2g:.0f} symbols, "
          f"fade fraction {channel.stationary_bad:.2%}, "
          f"average SER {channel.average_symbol_error_rate:.3%}")
    print(f"Code: ({code.n_symbols}, t={code.t_correctable}) -> corrects "
          f"{code.correction_fraction:.1%} of a code word")
    print(f"Interleaver frame: {interleaver.symbols_per_frame:,} symbols, "
          f"{interleaver.codewords_per_frame} code words\n")

    downlink = OpticalDownlink(interleaver, code, channel,
                               rng=np.random.default_rng(2024))
    result = downlink.run_batched(frames=60)

    profile = result.channel_profile
    print(f"Channel produced {profile.error_symbols:,} symbol errors in "
          f"{profile.burst_count} bursts (longest {profile.max_burst} symbols)\n")

    rows = [
        ("without interleaver", result.baseline, result.max_errors_baseline),
        ("with interleaver", result.interleaved, result.max_errors_interleaved),
    ]
    for label, report, worst in rows:
        print(f"{label:22s} code-word failures: {report.failed:4d} / "
              f"{report.codewords}  (rate {report.codeword_error_rate:.3%}, "
              f"worst word: {worst} errors)")

    gain = result.gain
    gain_text = "all failures eliminated" if math.isinf(gain) else f"{gain:.1f}x"
    print(f"\nInterleaving gain: {gain_text}")
    print("Same errors, same code — the interleaver only *disperses* the")
    print("fades so no single code word exceeds the correction radius.")
    print("This is the function whose DRAM bandwidth the paper optimizes.")


if __name__ == "__main__":
    main()
