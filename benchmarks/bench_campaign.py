"""Campaign hot path: batched channel/decoder vs. the per-frame loop.

The acceptance bar for the Monte Carlo campaign engine: at 1000 frames
the batched path (native channel sampling, sparse position decode
through the precomputed two-stage permutation) must be >= 5x faster
than the per-frame ``run_frame`` loop while producing bit-identical
results (equality is asserted here on the full aggregate, and per-field
in ``tests/channel/test_batched_channel.py``).

The batched channel draws only the uniforms inside fades, so its cost
barely grows with the frame, while the per-frame loop still draws and
compares one uniform per symbol.  The speedup is therefore smallest on
small frames, and the assertion runs on the campaign's small default
cell (triangle 15); larger cells are reported in ``extra_info``.

The native route of ``run_batched`` (one call that samples the channel
and decodes both arms) is timed against the dense route it replaces,
on a default-grid channel and on a short-dwell channel where its
per-fade bookkeeping is the worst case.
"""

import time

import numpy as np
import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram import _kernelc
from repro.interleaver.two_stage import TwoStageConfig
from repro.system.campaign import campaign_grid, run_campaign
from repro.system.downlink import OpticalDownlink

FRAMES = 1000
CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)
#: Mean fade of two symbols: ~1200 fade runs in every n=48 frame.
SHORT_DWELL = GilbertElliottParams(p_g2b=0.5, p_b2g=0.5, p_bad=0.7)
#: Frames per ``run_batched`` call: one dense-route block.
SAMPLE_BATCH = OpticalDownlink.BATCH_FRAMES


def _downlink(triangle_n, seed=3, params=CHANNEL):
    return OpticalDownlink(
        TwoStageConfig(triangle_n=triangle_n, symbols_per_element=4,
                       codeword_symbols=24),
        CODE,
        params,
        rng=np.random.default_rng(seed),
    )


def _best_of(make_runner, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        runner = make_runner()
        start = time.perf_counter()
        result = runner()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.paper_artifact("campaign hot path speedup")
def test_batched_channel_speedup(benchmark):
    speedups = {}
    for triangle_n in (15, 32, 48):
        per_frame_s, reference = _best_of(
            lambda n=triangle_n: lambda: _downlink(n).run(FRAMES))
        batched_s, outcome = _best_of(
            lambda n=triangle_n: lambda: _downlink(n).run_batched(FRAMES))
        assert outcome == reference, "batched path must be bit-identical"
        speedups[triangle_n] = per_frame_s / batched_s
        benchmark.extra_info[f"per_frame_ms_n{triangle_n}"] = round(
            per_frame_s * 1e3, 1)
        benchmark.extra_info[f"batched_ms_n{triangle_n}"] = round(
            batched_s * 1e3, 1)
        benchmark.extra_info[f"speedup_n{triangle_n}"] = round(
            speedups[triangle_n], 1)

    # Time the asserted configuration once more under the harness.
    benchmark.pedantic(_downlink(15).run_batched, args=(FRAMES,),
                       rounds=1, iterations=1)
    if not benchmark.disabled:  # smoke runs only check for rot, not timing
        assert speedups[15] >= 5.0, (
            f"batched path only {speedups[15]:.1f}x faster at 1000 frames; "
            f"all: { {n: round(s, 1) for n, s in speedups.items()} }"
        )


def _route_runner(params, batches):
    """A runner making ``batches`` n=48 ``run_batched`` calls from a fresh seed-11 downlink."""
    downlink = _downlink(48, seed=11, params=params)
    return lambda: [downlink.run_batched(SAMPLE_BATCH)
                    for _ in range(batches)]


@pytest.mark.paper_artifact("channel skip-ahead speedup")
def test_skip_ahead_channel_sampling(benchmark, monkeypatch):
    """``run_batched`` on the native route vs the dense route (sampler patched out)."""
    if _kernelc.load_sampler() is None:
        pytest.skip("native channel sampler unavailable (no compiler, no "
                    "libnpyrandom.a, or REPRO_KERNEL_NATIVE=0): "
                    "run_batched would time the dense route twice")
    ratios = {}
    for name, params, batches in (("default", CHANNEL, 8),
                                  ("short_dwell", SHORT_DWELL, 1)):
        with monkeypatch.context() as patch:
            patch.setitem(_kernelc._libraries, "sampler", None)
            dense_s, dense = _best_of(lambda: _route_runner(params, batches))
        native_s, native = _best_of(lambda: _route_runner(params, batches))
        assert native == dense, (
            f"native route results differ from the dense route on {name}")
        ratios[name] = native_s / dense_s
        benchmark.extra_info[f"dense_ms_{name}"] = round(dense_s * 1e3, 2)
        benchmark.extra_info[f"native_ms_{name}"] = round(native_s * 1e3, 2)
    benchmark.extra_info["speedup_default"] = round(1 / ratios["default"], 2)
    benchmark.extra_info["time_ratio_short_dwell"] = round(
        ratios["short_dwell"], 2)

    benchmark.pedantic(_route_runner(CHANNEL, 8), rounds=1, iterations=1)
    if not benchmark.disabled:  # smoke runs only check for rot, not timing
        assert ratios["default"] <= 1 / 3, (
            f"native route only {1 / ratios['default']:.1f}x faster than "
            f"dense on the default-grid channel (need >= 3x)")
        assert ratios["short_dwell"] <= 1.5, (
            f"native route takes {ratios['short_dwell']:.2f}x the dense "
            f"time on the short-dwell channel (allowed <= 1.5x)")


@pytest.mark.paper_artifact("campaign throughput")
def test_campaign_100_cells(benchmark):
    """A >= 100-cell campaign (the CLI acceptance grid) end to end."""
    channels = [
        GilbertElliottParams(p_g2b=fraction / (1 - fraction) / length,
                             p_b2g=1.0 / length, p_bad=0.7)
        for length in (40.0, 60.0, 90.0)
        for fraction in (0.002, 0.004, 0.008)
    ]
    interleavers = [
        TwoStageConfig(triangle_n=n, symbols_per_element=4, codeword_symbols=24)
        for n in (15, 32)
    ]
    cells = campaign_grid(channels, interleavers, [CODE], range(6), frames=200)
    assert len(cells) >= 100
    results = benchmark.pedantic(run_campaign, args=(cells,),
                                 rounds=1, iterations=1)
    benchmark.extra_info["cells"] = len(results)
    benchmark.extra_info["frames"] = sum(r.cell.frames for r in results)
    benchmark.extra_info["codewords"] = sum(r.codewords for r in results)
    failed = sum(r.failed_interleaved for r in results)
    benchmark.extra_info["pooled_interleaved_cwer"] = round(
        failed / sum(r.codewords for r in results), 6)
    assert len(results) == len(cells)
