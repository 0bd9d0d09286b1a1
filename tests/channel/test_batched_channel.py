"""Differential tests: the batched channel/decoder path is bit-identical
to the per-frame path (the channel-side mirror of
``tests/integration/test_vectorized_equivalence.py``).

Every test runs two generators from the same seed — one through the
scalar per-frame API, one through the 2-D batch API — and requires
exact equality: same RNG consumption order, same masks, same
``DecodingReport`` fields, same aggregate ``DownlinkResult``.
"""

import numpy as np
import pytest

from repro.channel.burst_stats import (
    burst_profile,
    errors_per_codeword,
    frame_burst_arrays,
)
from repro.channel.codeword import CodewordConfig, decode_mask, report_from_counts
from repro.channel.gilbert_elliott import (
    BAD,
    GilbertElliottChannel,
    GilbertElliottParams,
)
from repro.dram import _kernelc
from repro.interleaver.two_stage import TwoStageConfig, TwoStageInterleaver
from repro.system.downlink import OpticalDownlink, merge_decoding_reports

# >= 20 seeded parameter sets spanning sparse/dense fades, short/long
# dwells, clean and noisy good states.
PARAM_SETS = [
    (seed, GilbertElliottParams(p_g2b=p_g2b, p_b2g=p_b2g,
                                p_bad=p_bad, p_good=p_good))
    for seed, p_g2b, p_b2g, p_bad, p_good in [
        (101, 6.7e-5, 1 / 60.0, 0.7, 0.0),
        (102, 6.7e-5, 1 / 60.0, 0.7, 0.001),
        (103, 2.7e-5, 1 / 150.0, 0.5, 0.0),
        (104, 1.0e-3, 1 / 20.0, 0.9, 0.0),
        (105, 1.0e-3, 1 / 20.0, 0.9, 0.01),
        (106, 0.01, 0.1, 0.6, 0.0),
        (107, 0.01, 0.1, 0.6, 0.05),
        (108, 0.05, 0.5, 0.5, 0.0),
        (109, 0.2, 0.3, 0.8, 0.0),
        (110, 0.5, 0.5, 1.0, 0.0),
        (111, 1.0, 1.0, 0.7, 0.0),
        (112, 1e-6, 1e-4, 0.7, 0.0),
        (113, 1e-4, 1e-3, 0.3, 0.0),
        (114, 3e-4, 1 / 90.0, 0.7, 0.0),
        (115, 3e-4, 1 / 90.0, 0.7, 0.002),
        (116, 5e-5, 1 / 40.0, 0.7, 0.0),
        (117, 5e-5, 1 / 40.0, 0.4, 0.0),
        (118, 2e-4, 1 / 75.0, 0.95, 0.0),
        (119, 8e-4, 1 / 30.0, 0.7, 0.1),
        (120, 1e-3, 1 / 500.0, 0.7, 0.0),
        (121, 0.1, 0.05, 0.7, 0.0),
        (122, 6.7e-5, 1 / 60.0, 0.0, 0.0),
    ]
]
PARAM_IDS = [f"seed{seed}" for seed, _ in PARAM_SETS]


def _channel_pair(seed, params):
    return (GilbertElliottChannel(params, np.random.default_rng(seed)),
            GilbertElliottChannel(params, np.random.default_rng(seed)))


class TestChannelMasks:
    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_state_masks_match_sequential(self, seed, params):
        """The dense route's batch draws each frame as sequential calls do.

        Fades and uniforms are compared apart, so a chain that drifts
        shows even where ``p_bad == 0`` leaves every error mask clear.
        """
        batched, sequential = _channel_pair(seed, params)
        fades, draws = batched._sample_batch(257, 9)
        for f in range(9):
            assert np.array_equal(fades[f], sequential.state_mask(257))
            assert np.array_equal(draws[f], sequential.rng.random(257))

    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_error_masks_match_sequential(self, seed, params):
        batched, sequential = _channel_pair(seed, params)
        got = batched.error_masks(311, 8)
        expected = np.stack([sequential.error_mask(311) for _ in range(8)])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_error_positions_match_masks(self, seed, params):
        batched, sequential = _channel_pair(seed, params)
        frame_idx, sym_idx = batched.error_positions(311, 8)
        expected = np.nonzero(
            np.stack([sequential.error_mask(311) for _ in range(8)]))
        assert np.array_equal(frame_idx, expected[0])
        assert np.array_equal(sym_idx, expected[1])

    def test_state_continues_across_batches(self):
        params = GilbertElliottParams(p_g2b=1e-3, p_b2g=1 / 200.0, p_bad=0.7)
        batched, sequential = _channel_pair(7, params)
        first = batched.error_masks(100, 3)
        second = batched.error_masks(100, 3)
        expected = np.stack([sequential.error_mask(100) for _ in range(6)])
        assert np.array_equal(np.vstack([first, second]), expected)

    def test_zero_frames_and_zero_count(self):
        params = GilbertElliottParams(p_g2b=0.01, p_b2g=0.1)
        channel = GilbertElliottChannel(params, np.random.default_rng(0))
        assert channel.error_masks(10, 0).shape == (0, 10)
        assert channel.error_masks(0, 4).shape == (4, 0)

    def test_rejects_negative_arguments(self):
        params = GilbertElliottParams(p_g2b=0.01, p_b2g=0.1)
        channel = GilbertElliottChannel(params, np.random.default_rng(0))
        with pytest.raises(ValueError):
            channel.error_masks(-1, 3)
        with pytest.raises(ValueError):
            channel.error_positions(-1, 3)
        with pytest.raises(ValueError):
            channel.error_positions(5, -2)


def _same_state(a, b):
    """Bit generator states are nested dicts; MT19937's holds an array."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _dense_only(*args):
    raise AssertionError("native-route batch took the dense path")


#: Downlink geometries of the native-vs-dense battery: the smallest
#: triangle, and the campaign grid's smallest and largest.
GEOMETRIES = [
    (TwoStageConfig(triangle_n=3, symbols_per_element=1, codeword_symbols=6),
     CodewordConfig(n_symbols=6, t_correctable=1)),
    (TwoStageConfig(triangle_n=15, symbols_per_element=4, codeword_symbols=24),
     CodewordConfig(n_symbols=24, t_correctable=2)),
    (TwoStageConfig(triangle_n=48, symbols_per_element=4, codeword_symbols=24),
     CodewordConfig(n_symbols=24, t_correctable=2)),
]


class TestSkipAhead:
    """``run_batched`` on the native route against the dense route.

    The reference is the same downlink with the native sampler patched
    out.  After every call of three, the ``DownlinkResult``, the bit
    generator's state and the chain state must all equal the
    reference's.  Calls with ``p_good == 0`` on a fresh ``default_rng``
    must take the native route, one ``sample_fade_decode`` call per
    ``run_batched``, when the sampler loads, and the dense route when
    it does not (no compiler, ``REPRO_KERNEL_NATIVE=0``); every other
    generator must take the dense route.
    """

    #: Frame counts on each geometry: one frame, a partial, a full and
    #: a multi-block dense batch.  400 frames of n=48 are left out: on
    #: the short-dwell channels their dense reference alone takes
    #: longer than the rest of the battery.
    SHAPES = [(geometry, frames)
              for geometry in GEOMETRIES for frames in (1, 50, 128, 400)
              if (geometry[0].triangle_n, frames) != (48, 400)]
    SHAPE_IDS = [f"n{geometry[0].triangle_n}-{frames}"
                 for geometry, frames in SHAPES]

    @staticmethod
    def _downlink(seed, params, geometry=GEOMETRIES[1], rng=None):
        config, code = geometry
        return OpticalDownlink(config, code, params,
                               rng=rng or np.random.default_rng(seed))

    @staticmethod
    def _assert_calls_match(downlink, reference, frames, monkeypatch):
        for _ in range(3):
            got = downlink.run_batched(frames)
            with monkeypatch.context() as patch:
                patch.setitem(_kernelc._libraries, "sampler", None)
                expected = reference.run_batched(frames)
            assert got == expected
            assert _same_state(downlink.channel.rng.bit_generator.state,
                               reference.channel.rng.bit_generator.state)
            assert downlink.channel._state == reference.channel._state

    @staticmethod
    def _pin_dense(downlink, monkeypatch):
        """Fail the test if the downlink's batches take the native route."""
        sample_decode = downlink.channel.sample_decode

        def dense_only(*args):
            fused = sample_decode(*args)
            assert fused is None, "dense-route batch took the native route"
            return fused
        monkeypatch.setattr(downlink.channel, "sample_decode", dense_only)

    @classmethod
    def _pin_route(cls, downlink, monkeypatch):
        """Make the route a fresh ``default_rng`` batch must not take raise."""
        if (downlink.channel.params.p_good == 0.0
                and _kernelc.load_sampler() is not None):
            monkeypatch.setattr(downlink.channel, "error_positions",
                                _dense_only)
        else:
            cls._pin_dense(downlink, monkeypatch)

    @pytest.mark.parametrize("geometry,frames", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_matches_dense_route(self, seed, params, geometry, frames,
                                 monkeypatch):
        downlink, reference = (self._downlink(seed, params, geometry)
                               for _ in range(2))
        self._pin_route(downlink, monkeypatch)
        self._assert_calls_match(downlink, reference, frames, monkeypatch)

    def test_one_native_call_per_batch(self, monkeypatch):
        sampler = _kernelc.load_sampler()
        if sampler is None:
            pytest.skip("native channel sampler unavailable")
        ffi, lib = sampler
        calls = []

        class CountingSampler:
            def sample_fade_decode(self, *args):
                calls.append(args[3])  # the batch's frame count
                return lib.sample_fade_decode(*args)
        monkeypatch.setitem(_kernelc._libraries, "sampler",
                            (ffi, CountingSampler()))
        downlink = self._downlink(*PARAM_SETS[0], GEOMETRIES[2])
        self._pin_route(downlink, monkeypatch)
        downlink.run_batched(400)
        assert calls == [400]

    def test_batch_inside_one_fade(self, monkeypatch):
        """Every symbol of every frame in a fade, so every uniform is drawn."""
        params = GilbertElliottParams(p_g2b=1e-6, p_b2g=1e-9, p_bad=0.9)
        downlink, reference = (self._downlink(3, params) for _ in range(2))
        for channel in (downlink.channel, reference.channel):
            channel._state = BAD  # a fade that outlasts the batches
        self._pin_route(downlink, monkeypatch)
        self._assert_calls_match(downlink, reference, 128, monkeypatch)
        assert downlink.channel._state == BAD
        profile = downlink.run_batched(8).channel_profile
        assert profile.error_symbols > 0.8 * profile.total_symbols

    def test_rejects_a_map_outside_the_code_words(self):
        """A bad decode map fails before the native call draws anything."""
        if _kernelc.load_sampler() is None:
            pytest.skip("native channel sampler unavailable")
        channel = GilbertElliottChannel(PARAM_SETS[0][1],
                                        np.random.default_rng(1))
        before = channel.rng.bit_generator.state
        code = CodewordConfig(n_symbols=6, t_correctable=1)
        for word_of in (np.full(12, 2), np.zeros(13, dtype=np.int64),
                        np.full(12, -1)):
            with pytest.raises(ValueError, match="whole code words"):
                channel.sample_decode(word_of, code, 3)
        assert _same_state(channel.rng.bit_generator.state, before)

    def test_missing_archive_takes_dense_route(self, tmp_path, monkeypatch):
        """Without NumPy's ``libnpyrandom.a`` only the channel leaves the native route."""
        kernel_native = _kernelc.available()
        monkeypatch.setattr(_kernelc, "_libraries", {})
        monkeypatch.setattr(_kernelc, "_npyrandom_archive",
                            lambda: str(tmp_path / "libnpyrandom.a"))
        assert _kernelc.available() == kernel_native
        assert _kernelc.load_sampler() is None
        downlink, reference = (self._downlink(*PARAM_SETS[0], GEOMETRIES[2])
                               for _ in range(2))
        self._pin_dense(downlink, monkeypatch)
        self._assert_calls_match(downlink, reference, 128, monkeypatch)

    @pytest.mark.parametrize("bit_generator",
                             ["MT19937", "SFC64", "Philox", "PCG64DXSM"])
    def test_other_bit_generators_fall_back(self, bit_generator, monkeypatch):
        params = PARAM_SETS[0][1]
        downlink, reference = (
            self._downlink(0, params, rng=np.random.Generator(
                getattr(np.random, bit_generator)(5)))
            for _ in range(2))
        self._pin_dense(downlink, monkeypatch)
        self._assert_calls_match(downlink, reference, 50, monkeypatch)

    @pytest.mark.parametrize("float32_draws", [1, 2],
                             ids=["buffered-half", "stale-word"])
    def test_buffered_half_falls_back(self, float32_draws, monkeypatch):
        """A generator holding a buffered half or its stale word goes dense.

        One float32 draw buffers a 32-bit half; a second consumes it but
        leaves the word in the state.
        """
        params = PARAM_SETS[0][1]
        rngs = [np.random.default_rng(9) for _ in range(2)]
        for rng in rngs:
            for _ in range(float32_draws):
                rng.random(dtype=np.float32)
        assert rngs[0].bit_generator.state["uinteger"] != 0
        downlink, reference = (self._downlink(0, params, rng=rng)
                               for rng in rngs)
        self._pin_dense(downlink, monkeypatch)
        self._assert_calls_match(downlink, reference, 50, monkeypatch)


def _assert_columns_match_profiles(masks):
    """``frame_burst_arrays`` of a batch holds ``burst_profile`` of each row."""
    arrays = frame_burst_arrays(*np.nonzero(masks), *masks.shape)
    profiles = [burst_profile(row) for row in masks]
    assert arrays.symbols == masks.shape[1]
    assert arrays.error_counts.tolist() == [p.error_symbols for p in profiles]
    assert arrays.burst_counts.tolist() == [p.burst_count for p in profiles]
    assert arrays.max_lengths.tolist() == [p.max_burst for p in profiles]
    assert arrays.mean_lengths.tolist() == [p.mean_burst for p in profiles]


class TestBatchedDecoding:
    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_block_report_matches_per_frame(self, seed, params):
        """One fold of a block's 2-D counts, as the dense route decodes,
        equals each frame's ``decode_mask`` merged."""
        channel = GilbertElliottChannel(params, np.random.default_rng(seed))
        masks = channel.error_masks(312, 6)
        config = CodewordConfig(n_symbols=24, t_correctable=2)
        counts = np.stack([errors_per_codeword(row, 24) for row in masks])
        assert report_from_counts(counts, config) == merge_decoding_reports(
            [decode_mask(row, config) for row in masks])


class TestFrameBurstArrays:
    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_frame_burst_arrays_match(self, seed, params):
        channel = GilbertElliottChannel(params, np.random.default_rng(seed))
        _assert_columns_match_profiles(channel.error_masks(311, 7))

    def test_empty_and_full_masks(self):
        _assert_columns_match_profiles(np.zeros((3, 32), dtype=bool))
        _assert_columns_match_profiles(np.ones((3, 32), dtype=bool))


class TestTwoStagePermutation:
    CONFIGS = [
        TwoStageConfig(triangle_n=8, symbols_per_element=4, codeword_symbols=36),
        TwoStageConfig(triangle_n=15, symbols_per_element=4, codeword_symbols=24),
        TwoStageConfig(triangle_n=3, symbols_per_element=1, codeword_symbols=6),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: f"n{c.triangle_n}")
    def test_permutation_realizes_interleave(self, config):
        interleaver = TwoStageInterleaver(config)
        data = np.random.default_rng(2).integers(
            0, 1000, size=interleaver.frame_symbols)
        perm = interleaver.permutation()
        assert np.array_equal(interleaver.interleave(data), data[perm])
        assert np.array_equal(interleaver.deinterleave(data[perm]), data)


class TestBatchedDownlink:
    """run_batched == run, the end-to-end differential guarantee."""

    SCENARIOS = [
        (seed, n, p_good)
        for seed in (1, 7, 99, 2024)
        for n in (15, 32, 48)
        for p_good in (0.0, 0.004)
    ]

    @staticmethod
    def _downlink(seed, n, p_good):
        return OpticalDownlink(
            TwoStageConfig(triangle_n=n, symbols_per_element=4,
                           codeword_symbols=24),
            CodewordConfig(n_symbols=24, t_correctable=2),
            GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                                 p_bad=0.7, p_good=p_good),
            rng=np.random.default_rng(seed),
        )

    @pytest.mark.parametrize("seed,n,p_good", SCENARIOS)
    def test_run_batched_equals_run(self, seed, n, p_good):
        reference = self._downlink(seed, n, p_good).run(40)
        batched = self._downlink(seed, n, p_good).run_batched(40)
        assert batched == reference

    @pytest.mark.parametrize("seed,params", PARAM_SETS, ids=PARAM_IDS)
    def test_run_batched_matches_run_frame(self, seed, params):
        """Frame by frame, either route equals the per-frame reference."""
        config, code = GEOMETRIES[1]
        batched, reference = (
            OpticalDownlink(config, code, params,
                            rng=np.random.default_rng(seed))
            for _ in range(2))
        for _ in range(5):
            assert batched.run_batched(1) == reference.run_frame()

    def test_chunking_does_not_change_results(self, monkeypatch):
        """Dense-route blocking (``p_good > 0``) leaves the result alone."""
        monkeypatch.setattr(OpticalDownlink, "BATCH_FRAMES", 50)
        reference = self._downlink(3, 32, 0.004).run_batched(50)
        for batch_frames in (1, 7, 16, 49, 128):
            monkeypatch.setattr(OpticalDownlink, "BATCH_FRAMES", batch_frames)
            assert self._downlink(3, 32, 0.004).run_batched(50) == reference

    def test_run_batched_rejects_bad_arguments(self):
        downlink = self._downlink(0, 15, 0.0)
        with pytest.raises(ValueError):
            downlink.run_batched(0)
