"""Weather and multi-pass scenario builders: structure and equivalence.

The two trajectory builders added with the scheduling-policy PR make
falsifiable promises (:mod:`repro.system.adaptive`):

* :func:`~repro.system.adaptive.weather_segments` — fade statistics
  scale by the linear attenuation factor ``10^(A/10)``, so they are
  **monotone in the attenuation**: thicker clouds never shorten fades
  or shrink the fade time fraction (clipped at 0.5), and 0 dB is
  exactly the clear-sky channel;
* :func:`~repro.system.adaptive.multi_pass_segments` — a multi-pass
  contact window **is** the single-pass trajectory concatenated
  ``passes`` times (relabeled ``p<k>:``), and evaluating it batched
  equals running each pass's segments through the scalar per-frame
  downlink in sequence on the shared generator.

Both builders run through the batched/scalar differential
(:func:`~repro.system.adaptive.evaluate_scenario` vs
``oracles.adaptive.evaluate_scenario_reference``,
bit-identical), and the two new headline tables — the policy-axis
utilization grid and the multi-pass scenario table — are golden-pinned
byte-for-byte under ``tests/golden/``.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from oracles.adaptive import evaluate_scenario_reference
from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import coherence_params
from repro.interleaver.two_stage import TwoStageConfig
from repro.system.adaptive import (
    CONTACT_PASS_ELEVATIONS_DEG,
    WEATHER_ATTENUATIONS_DB,
    ScenarioCell,
    contact_pass_segments,
    evaluate_scenario,
    format_scenario,
    multi_pass_segments,
    weather_segments,
)
from repro.system.downlink import OpticalDownlink
from repro.system.sweep import format_policy_table, run_policy_table

INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")


def _cell(segments, seed=3):
    return ScenarioCell(segments=segments, interleaver=INTERLEAVER,
                        code=CODE, seed=seed)


class TestWeatherSegments:
    def test_monotone_in_attenuation(self):
        """More cloud never means shorter fades or a smaller bad
        fraction — across an increasing ramp the statistics ratchet."""
        ramp = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0)
        segments = weather_segments(attenuations_db=ramp,
                                    frames_per_segment=1)
        fades = [s.channel.mean_fade_symbols for s in segments]
        fractions = [s.channel.stationary_bad for s in segments]
        assert fades == sorted(fades)
        assert fractions == sorted(fractions)
        # strictly, while the 0.5 fraction clip is not binding
        assert fades[0] < fades[1] < fades[2]
        assert fractions[0] < fractions[1] < fractions[2]

    def test_zero_db_is_the_clear_sky_channel(self):
        segment = weather_segments(attenuations_db=(0.0,),
                                   clear_fade_symbols=40.0,
                                   clear_fade_fraction=0.002)[0]
        assert segment.channel == coherence_params(40.0, 0.002, p_bad=0.7,
                                                   p_good=0.0)
        assert segment.label == "att=0dB"

    def test_attenuation_factor_is_linear_power(self):
        clear, cloudy = weather_segments(attenuations_db=(0.0, 10.0),
                                         clear_fade_fraction=0.002)
        factor = (cloudy.channel.mean_fade_symbols
                  / clear.channel.mean_fade_symbols)
        assert factor == pytest.approx(10.0)  # 10 dB = 10x linear

    def test_fraction_clips_at_half(self):
        deep = weather_segments(attenuations_db=(40.0,),
                                clear_fade_fraction=0.002)[0]
        assert deep.channel.stationary_bad <= 0.5 + 1e-12

    def test_default_trace_shape(self):
        segments = weather_segments()
        assert len(segments) == len(WEATHER_ATTENUATIONS_DB)
        assert [s.label for s in segments][:3] == \
            ["att=0dB", "att=1dB", "att=2dB"]

    def test_batched_equals_scalar_reference(self):
        cell = _cell(weather_segments(frames_per_segment=4), seed=11)
        assert evaluate_scenario(cell) == evaluate_scenario_reference(cell)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(attenuations_db=()), "non-empty"),
        (dict(attenuations_db=(-1.0,)), ">= 0 dB"),
        (dict(frames_per_segment=0), "frames_per_segment"),
        (dict(clear_fade_symbols=1.0), "exceed one symbol"),
        (dict(clear_fade_fraction=0.6), r"\(0, 0.5\]"),
    ])
    def test_rejects_bad_arguments(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            weather_segments(**kwargs)


class TestMultiPassSegments:
    def test_is_the_single_pass_concatenated(self):
        single = contact_pass_segments(frames_per_segment=2)
        triple = multi_pass_segments(passes=3, frames_per_segment=2)
        expected = tuple(
            replace(segment, label=f"p{index}:{segment.label}")
            for index in (1, 2, 3) for segment in single)
        assert triple == expected
        assert len(triple) == 3 * len(CONTACT_PASS_ELEVATIONS_DEG)

    def test_one_pass_is_the_contact_pass_relabeled(self):
        single = multi_pass_segments(passes=1, frames_per_segment=2)
        plain = contact_pass_segments(frames_per_segment=2)
        assert tuple(s.channel for s in single) == \
            tuple(s.channel for s in plain)
        assert [s.label for s in single] == \
            [f"p1:{s.label}" for s in plain]

    def test_batched_equals_per_pass_scalar_references(self):
        """The concatenation identity, end to end: evaluating the
        multi-pass trajectory batched equals driving each pass's
        segments through the scalar per-frame downlink in sequence on
        one shared generator."""
        passes, frames = 2, 3
        cell = _cell(multi_pass_segments(passes=passes,
                                         frames_per_segment=frames),
                     seed=23)
        batched = evaluate_scenario(cell)

        rng = np.random.default_rng(cell.seed)
        single = contact_pass_segments(frames_per_segment=frames)
        scalar_counts = []
        for _ in range(passes):
            for segment in single:
                downlink = OpticalDownlink(cell.interleaver, cell.code,
                                           segment.channel, rng=rng)
                outcome = downlink.run(segment.frames)
                scalar_counts.append((outcome.interleaved.codewords,
                                      outcome.interleaved.failed,
                                      outcome.baseline.failed,
                                      outcome.channel_profile.error_symbols))
        assert [(s.codewords, s.failed_interleaved, s.failed_baseline,
                 s.error_symbols) for s in batched.segments] == scalar_counts

    def test_batched_equals_scalar_reference(self):
        cell = _cell(multi_pass_segments(passes=2, frames_per_segment=3),
                     seed=29)
        assert evaluate_scenario(cell) == evaluate_scenario_reference(cell)

    def test_rejects_zero_passes(self):
        with pytest.raises(ValueError, match="passes must be >= 1"):
            multi_pass_segments(passes=0)


class TestGoldenPins:
    """Byte-for-byte pins of the two new headline tables.

    Deterministic outputs, so any diff means a scheduler, channel or
    formatting change moved an artifact — always a conscious decision
    (regenerate per the module docstrings of the golden files' tests
    and update the file in the same commit).
    """

    def test_policy_table_matches_golden(self):
        path = os.path.join(GOLDEN_DIR, "policy_table_n48.txt")
        with open(path) as stream:
            expected = stream.read()
        rows = run_policy_table(n=48, config_names=("DDR4-3200",
                                                    "LPDDR5-8533"))
        assert format_policy_table(rows) + "\n" == expected, (
            "policy table drifted from tests/golden/policy_table_n48.txt "
            "— if the change is intentional, regenerate the golden file."
        )

    def test_multipass_scenario_matches_golden(self):
        path = os.path.join(GOLDEN_DIR, "scenario_multipass.txt")
        with open(path) as stream:
            expected = stream.read()
        segments = multi_pass_segments(passes=2, frames_per_segment=2)
        results = [evaluate_scenario(_cell(segments, seed=seed))
                   for seed in (0, 1)]
        assert format_scenario(results) + "\n" == expected, (
            "multi-pass scenario table drifted from "
            "tests/golden/scenario_multipass.txt — if the change is "
            "intentional, regenerate the golden file."
        )
