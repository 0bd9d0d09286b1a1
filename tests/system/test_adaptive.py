"""Differential batteries for the adaptive/rare-event campaign engine.

Three proof obligations, mirroring the module's claims:

* adaptive stopping is **bit-identical** to a fixed-frame run of the
  frames it actually spent, for any batch size;
* the rare-event importance sampler is **exact**: per-trajectory
  ``q * weight == p`` on an exhaustively enumerable frame, exact-mean
  agreement on an analytically checkable grid, and CI overlap with
  naive Monte Carlo where both are feasible;
* scenario cells are **bit-identical** to the scalar per-segment
  reference, and a single-segment scenario reproduces the plain
  campaign cell exactly.
"""

import numpy as np
import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import (
    GilbertElliottParams,
    coherence_params,
)
from repro.interleaver.two_stage import TwoStageConfig, TwoStageInterleaver
from repro.store.store import ResultStore
from repro.system.adaptive import (
    AdaptiveCell,
    AdaptiveResult,
    RareEventCell,
    RareEventResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSegment,
    contact_pass_segments,
    default_proposal,
    evaluate_adaptive,
    evaluate_rare_event,
    evaluate_scenario,
    evaluate_scenario_reference,
    format_adaptive,
    format_rare_event,
    format_scenario,
    frame_weight,
    half_width,
    transition_counts,
)
from repro.system.campaign import CampaignCell, evaluate_cell
from repro.system.parallel import run_tasks
from repro.viz import render_adaptive_savings

CHANNEL = coherence_params(40.0, 0.002, p_bad=0.7)
HARD_CHANNEL = coherence_params(60.0, 0.008, p_bad=0.7)
INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)


def _adaptive(seed=7, max_frames=600, ci_width=5e-3, ci_rel=None,
              batch_frames=128, channel=CHANNEL):
    return AdaptiveCell(channel=channel, interleaver=INTERLEAVER, code=CODE,
                        seed=seed, max_frames=max_frames, ci_width=ci_width,
                        ci_rel=ci_rel, batch_frames=batch_frames)


class TestAdaptiveCellValidation:
    def test_rejects_zero_max_frames(self):
        with pytest.raises(ValueError, match="max_frames"):
            _adaptive(max_frames=0)

    def test_rejects_zero_batch_frames(self):
        with pytest.raises(ValueError, match="batch_frames"):
            _adaptive(batch_frames=0)

    def test_rejects_missing_target(self):
        with pytest.raises(ValueError, match="stopping target"):
            _adaptive(ci_width=None, ci_rel=None)

    def test_rejects_non_positive_targets(self):
        with pytest.raises(ValueError, match="ci_width"):
            _adaptive(ci_width=0.0)
        with pytest.raises(ValueError, match="ci_rel"):
            _adaptive(ci_width=None, ci_rel=-0.5)

    def test_rejects_dimension_mismatch(self):
        bad_code = CodewordConfig(n_symbols=12, t_correctable=2)
        with pytest.raises(ValueError, match="codeword_symbols"):
            AdaptiveCell(channel=CHANNEL, interleaver=INTERLEAVER,
                         code=bad_code, seed=1, max_frames=10, ci_width=0.01)

    def test_roundtrips_through_dict(self):
        cell = _adaptive(ci_rel=0.25)
        assert AdaptiveCell.from_dict(cell.to_dict()) == cell


class TestAdaptiveBitIdentity:
    """The tentpole contract: stopping early never changes the counts."""

    @pytest.mark.parametrize("batch_frames", [128, 37, 1])
    def test_stopped_run_equals_fixed_run(self, batch_frames):
        outcome = evaluate_adaptive(_adaptive(batch_frames=batch_frames,
                                              max_frames=300))
        fixed = evaluate_cell(CampaignCell(
            channel=CHANNEL, interleaver=INTERLEAVER, code=CODE, seed=7,
            frames=outcome.frames_used))
        assert outcome.result == fixed

    def test_unreachable_target_runs_the_full_budget(self):
        # A relative target can never be met with zero failures, so the
        # cap fires — and the capped run is exactly the naive cell.
        cell = _adaptive(seed=2024, max_frames=90, ci_width=None,
                         ci_rel=0.01, batch_frames=40)
        outcome = evaluate_adaptive(cell)
        assert not outcome.converged
        assert outcome.frames_used == 90
        assert outcome.result == evaluate_cell(cell.fixed_cell(90))

    def test_last_batch_is_truncated_to_the_budget(self):
        # 90 frames in batches of 40 -> 40 + 40 + 10, never 120.
        outcome = evaluate_adaptive(_adaptive(
            seed=3, max_frames=90, ci_width=1e-9, batch_frames=40))
        assert outcome.frames_used == 90
        assert outcome.batches == 3

    def test_converged_cell_meets_its_target(self):
        outcome = evaluate_adaptive(_adaptive(seed=7, ci_width=5e-3))
        assert outcome.converged
        assert outcome.achieved_half_width <= 5e-3
        assert outcome.frames_used < outcome.cell.max_frames
        assert outcome.frames_saved_ratio > 1.0

    def test_relative_target_stops_after_failures(self):
        outcome = evaluate_adaptive(_adaptive(
            seed=5, channel=HARD_CHANNEL, max_frames=3000, ci_width=None,
            ci_rel=0.4))
        assert outcome.converged
        result = outcome.result
        rate = result.failure_rate_interleaved
        assert rate > 0.0
        assert outcome.achieved_half_width <= 0.4 * rate

    def test_half_width_matches_wilson_interval(self):
        assert half_width(0, 1000) == pytest.approx(
            (0.0038 - 0.0) / 2, abs=2e-4)
        low_high = half_width(5, 200)
        assert 0.0 < low_high < 0.05

    def test_jobs_do_not_perturb_results(self):
        cells = [_adaptive(seed=seed, max_frames=200) for seed in (1, 2, 3, 4)]
        assert run_tasks(cells, jobs=1) == run_tasks(cells, jobs=2)

    def test_store_roundtrip_and_reuse(self, tmp_path):
        cells = [_adaptive(seed=seed, max_frames=150) for seed in (1, 2)]
        store = ResultStore(str(tmp_path))
        first = run_tasks(cells, store=store)
        assert first == run_tasks(cells)  # storeless differential
        # Second run must be served from the store bit-identically.
        assert run_tasks(cells, store=store) == first
        loaded = store.load(cells[0])
        assert loaded == first[0]

    def test_result_roundtrips_through_dict(self):
        outcome = evaluate_adaptive(_adaptive(max_frames=100))
        assert AdaptiveResult.from_dict(outcome.to_dict()) == outcome


# A frame small enough to enumerate every state trajectory: triangle 3
# -> 6 elements x 1 symbol = 6 symbols, 3 two-symbol code words.
TINY_INTERLEAVER = TwoStageConfig(triangle_n=3, symbols_per_element=1,
                                  codeword_symbols=2)
TINY_CODE = CodewordConfig(n_symbols=2, t_correctable=0)
# p_bad=1, p_good=0 makes the error mask equal the state mask, so the
# failure count is a deterministic function of the trajectory and the
# exact mean is a finite sum over the 64 trajectories.
TINY_TRUE = GilbertElliottParams(p_g2b=0.05, p_b2g=0.5, p_bad=1.0, p_good=0.0)
TINY_PROPOSAL = default_proposal(TINY_TRUE, 3.0)


def _trajectory_probability(params, states):
    """Exact chain probability of ``states`` conditional on its start."""
    probability = 1.0
    for previous, current in zip(states[:-1], states[1:]):
        if previous:
            step = params.p_b2g if not current else 1.0 - params.p_b2g
        else:
            step = params.p_g2b if current else 1.0 - params.p_g2b
        probability *= step
    return probability


def _tiny_failures(states):
    """Failures of both arms when the error mask equals the state mask."""
    permutation = TwoStageInterleaver(TINY_INTERLEAVER).permutation()
    word_of_channel_pos = permutation // TINY_CODE.n_symbols
    errors = np.asarray(states, dtype=bool)
    counts_int = np.bincount(word_of_channel_pos[np.nonzero(errors)[0]],
                             minlength=3)
    counts_base = np.bincount(np.nonzero(errors)[0] // TINY_CODE.n_symbols,
                              minlength=3)
    threshold = TINY_CODE.t_correctable
    return (int(np.count_nonzero(counts_int > threshold)),
            int(np.count_nonzero(counts_base > threshold)))


def _enumerate_trajectories():
    """All 64 trajectories of the 6-symbol tiny frame with both laws."""
    for bits in range(64):
        states = np.array([(bits >> position) & 1 for position in range(6)],
                          dtype=bool)
        yield states


class TestRareEventExactness:
    def test_transition_counts(self):
        states = np.array([False, False, True, True, False, True])
        assert transition_counts(states) == (1, 2, 1, 1)

    def test_weight_is_exact_likelihood_ratio_per_trajectory(self):
        # The defining property, checked exhaustively: reweighting the
        # proposal law recovers the true law trajectory by trajectory.
        for states in _enumerate_trajectories():
            weight = frame_weight(TINY_TRUE, TINY_PROPOSAL, states)
            p = _trajectory_probability(TINY_TRUE, states)
            q = _trajectory_probability(TINY_PROPOSAL, states)
            assert q * weight == pytest.approx(p, rel=1e-12, abs=1e-300)

    def test_exact_mean_agreement_on_enumerable_grid(self):
        # E_q[W * failures] summed over every trajectory equals the
        # exact E_p[failures] — the estimator is unbiased, analytically.
        stationary = TINY_TRUE.stationary_bad
        exact = {"int": 0.0, "base": 0.0}
        weighted = {"int": 0.0, "base": 0.0}
        for states in _enumerate_trajectories():
            init_probability = stationary if states[0] else 1.0 - stationary
            failed_int, failed_base = _tiny_failures(states)
            p = _trajectory_probability(TINY_TRUE, states)
            q = _trajectory_probability(TINY_PROPOSAL, states)
            weight = frame_weight(TINY_TRUE, TINY_PROPOSAL, states)
            exact["int"] += init_probability * p * failed_int
            exact["base"] += init_probability * p * failed_base
            weighted["int"] += init_probability * q * weight * failed_int
            weighted["base"] += init_probability * q * weight * failed_base
        assert weighted["int"] == pytest.approx(exact["int"], rel=1e-12)
        assert weighted["base"] == pytest.approx(exact["base"], rel=1e-12)
        assert exact["base"] > 0.0  # the grid actually exercises failures

    def test_sampler_converges_to_the_exact_mean(self):
        # The exhaustive sum gives the exact per-frame failure mean;
        # the Monte Carlo estimate's 95% CI must contain rate = mean/3.
        stationary = TINY_TRUE.stationary_bad
        exact_base = sum(
            (stationary if states[0] else 1.0 - stationary)
            * _trajectory_probability(TINY_TRUE, states)
            * _tiny_failures(states)[1]
            for states in _enumerate_trajectories())
        cell = RareEventCell(channel=TINY_TRUE, proposal=TINY_PROPOSAL,
                             interleaver=TINY_INTERLEAVER, code=TINY_CODE,
                             seed=20240, frames=4000)
        result = evaluate_rare_event(cell)
        low, high = result.interval_baseline
        assert low <= exact_base / 3.0 <= high

    def test_boost_one_weights_are_exactly_unity(self):
        cell = RareEventCell(channel=CHANNEL,
                             proposal=default_proposal(CHANNEL, 1.0),
                             interleaver=INTERLEAVER, code=CODE,
                             seed=11, frames=50)
        result = evaluate_rare_event(cell)
        assert result.sum_weight == 50.0
        assert result.sum_weight_sq == 50.0
        assert result.effective_sample_size == 50.0

    def test_uniform_error_probability_matches_binomial(self):
        # With p_bad == p_good the states cancel out of the error law:
        # each word fails iff Bin(n=24, p) > t, an analytic number the
        # weighted CI must cover (weights still vary, E[W] = 1).
        p = 0.05
        channel = GilbertElliottParams(p_g2b=CHANNEL.p_g2b,
                                       p_b2g=CHANNEL.p_b2g,
                                       p_bad=p, p_good=p)
        cell = RareEventCell(channel=channel,
                             proposal=default_proposal(channel, 4.0),
                             interleaver=INTERLEAVER, code=CODE,
                             seed=77, frames=400)
        result = evaluate_rare_event(cell)
        from math import comb
        analytic = 1.0 - sum(
            comb(24, k) * p ** k * (1.0 - p) ** (24 - k)
            for k in range(CODE.t_correctable + 1))
        low, high = result.interval_baseline
        assert low <= analytic <= high
        low_i, high_i = result.interval_interleaved
        assert low_i <= analytic <= high_i

    def test_ci_overlaps_naive_monte_carlo(self):
        # Differential vs. brute force on a cell where both are
        # feasible: the two 95% intervals must intersect.
        naive = evaluate_cell(CampaignCell(
            channel=HARD_CHANNEL, interleaver=INTERLEAVER, code=CODE,
            seed=13, frames=1200))
        assert naive.failed_baseline > 0  # brute force actually observes
        rare = evaluate_rare_event(RareEventCell(
            channel=HARD_CHANNEL, proposal=default_proposal(HARD_CHANNEL, 4.0),
            interleaver=INTERLEAVER, code=CODE, seed=13, frames=1200))
        for naive_ci, rare_ci in ((naive.interval_baseline,
                                   rare.interval_baseline),
                                  (naive.interval_interleaved,
                                   rare.interval_interleaved)):
            assert max(naive_ci[0], rare_ci[0]) <= min(naive_ci[1],
                                                       rare_ci[1])

    def test_finds_failures_naive_sampling_misses(self):
        # The rare-event selling point: at a frame budget where naive
        # MC observes nothing, the boosted proposal still measures a
        # positive failure rate.
        rare_channel = coherence_params(60.0, 0.0002, p_bad=0.7)
        frames = 40
        naive = evaluate_cell(CampaignCell(
            channel=rare_channel, interleaver=INTERLEAVER, code=CODE,
            seed=6, frames=frames))
        assert naive.failed_baseline == 0
        rare = evaluate_rare_event(RareEventCell(
            channel=rare_channel,
            proposal=default_proposal(rare_channel, 100.0),
            interleaver=INTERLEAVER, code=CODE, seed=6, frames=frames))
        assert rare.raw_failed_baseline > 0
        assert rare.failure_rate_baseline > 0.0

    def test_rejects_mismatched_error_probabilities(self):
        proposal = GilbertElliottParams(p_g2b=CHANNEL.p_g2b * 2,
                                        p_b2g=CHANNEL.p_b2g / 2,
                                        p_bad=0.5, p_good=0.0)
        with pytest.raises(ValueError, match="in-state error"):
            RareEventCell(channel=CHANNEL, proposal=proposal,
                          interleaver=INTERLEAVER, code=CODE,
                          seed=1, frames=10)

    def test_rejects_zero_frames_and_bad_boost(self):
        with pytest.raises(ValueError, match="frames"):
            RareEventCell(channel=CHANNEL,
                          proposal=default_proposal(CHANNEL, 2.0),
                          interleaver=INTERLEAVER, code=CODE,
                          seed=1, frames=0)
        with pytest.raises(ValueError, match="boost"):
            default_proposal(CHANNEL, 0.5)

    def test_single_frame_interval_is_vacuous(self):
        cell = RareEventCell(channel=CHANNEL,
                             proposal=default_proposal(CHANNEL, 2.0),
                             interleaver=INTERLEAVER, code=CODE,
                             seed=9, frames=1)
        result = evaluate_rare_event(cell)
        assert result.interval_baseline == (0.0, 1.0)
        assert result.interval_interleaved == (0.0, 1.0)

    def test_jobs_and_store_bit_identity(self, tmp_path):
        cells = [RareEventCell(
            channel=CHANNEL, proposal=default_proposal(CHANNEL, 4.0),
            interleaver=INTERLEAVER, code=CODE, seed=seed, frames=30)
            for seed in (1, 2, 3)]
        serial = run_tasks(cells, jobs=1)
        assert serial == run_tasks(cells, jobs=2)
        store = ResultStore(str(tmp_path))
        assert run_tasks(cells, store=store) == serial
        assert run_tasks(cells, store=store) == serial

    def test_result_roundtrips_through_dict(self):
        result = evaluate_rare_event(RareEventCell(
            channel=CHANNEL, proposal=default_proposal(CHANNEL, 4.0),
            interleaver=INTERLEAVER, code=CODE, seed=3, frames=25))
        assert RareEventResult.from_dict(result.to_dict()) == result


def _scenario(seed=3, frames_per_segment=5):
    return ScenarioCell(
        segments=contact_pass_segments(frames_per_segment=frames_per_segment),
        interleaver=INTERLEAVER, code=CODE, seed=seed)


class TestScenario:
    def test_batched_equals_scalar_reference(self):
        cell = _scenario()
        assert evaluate_scenario(cell) == evaluate_scenario_reference(cell)

    def test_single_segment_equals_campaign_cell(self):
        # One segment on the shared generator is exactly the naive
        # campaign cell of the same (channel, seed, frames).
        segment = ScenarioSegment(channel=CHANNEL, frames=20, label="only")
        scenario = evaluate_scenario(ScenarioCell(
            segments=(segment,), interleaver=INTERLEAVER, code=CODE, seed=5))
        naive = evaluate_cell(CampaignCell(
            channel=CHANNEL, interleaver=INTERLEAVER, code=CODE, seed=5,
            frames=20))
        only = scenario.segments[0]
        assert only.codewords == naive.codewords
        assert only.failed_interleaved == naive.failed_interleaved
        assert only.failed_baseline == naive.failed_baseline
        assert only.error_symbols == naive.error_symbols
        assert only.max_burst == naive.max_burst
        assert only.max_errors_interleaved == naive.max_errors_interleaved
        assert only.max_errors_baseline == naive.max_errors_baseline

    def test_totals_pool_the_segments(self):
        result = evaluate_scenario(_scenario())
        assert result.codewords == sum(s.codewords for s in result.segments)
        assert result.failed_baseline == sum(s.failed_baseline
                                             for s in result.segments)
        assert result.max_burst == max(s.max_burst for s in result.segments)
        assert 0.0 <= result.failure_rate_interleaved <= 1.0
        low, high = result.interval_baseline
        assert low <= result.failure_rate_baseline <= high

    def test_contact_pass_hardens_toward_the_horizon(self):
        segments = contact_pass_segments()
        by_label = {segment.label: segment.channel for segment in segments}
        assert (by_label["el=10"].mean_fade_symbols
                > by_label["el=90"].mean_fade_symbols)
        assert (by_label["el=10"].stationary_bad
                > by_label["el=90"].stationary_bad)

    def test_contact_pass_validation(self):
        with pytest.raises(ValueError, match="elevations"):
            contact_pass_segments(elevations_deg=(0.0,))
        with pytest.raises(ValueError, match="elevations"):
            contact_pass_segments(elevations_deg=())
        with pytest.raises(ValueError, match="frames_per_segment"):
            contact_pass_segments(frames_per_segment=0)
        with pytest.raises(ValueError, match="zenith_fade_symbols"):
            contact_pass_segments(zenith_fade_symbols=1.0)
        with pytest.raises(ValueError, match="zenith_fade_fraction"):
            contact_pass_segments(zenith_fade_fraction=0.6)

    def test_cell_validation(self):
        with pytest.raises(ValueError, match="segments"):
            ScenarioCell(segments=(), interleaver=INTERLEAVER, code=CODE,
                         seed=1)
        with pytest.raises(ValueError, match="frames"):
            ScenarioSegment(channel=CHANNEL, frames=0)
        bad_code = CodewordConfig(n_symbols=12, t_correctable=2)
        with pytest.raises(ValueError, match="codeword_symbols"):
            ScenarioCell(segments=contact_pass_segments(),
                         interleaver=INTERLEAVER, code=bad_code, seed=1)

    def test_jobs_and_store_bit_identity(self, tmp_path):
        cells = [_scenario(seed=seed, frames_per_segment=2) for seed in (1, 2)]
        serial = run_tasks(cells, jobs=1)
        assert serial == run_tasks(cells, jobs=2)
        store = ResultStore(str(tmp_path))
        assert run_tasks(cells, store=store) == serial
        assert run_tasks(cells, store=store) == serial

    def test_result_roundtrips_through_dict(self):
        result = evaluate_scenario(_scenario(frames_per_segment=2))
        assert ScenarioResult.from_dict(result.to_dict()) == result


class TestFormatting:
    def test_format_adaptive_table(self):
        outcome = evaluate_adaptive(_adaptive(max_frames=200))
        text = format_adaptive([outcome])
        assert "half-width" in text.splitlines()[0]
        assert f"{outcome.frames_used}/200" in text
        assert "budgeted frames" in text

    def test_format_rare_event_table(self):
        result = evaluate_rare_event(RareEventCell(
            channel=CHANNEL, proposal=default_proposal(CHANNEL, 4.0),
            interleaver=INTERLEAVER, code=CODE, seed=3, frames=20))
        text = format_rare_event([result])
        assert "ESS" in text.splitlines()[0]
        assert "importance sampling" in text

    def test_format_scenario_pools_seeds(self):
        results = [evaluate_scenario(_scenario(seed=seed,
                                               frames_per_segment=2))
                   for seed in (1, 2)]
        text = format_scenario(results)
        lines = text.splitlines()
        # 11 elevation steps + header + total + caption
        assert len(lines) == 14
        assert "total" in lines[-2]
        # Each segment row pools both seeds' frames.
        assert " 4 " in lines[1]

    def test_format_scenario_rejects_mixed_structures(self):
        uneven = evaluate_scenario(_scenario(seed=1, frames_per_segment=3))
        base = evaluate_scenario(_scenario(seed=1, frames_per_segment=2))
        with pytest.raises(ValueError, match="segment structure"):
            format_scenario([base, uneven])
        assert format_scenario([]) == "(no scenario results)"

    def test_render_adaptive_savings_chart(self):
        outcomes = [evaluate_adaptive(_adaptive(seed=seed, max_frames=200))
                    for seed in (1, 2)]
        chart = render_adaptive_savings(outcomes, width=20)
        lines = chart.splitlines()
        assert len(lines) == 3
        assert "frames spent / budget" in lines[0]
        assert "#" in lines[1] or "-" in lines[1]
        assert render_adaptive_savings([]) == "(no adaptive results)"
        with pytest.raises(ValueError, match="width"):
            render_adaptive_savings(outcomes, width=0)
