"""Adaptive-precision and rare-event campaign estimators.

The naive Monte Carlo campaign of :mod:`repro.system.campaign` spends a
fixed frame budget per cell, which wastes frames on easy cells and
returns uselessly wide Wilson intervals on deep-fade ones.  This module
adds the three estimators ROADMAP item 1 calls for, all riding the
exact channel/decoder machinery the naive path proved correct:

* **adaptive stopping** (:class:`AdaptiveCell` /
  :func:`evaluate_adaptive`): run a cell in frame batches until the
  interleaved arm's 95 % Wilson half-width reaches a target, absolute
  (``ci_width``) or relative (``ci_rel``).  The batched channel
  consumes RNG frame-sequentially and every
  :class:`~repro.system.campaign.CellResult` field is an integer sum or
  max, so a cell stopped after N frames is **bit-identical** to a
  fixed-frame run of N frames — the differential battery in
  ``tests/system/test_adaptive.py`` pins that at odd batch boundaries.

* a **rare-event estimator** (:class:`RareEventCell` /
  :func:`evaluate_rare_event`): importance sampling on the
  Gilbert–Elliott *transition* probabilities.  Frames are drawn as
  independent trajectories from a fade-boosted proposal chain and
  reweighted by the exact per-trajectory likelihood ratio
  :func:`frame_weight`, which is a pure function of the four transition
  counts — the error draw given the states is untouched (``p_bad`` /
  ``p_good`` must match between chains), and the initial state is drawn
  from the *true* chain's stationary law so its ratio term is exactly
  one.  Differential-tested against naive MC (overlapping CIs) and
  against exhaustive trajectory enumeration (exact-mean agreement).

* **time-varying channel scenarios** (:class:`ScenarioCell` /
  :func:`evaluate_scenario`): piecewise Gilbert–Elliott parameter
  trajectories — e.g. the elevation-dependent contact pass of
  :func:`contact_pass_segments` — compiled down to the existing batched
  channel path, one :class:`~repro.system.downlink.OpticalDownlink` per
  segment sharing a single generator, proven bit-identical to the
  scalar per-segment reference :func:`evaluate_scenario_reference`.

Every estimator keeps the campaign design rules: cells are frozen
declarative dataclasses of primitives (pickle cheaply, rebuild all
state in the worker), randomness derives from the cell seed alone, and
results round-trip bit-identically through the content-addressed store
(:mod:`repro.store.records`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, cast

import numpy as np
from numpy.typing import NDArray

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams, coherence_params
from repro.interleaver.two_stage import TwoStageConfig, TwoStageInterleaver
from repro.system.campaign import CampaignCell, CellResult, wilson_interval
from repro.system.downlink import DownlinkResult, OpticalDownlink


def _check_dimensions(interleaver: TwoStageConfig, code: CodewordConfig) -> None:
    """Fail fast when interleaver grouping and code length disagree.

    The same check :class:`~repro.system.downlink.OpticalDownlink`
    performs, hoisted to cell construction so a bad grid dies with a
    field-naming error before any worker is spawned.
    """
    if interleaver.codeword_symbols != code.n_symbols:
        raise ValueError(
            "interleaver.codeword_symbols and code.n_symbols disagree: "
            f"{interleaver.codeword_symbols} vs {code.n_symbols}"
        )


def _channel_dict(params: GilbertElliottParams,
                  prefix: str = "") -> Dict[str, object]:
    """Flat JSON-friendly form of one parameter set, keys prefixed."""
    return {
        prefix + "p_g2b": params.p_g2b,
        prefix + "p_b2g": params.p_b2g,
        prefix + "p_bad": params.p_bad,
        prefix + "p_good": params.p_good,
    }


def _channel_from_dict(data: Dict[str, object],
                       prefix: str = "") -> GilbertElliottParams:
    """Inverse of :func:`_channel_dict`."""
    return GilbertElliottParams(
        p_g2b=float(cast(float, data[prefix + "p_g2b"])),
        p_b2g=float(cast(float, data[prefix + "p_b2g"])),
        p_bad=float(cast(float, data[prefix + "p_bad"])),
        p_good=float(cast(float, data[prefix + "p_good"])),
    )


def _geometry_dict(interleaver: TwoStageConfig,
                   code: CodewordConfig) -> Dict[str, object]:
    """Flat JSON-friendly form of the interleaver/code axes."""
    return {
        "triangle_n": interleaver.triangle_n,
        "symbols_per_element": interleaver.symbols_per_element,
        "codeword_symbols": interleaver.codeword_symbols,
        "n_symbols": code.n_symbols,
        "t_correctable": code.t_correctable,
    }


def _interleaver_from_dict(data: Dict[str, object]) -> TwoStageConfig:
    """Rebuild the interleaver axis of :func:`_geometry_dict`."""
    return TwoStageConfig(
        triangle_n=int(cast(int, data["triangle_n"])),
        symbols_per_element=int(cast(int, data["symbols_per_element"])),
        codeword_symbols=int(cast(int, data["codeword_symbols"])),
    )


def _code_from_dict(data: Dict[str, object]) -> CodewordConfig:
    """Rebuild the code axis of :func:`_geometry_dict`."""
    return CodewordConfig(
        n_symbols=int(cast(int, data["n_symbols"])),
        t_correctable=int(cast(int, data["t_correctable"])),
    )


def _format_ci(low: float, high: float) -> str:
    """Compact ``[low,high]`` interval cell (same format as the campaign table)."""
    return f"[{low:.2e},{high:.2e}]"


def _format_gain(gain: float) -> str:
    """Gain column text (``inf`` = every baseline failure rescued)."""
    return "inf" if math.isinf(gain) else f"{gain:.1f}x"


# ---------------------------------------------------------------------------
# adaptive stopping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveCell:
    """One adaptive-stopping Monte Carlo experiment.

    The cell runs in ``batch_frames`` chunks until the interleaved
    arm's 95 % Wilson half-width meets a target or the ``max_frames``
    budget is exhausted.  At least one of the two targets must be set;
    when both are, whichever is satisfied first stops the cell.

    Attributes:
        channel: Gilbert–Elliott fade statistics.
        interleaver: two-stage interleaver dimensions.
        code: code-word length and correction radius.
        seed: RNG seed; the cell's entire randomness derives from it.
        max_frames: frame budget — the fixed-frame count an equivalent
            naive cell would spend.
        ci_width: absolute target — stop once the half-width is at most
            this value.
        ci_rel: relative target — stop once the half-width is at most
            ``ci_rel`` times the observed failure rate (only meaningful
            after the first failure; a zero-failure cell never satisfies
            it).
        batch_frames: frames simulated between half-width checks.
    """

    channel: GilbertElliottParams
    interleaver: TwoStageConfig
    code: CodewordConfig
    seed: int
    max_frames: int
    ci_width: Optional[float] = None
    ci_rel: Optional[float] = None
    batch_frames: int = 128

    def __post_init__(self) -> None:
        if self.max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {self.max_frames}")
        if self.batch_frames < 1:
            raise ValueError(
                f"batch_frames must be >= 1, got {self.batch_frames}")
        if self.ci_width is None and self.ci_rel is None:
            raise ValueError(
                "at least one stopping target (ci_width or ci_rel) must be set")
        if self.ci_width is not None and self.ci_width <= 0:
            raise ValueError(f"ci_width must be positive, got {self.ci_width}")
        if self.ci_rel is not None and self.ci_rel <= 0:
            raise ValueError(f"ci_rel must be positive, got {self.ci_rel}")
        _check_dimensions(self.interleaver, self.code)

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly description (also the store-config basis)."""
        data = _channel_dict(self.channel)
        data.update(_geometry_dict(self.interleaver, self.code))
        data.update(
            seed=self.seed,
            max_frames=self.max_frames,
            ci_width=self.ci_width,
            ci_rel=self.ci_rel,
            batch_frames=self.batch_frames,
        )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AdaptiveCell":
        """Inverse of :meth:`to_dict`."""
        ci_width = data["ci_width"]
        ci_rel = data["ci_rel"]
        return cls(
            channel=_channel_from_dict(data),
            interleaver=_interleaver_from_dict(data),
            code=_code_from_dict(data),
            seed=int(cast(int, data["seed"])),
            max_frames=int(cast(int, data["max_frames"])),
            ci_width=None if ci_width is None else float(cast(float, ci_width)),
            ci_rel=None if ci_rel is None else float(cast(float, ci_rel)),
            batch_frames=int(cast(int, data["batch_frames"])),
        )

    def fixed_cell(self, frames: int) -> CampaignCell:
        """The naive fixed-frame cell this one is bit-identical to at ``frames``."""
        return CampaignCell(channel=self.channel, interleaver=self.interleaver,
                            code=self.code, seed=self.seed, frames=frames)

    def execute(self) -> AdaptiveResult:
        """Run the cell to its stopping target (see :func:`evaluate_adaptive`)."""
        return evaluate_adaptive(self)


def half_width(failures: int, trials: int) -> float:
    """Half-width of the 95 % Wilson interval (the stopping criterion).

    Defined on the *reported* interval — ``(high - low) / 2`` after the
    [0, 1] clipping — so the stopping rule talks about exactly the
    numbers the campaign table prints.

    Args:
        failures: observed failure count.
        trials: number of Bernoulli trials (> 0).
    """
    low, high = wilson_interval(failures, trials)
    return (high - low) / 2.0


def _target_met(cell: AdaptiveCell, failures: int, trials: int) -> bool:
    """Has the cell's stopping target been reached at these counts?"""
    width = half_width(failures, trials)
    if cell.ci_width is not None and width <= cell.ci_width:
        return True
    if cell.ci_rel is not None and failures:
        if width <= cell.ci_rel * (failures / trials):
            return True
    return False


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of one adaptive-stopping cell.

    Attributes:
        cell: the adaptive experiment description.
        result: the counts, packaged as the
            :class:`~repro.system.campaign.CellResult` of the
            equivalent fixed-frame cell (``result.cell.frames`` is the
            frame count actually spent) — bit-identical to evaluating
            that cell directly.
        batches: frame batches simulated before stopping.
        converged: whether a stopping target was met within the budget
            (``False`` = the ``max_frames`` cap fired).
    """

    cell: AdaptiveCell
    result: CellResult
    batches: int
    converged: bool

    @property
    def frames_used(self) -> int:
        """Frames actually simulated."""
        return self.result.cell.frames

    @property
    def frames_saved_ratio(self) -> float:
        """Budgeted over spent frames (>= 1; higher = more saved)."""
        return self.cell.max_frames / self.result.cell.frames

    @property
    def achieved_half_width(self) -> float:
        """Wilson half-width of the interleaved arm at stop time."""
        return half_width(self.result.failed_interleaved,
                          self.result.codewords)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (store payloads)."""
        return {
            "cell": self.cell.to_dict(),
            "result": self.result.to_dict(),
            "batches": self.batches,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AdaptiveResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cell=AdaptiveCell.from_dict(
                cast(Dict[str, object], data["cell"])),
            result=CellResult.from_dict(
                cast(Dict[str, object], data["result"])),
            batches=int(cast(int, data["batches"])),
            converged=bool(data["converged"]),
        )


def evaluate_adaptive(cell: AdaptiveCell) -> AdaptiveResult:
    """Run one adaptive cell to its stopping target (also the worker entry).

    Batches run through the same
    :meth:`~repro.system.downlink.OpticalDownlink.run_batched` path as
    the naive campaign on one shared generator.  RNG consumption is
    frame-sequential regardless of chunking and every accumulated field
    is an integer sum or max, so the returned counts are bit-identical
    to a fixed-frame run of ``frames_used`` frames — stopping early
    changes *where* the campaign stops reading the random stream, never
    what it read.
    """
    downlink = OpticalDownlink(
        cell.interleaver,
        cell.code,
        cell.channel,
        rng=np.random.default_rng(cell.seed),
    )
    codewords = 0
    failed_interleaved = 0
    failed_baseline = 0
    error_symbols = 0
    max_burst = 0
    max_errors_interleaved = 0
    max_errors_baseline = 0
    frames_run = 0
    batches = 0
    converged = False
    while frames_run < cell.max_frames:
        block = min(cell.batch_frames, cell.max_frames - frames_run)
        outcome = downlink.run_batched(block)
        batches += 1
        frames_run += block
        codewords += outcome.interleaved.codewords
        failed_interleaved += outcome.interleaved.failed
        failed_baseline += outcome.baseline.failed
        error_symbols += outcome.channel_profile.error_symbols
        max_burst = max(max_burst, outcome.channel_profile.max_burst)
        max_errors_interleaved = max(max_errors_interleaved,
                                     outcome.max_errors_interleaved)
        max_errors_baseline = max(max_errors_baseline,
                                  outcome.max_errors_baseline)
        if _target_met(cell, failed_interleaved, codewords):
            converged = True
            break
    result = CellResult(
        cell=cell.fixed_cell(frames_run),
        codewords=codewords,
        failed_interleaved=failed_interleaved,
        failed_baseline=failed_baseline,
        error_symbols=error_symbols,
        max_burst=max_burst,
        max_errors_interleaved=max_errors_interleaved,
        max_errors_baseline=max_errors_baseline,
    )
    return AdaptiveResult(cell=cell, result=result, batches=batches,
                          converged=converged)


def format_adaptive(results: Sequence[AdaptiveResult]) -> str:
    """Render adaptive results as a per-cell text table.

    One row per cell with the frames spent against the budget, the
    achieved half-width, the interleaved failure rate with its Wilson
    interval and the gain; the footer totals the frame savings.
    """
    header = (
        f"{'fade':>6s} {'frac':>7s} {'n':>4s} {'seed':>6s} "
        f"{'frames':>13s} {'half-width':>10s} "
        f"{'CWER intl':>10s} {'95% CI':>21s} {'gain':>8s} {'conv':>4s}"
    )
    lines = [header]
    total_used = 0
    total_budget = 0
    for outcome in results:
        cell = outcome.cell
        result = outcome.result
        total_used += outcome.frames_used
        total_budget += cell.max_frames
        frames_text = f"{outcome.frames_used}/{cell.max_frames}"
        lines.append(
            f"{cell.channel.mean_fade_symbols:6.0f} "
            f"{cell.channel.stationary_bad:7.4f} "
            f"{cell.interleaver.triangle_n:4d} {cell.seed:6d} "
            f"{frames_text:>13s} {outcome.achieved_half_width:10.2e} "
            f"{result.failure_rate_interleaved:10.2e} "
            f"{_format_ci(*result.interval_interleaved):>21s} "
            f"{_format_gain(result.gain):>8s} "
            f"{'yes' if outcome.converged else 'cap':>4s}"
        )
    if total_used:
        ratio = total_budget / total_used
        lines.append(f"(adaptive stopping spent {total_used} of "
                     f"{total_budget} budgeted frames — {ratio:.1f}x fewer; "
                     f"conv = target met before the frame cap)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# rare-event importance sampling
# ---------------------------------------------------------------------------


def default_proposal(params: GilbertElliottParams,
                     boost: float) -> GilbertElliottParams:
    """The standard fade-boosted proposal chain for importance sampling.

    Fades become ``boost`` times more frequent (``p_g2b`` scaled up,
    clipped to one) and ``boost`` times longer (``p_b2g`` scaled down),
    while the in-state error probabilities stay untouched — the
    likelihood ratio then depends on the state trajectory alone.

    Args:
        params: the true channel.
        boost: fade tilt factor (>= 1; 1 = no tilt).
    """
    if boost < 1.0:
        raise ValueError(f"boost must be >= 1, got {boost}")
    return GilbertElliottParams(
        p_g2b=min(1.0, params.p_g2b * boost),
        p_b2g=params.p_b2g / boost,
        p_bad=params.p_bad,
        p_good=params.p_good,
    )


def transition_counts(states: NDArray[np.bool_]) -> Tuple[int, int, int, int]:
    """Count the four transition types along one state trajectory.

    Args:
        states: boolean fade trajectory (``True`` = bad state).

    Returns:
        ``(n_gg, n_gb, n_bg, n_bb)`` — good->good, good->bad,
        bad->good and bad->bad transition counts; they sum to
        ``states.size - 1``.
    """
    previous = states[:-1]
    current = states[1:]
    n_bb = int(np.count_nonzero(previous & current))
    n_bg = int(np.count_nonzero(previous)) - n_bb
    n_gb = int(np.count_nonzero(current)) - n_bb
    n_gg = (int(states.size) - 1) - n_bb - n_bg - n_gb
    return n_gg, n_gb, n_bg, n_bb


def _transition_ratios(
        true: GilbertElliottParams,
        proposal: GilbertElliottParams) -> Tuple[float, float, float, float]:
    """Per-transition likelihood ratios ``p/q`` of the two chains.

    Returns:
        ``(r_gg, r_gb, r_bg, r_bb)`` matching the
        :func:`transition_counts` order.  A stay-ratio whose proposal
        probability is zero (``q.p_g2b == 1`` or ``q.p_b2g == 1``) is
        returned as ``0.0``: the matching transition then never occurs
        under the proposal, and ``0.0 ** 0 == 1`` keeps the weight
        exact.
    """
    r_gb = true.p_g2b / proposal.p_g2b
    r_bg = true.p_b2g / proposal.p_b2g
    stay_good = 1.0 - proposal.p_g2b
    stay_bad = 1.0 - proposal.p_b2g
    r_gg = (1.0 - true.p_g2b) / stay_good if stay_good > 0.0 else 0.0
    r_bb = (1.0 - true.p_b2g) / stay_bad if stay_bad > 0.0 else 0.0
    return r_gg, r_gb, r_bg, r_bb


def frame_weight(true: GilbertElliottParams, proposal: GilbertElliottParams,
                 states: NDArray[np.bool_]) -> float:
    """Exact likelihood ratio ``p(states) / q(states)`` of one trajectory.

    Both chains are evaluated *conditional on the initial state*: the
    estimator draws the initial state from the true chain's stationary
    law, so the initial-state ratio is exactly one and the weight is a
    pure product over the four transition counts.  This is the single
    home of the reweighting math — the enumeration battery in
    ``tests/system/test_adaptive.py`` checks
    ``q(trajectory) * weight == p(trajectory)`` for every trajectory of
    a small frame.

    Args:
        true: the channel being estimated.
        proposal: the chain the trajectory was sampled from.
        states: boolean fade trajectory (``True`` = bad state).
    """
    n_gg, n_gb, n_bg, n_bb = transition_counts(states)
    r_gg, r_gb, r_bg, r_bb = _transition_ratios(true, proposal)
    return (r_gg ** n_gg) * (r_gb ** n_gb) * (r_bg ** n_bg) * (r_bb ** n_bb)


@dataclass(frozen=True)
class RareEventCell:
    """One importance-sampled Monte Carlo experiment.

    Frames are independent trajectories of the ``proposal`` chain
    (initial state from the *true* chain's stationary law), reweighted
    by :func:`frame_weight`.  The in-state error probabilities must
    match between the chains — the error draw conditional on the states
    is then identically distributed and needs no reweighting.

    Attributes:
        channel: the true Gilbert–Elliott fade statistics.
        proposal: the fade-boosted sampling chain (see
            :func:`default_proposal`).
        interleaver: two-stage interleaver dimensions.
        code: code-word length and correction radius.
        seed: RNG seed; the cell's entire randomness derives from it.
        frames: independent proposal trajectories to sample.
    """

    channel: GilbertElliottParams
    proposal: GilbertElliottParams
    interleaver: TwoStageConfig
    code: CodewordConfig
    seed: int
    frames: int

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if (self.proposal.p_bad != self.channel.p_bad
                or self.proposal.p_good != self.channel.p_good):
            raise ValueError(
                "proposal must keep the channel's in-state error "
                "probabilities (the likelihood ratio covers transitions "
                f"only): p_bad {self.proposal.p_bad} vs "
                f"{self.channel.p_bad}, p_good {self.proposal.p_good} vs "
                f"{self.channel.p_good}")
        _check_dimensions(self.interleaver, self.code)

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly description (also the store-config basis)."""
        data = _channel_dict(self.channel)
        data.update(_channel_dict(self.proposal, prefix="q_"))
        data.update(_geometry_dict(self.interleaver, self.code))
        data.update(seed=self.seed, frames=self.frames)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RareEventCell":
        """Inverse of :meth:`to_dict`."""
        return cls(
            channel=_channel_from_dict(data),
            proposal=_channel_from_dict(data, prefix="q_"),
            interleaver=_interleaver_from_dict(data),
            code=_code_from_dict(data),
            seed=int(cast(int, data["seed"])),
            frames=int(cast(int, data["frames"])),
        )

    def execute(self) -> RareEventResult:
        """Sample and reweight the cell (see :func:`evaluate_rare_event`)."""
        return evaluate_rare_event(self)


def _sample_frame_states(rng: np.random.Generator,
                         params: GilbertElliottParams,
                         row: NDArray[np.bool_], init_bad: bool) -> None:
    """Fill ``row`` with one independent frame trajectory of ``params``.

    The same alternating-geometric-dwell construction as the channel's
    carry-over sampler, but frame-local: each frame restarts from its
    own initial state and a dwell running past the frame boundary is
    simply truncated.  Truncation keeps the trajectory law exact — the
    tail event "the dwell covers the remaining ``k`` symbols" has
    probability ``(1 - p_leave) ** (k - 1)``, exactly the product of
    the ``k - 1`` remaining stay-transitions.
    """
    count = row.size
    position = 0
    state_bad = init_bad
    while position < count:
        p_leave = params.p_b2g if state_bad else params.p_g2b
        run = int(rng.geometric(p_leave))
        end = min(position + run, count)
        row[position:end] = state_bad
        position = end
        state_bad = not state_bad


@dataclass(frozen=True)
class RareEventResult:
    """Aggregate outcome of one importance-sampled cell.

    The stored moments are the exact accumulator values, so results
    round-trip bit-identically through the store; every rate, interval
    and diagnostic derives from them.

    Attributes:
        cell: the experiment description.
        codewords: code words decoded per arm (``frames`` x words per
            frame).
        sum_weight: sum of per-frame likelihood-ratio weights.
        sum_weight_sq: sum of squared weights (ESS diagnostic).
        weighted_failed_interleaved: sum of per-frame
            ``weight * failed`` counts, interleaved arm.
        weighted_failed_interleaved_sq: sum of squares of those
            per-frame terms (variance estimate).
        weighted_failed_baseline: baseline-arm weighted failure sum.
        weighted_failed_baseline_sq: baseline-arm sum of squares.
        raw_failed_interleaved: unweighted failure count under the
            proposal (a diagnostic: how many failures were *observed*).
        raw_failed_baseline: baseline-arm unweighted failure count.
        error_symbols: symbols corrupted across all sampled frames.
    """

    cell: RareEventCell
    codewords: int
    sum_weight: float
    sum_weight_sq: float
    weighted_failed_interleaved: float
    weighted_failed_interleaved_sq: float
    weighted_failed_baseline: float
    weighted_failed_baseline_sq: float
    raw_failed_interleaved: int
    raw_failed_baseline: int
    error_symbols: int

    @property
    def failure_rate_interleaved(self) -> float:
        """Importance-sampled code-word failure rate, interleaved arm."""
        return (self.weighted_failed_interleaved / self.codewords
                if self.codewords else 0.0)

    @property
    def failure_rate_baseline(self) -> float:
        """Importance-sampled code-word failure rate, baseline arm."""
        return (self.weighted_failed_baseline / self.codewords
                if self.codewords else 0.0)

    @property
    def interval_interleaved(self) -> Tuple[float, float]:
        """95 % normal-approximation CI of the interleaved rate."""
        return self._interval(self.weighted_failed_interleaved,
                              self.weighted_failed_interleaved_sq)

    @property
    def interval_baseline(self) -> Tuple[float, float]:
        """95 % normal-approximation CI of the baseline rate."""
        return self._interval(self.weighted_failed_baseline,
                              self.weighted_failed_baseline_sq)

    @property
    def effective_sample_size(self) -> float:
        """Kish effective sample size of the weights (<= ``frames``).

        A collapsed ESS (a few huge weights dominating) means the
        proposal is tilted too hard for the cell; the CLI table prints
        it as the estimator's health diagnostic.
        """
        if self.sum_weight_sq <= 0.0:
            return 0.0
        return (self.sum_weight * self.sum_weight) / self.sum_weight_sq

    @property
    def gain(self) -> float:
        """Failure-rate ratio baseline / interleaved (``inf`` = rescued all)."""
        if self.weighted_failed_interleaved == 0.0:
            return 1.0 if self.weighted_failed_baseline == 0.0 else float("inf")
        return self.weighted_failed_baseline / self.weighted_failed_interleaved

    def _interval(self, weighted_sum: float,
                  weighted_sq_sum: float) -> Tuple[float, float]:
        """Normal CI on the mean of per-frame ``weight * failed`` terms.

        The per-frame observations are i.i.d., so the standard error is
        the sample standard deviation over ``sqrt(frames)``; the
        interval is clipped to [0, 1] and vacuous for a single frame.
        """
        frames = self.cell.frames
        words = self.codewords // frames if frames else 0
        if frames < 2 or words < 1:
            return (0.0, 1.0)
        mean = weighted_sum / frames
        variance = (weighted_sq_sum - frames * mean * mean) / (frames - 1)
        half = 1.96 * math.sqrt(max(0.0, variance) / frames) / words
        rate = mean / words
        return (max(0.0, rate - half), min(1.0, rate + half))

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (store payloads; floats round-trip exactly)."""
        return {
            "cell": self.cell.to_dict(),
            "codewords": self.codewords,
            "sum_weight": self.sum_weight,
            "sum_weight_sq": self.sum_weight_sq,
            "weighted_failed_interleaved": self.weighted_failed_interleaved,
            "weighted_failed_interleaved_sq":
                self.weighted_failed_interleaved_sq,
            "weighted_failed_baseline": self.weighted_failed_baseline,
            "weighted_failed_baseline_sq": self.weighted_failed_baseline_sq,
            "raw_failed_interleaved": self.raw_failed_interleaved,
            "raw_failed_baseline": self.raw_failed_baseline,
            "error_symbols": self.error_symbols,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RareEventResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cell=RareEventCell.from_dict(
                cast(Dict[str, object], data["cell"])),
            codewords=int(cast(int, data["codewords"])),
            sum_weight=float(cast(float, data["sum_weight"])),
            sum_weight_sq=float(cast(float, data["sum_weight_sq"])),
            weighted_failed_interleaved=float(
                cast(float, data["weighted_failed_interleaved"])),
            weighted_failed_interleaved_sq=float(
                cast(float, data["weighted_failed_interleaved_sq"])),
            weighted_failed_baseline=float(
                cast(float, data["weighted_failed_baseline"])),
            weighted_failed_baseline_sq=float(
                cast(float, data["weighted_failed_baseline_sq"])),
            raw_failed_interleaved=int(
                cast(int, data["raw_failed_interleaved"])),
            raw_failed_baseline=int(cast(int, data["raw_failed_baseline"])),
            error_symbols=int(cast(int, data["error_symbols"])),
        )


def evaluate_rare_event(cell: RareEventCell) -> RareEventResult:
    """Run one importance-sampled cell (also the worker entry).

    Per frame: draw the initial state from the *true* stationary law,
    sample the fade trajectory from the proposal chain, compute the
    exact transition likelihood ratio, then draw errors and count
    per-code-word failures with the same sparse bincount-through-the-
    permutation construction as the batched campaign path.  Frames are
    independent (no dwell carry-over), which is what makes the
    per-frame weighted observations i.i.d. and the normal CI valid.
    """
    rng = np.random.default_rng(cell.seed)
    interleaver = TwoStageInterleaver(cell.interleaver)
    symbols = interleaver.frame_symbols
    codeword_symbols = cell.code.n_symbols
    words = symbols // codeword_symbols
    threshold = cell.code.t_correctable
    # Channel position s lands in payload code word perm[s] // n — the
    # same sparse decode the batched campaign path uses.
    word_of_channel_pos = interleaver.permutation() // codeword_symbols
    stationary_bad = cell.channel.stationary_bad
    proposal = cell.proposal
    p_bad = proposal.p_bad
    p_good = proposal.p_good
    states = np.empty(symbols, dtype=bool)
    sum_weight = 0.0
    sum_weight_sq = 0.0
    weighted_failed_interleaved = 0.0
    weighted_failed_interleaved_sq = 0.0
    weighted_failed_baseline = 0.0
    weighted_failed_baseline_sq = 0.0
    raw_failed_interleaved = 0
    raw_failed_baseline = 0
    error_symbols = 0
    for _ in range(cell.frames):
        init_bad = bool(rng.random() < stationary_bad)
        _sample_frame_states(rng, proposal, states, init_bad)
        weight = frame_weight(cell.channel, proposal, states)
        draws = rng.random(symbols)
        errors = np.less(draws, p_bad)
        errors &= states
        if p_good > 0.0:
            good_hits = np.less(draws, p_good)
            good_hits &= ~states
            errors |= good_hits
        sym_idx = np.nonzero(errors)[0]
        counts_int = np.bincount(word_of_channel_pos[sym_idx],
                                 minlength=words)
        counts_base = np.bincount(sym_idx // codeword_symbols,
                                  minlength=words)
        failed_int = int(np.count_nonzero(counts_int > threshold))
        failed_base = int(np.count_nonzero(counts_base > threshold))
        term_int = weight * failed_int
        term_base = weight * failed_base
        sum_weight += weight
        sum_weight_sq += weight * weight
        weighted_failed_interleaved += term_int
        weighted_failed_interleaved_sq += term_int * term_int
        weighted_failed_baseline += term_base
        weighted_failed_baseline_sq += term_base * term_base
        raw_failed_interleaved += failed_int
        raw_failed_baseline += failed_base
        error_symbols += int(sym_idx.size)
    return RareEventResult(
        cell=cell,
        codewords=cell.frames * words,
        sum_weight=sum_weight,
        sum_weight_sq=sum_weight_sq,
        weighted_failed_interleaved=weighted_failed_interleaved,
        weighted_failed_interleaved_sq=weighted_failed_interleaved_sq,
        weighted_failed_baseline=weighted_failed_baseline,
        weighted_failed_baseline_sq=weighted_failed_baseline_sq,
        raw_failed_interleaved=raw_failed_interleaved,
        raw_failed_baseline=raw_failed_baseline,
        error_symbols=error_symbols,
    )


def format_rare_event(results: Sequence[RareEventResult]) -> str:
    """Render rare-event results as a per-cell text table.

    One row per cell with the effective sample size (the estimator's
    health diagnostic), both arms' importance-sampled failure rates
    with normal 95 % CIs, and the gain.
    """
    header = (
        f"{'fade':>6s} {'frac':>7s} {'n':>4s} {'seed':>6s} {'frames':>7s} "
        f"{'ESS':>8s} {'CWER base':>10s} {'95% CI':>21s} "
        f"{'CWER intl':>10s} {'95% CI':>21s} {'gain':>8s}"
    )
    lines = [header]
    for result in results:
        cell = result.cell
        lines.append(
            f"{cell.channel.mean_fade_symbols:6.0f} "
            f"{cell.channel.stationary_bad:7.4f} "
            f"{cell.interleaver.triangle_n:4d} {cell.seed:6d} "
            f"{cell.frames:7d} {result.effective_sample_size:8.1f} "
            f"{result.failure_rate_baseline:10.2e} "
            f"{_format_ci(*result.interval_baseline):>21s} "
            f"{result.failure_rate_interleaved:10.2e} "
            f"{_format_ci(*result.interval_interleaved):>21s} "
            f"{_format_gain(result.gain):>8s}"
        )
    lines.append("(importance sampling on the fade-boosted proposal; "
                 "ESS = Kish effective sample size of the weights)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# time-varying channel scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSegment:
    """One piecewise-constant stretch of a channel trajectory.

    Attributes:
        channel: Gilbert–Elliott statistics during the segment.
        frames: frames transmitted under them.
        label: short display name (e.g. ``"el=10"``).
    """

    channel: GilbertElliottParams
    frames: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly description."""
        data = _channel_dict(self.channel)
        data.update(frames=self.frames, label=self.label)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSegment":
        """Inverse of :meth:`to_dict`."""
        return cls(channel=_channel_from_dict(data),
                   frames=int(cast(int, data["frames"])),
                   label=str(data["label"]))


@dataclass(frozen=True)
class ScenarioCell:
    """One time-varying channel experiment.

    Segments share a single seeded generator in order, so the whole
    scenario's randomness derives from the cell seed alone and the cell
    is one declarative, store-addressable unit like every other grid
    cell.

    Attributes:
        segments: the piecewise channel trajectory, in time order.
        interleaver: two-stage interleaver dimensions.
        code: code-word length and correction radius.
        seed: RNG seed; the cell's entire randomness derives from it.
    """

    segments: Tuple[ScenarioSegment, ...]
    interleaver: TwoStageConfig
    code: CodewordConfig
    seed: int

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("segments must be non-empty")
        _check_dimensions(self.interleaver, self.code)

    @property
    def total_frames(self) -> int:
        """Frames across the whole trajectory."""
        return sum(segment.frames for segment in self.segments)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly description (also the store-config basis)."""
        data: Dict[str, object] = {
            "segments": [segment.to_dict() for segment in self.segments],
        }
        data.update(_geometry_dict(self.interleaver, self.code))
        data.update(seed=self.seed)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioCell":
        """Inverse of :meth:`to_dict`."""
        return cls(
            segments=tuple(
                ScenarioSegment.from_dict(cast(Dict[str, object], entry))
                for entry in cast(List[object], data["segments"])),
            interleaver=_interleaver_from_dict(data),
            code=_code_from_dict(data),
            seed=int(cast(int, data["seed"])),
        )

    def execute(self) -> ScenarioResult:
        """Run the trajectory (see :func:`evaluate_scenario`)."""
        return evaluate_scenario(self)


@dataclass(frozen=True)
class SegmentResult:
    """Decoding counts of one scenario segment (all integers).

    Attributes:
        label: the segment's display name.
        frames: frames transmitted in the segment.
        codewords: code words decoded per arm.
        failed_interleaved / failed_baseline: failure counts per arm.
        error_symbols: symbols the channel corrupted.
        max_burst: longest fade observed.
        max_errors_interleaved / max_errors_baseline: worst
            per-code-word error counts.
    """

    label: str
    frames: int
    codewords: int
    failed_interleaved: int
    failed_baseline: int
    error_symbols: int
    max_burst: int
    max_errors_interleaved: int
    max_errors_baseline: int

    @property
    def failure_rate_interleaved(self) -> float:
        """Code-word failure rate with the interleaver."""
        return self.failed_interleaved / self.codewords if self.codewords else 0.0

    @property
    def failure_rate_baseline(self) -> float:
        """Code-word failure rate without interleaving."""
        return self.failed_baseline / self.codewords if self.codewords else 0.0

    @property
    def gain(self) -> float:
        """Failure-rate ratio baseline / interleaved (``inf`` = rescued all)."""
        if self.failed_interleaved == 0:
            return 1.0 if self.failed_baseline == 0 else float("inf")
        return self.failed_baseline / self.failed_interleaved

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (store payloads)."""
        return {
            "label": self.label,
            "frames": self.frames,
            "codewords": self.codewords,
            "failed_interleaved": self.failed_interleaved,
            "failed_baseline": self.failed_baseline,
            "error_symbols": self.error_symbols,
            "max_burst": self.max_burst,
            "max_errors_interleaved": self.max_errors_interleaved,
            "max_errors_baseline": self.max_errors_baseline,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SegmentResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            label=str(data["label"]),
            frames=int(cast(int, data["frames"])),
            codewords=int(cast(int, data["codewords"])),
            failed_interleaved=int(cast(int, data["failed_interleaved"])),
            failed_baseline=int(cast(int, data["failed_baseline"])),
            error_symbols=int(cast(int, data["error_symbols"])),
            max_burst=int(cast(int, data["max_burst"])),
            max_errors_interleaved=int(
                cast(int, data["max_errors_interleaved"])),
            max_errors_baseline=int(cast(int, data["max_errors_baseline"])),
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Per-segment and pooled outcome of one scenario cell.

    Attributes:
        cell: the experiment description.
        segments: one :class:`SegmentResult` per trajectory segment, in
            time order.
    """

    cell: ScenarioCell
    segments: Tuple[SegmentResult, ...]

    @property
    def codewords(self) -> int:
        """Code words decoded per arm across the whole trajectory."""
        return sum(segment.codewords for segment in self.segments)

    @property
    def failed_interleaved(self) -> int:
        """Pooled interleaved-arm failure count."""
        return sum(segment.failed_interleaved for segment in self.segments)

    @property
    def failed_baseline(self) -> int:
        """Pooled baseline-arm failure count."""
        return sum(segment.failed_baseline for segment in self.segments)

    @property
    def failure_rate_interleaved(self) -> float:
        """Pooled code-word failure rate with the interleaver."""
        codewords = self.codewords
        return self.failed_interleaved / codewords if codewords else 0.0

    @property
    def failure_rate_baseline(self) -> float:
        """Pooled code-word failure rate without interleaving."""
        codewords = self.codewords
        return self.failed_baseline / codewords if codewords else 0.0

    @property
    def interval_interleaved(self) -> Tuple[float, float]:
        """95 % Wilson interval of the pooled interleaved rate."""
        return wilson_interval(self.failed_interleaved, self.codewords)

    @property
    def interval_baseline(self) -> Tuple[float, float]:
        """95 % Wilson interval of the pooled baseline rate."""
        return wilson_interval(self.failed_baseline, self.codewords)

    @property
    def gain(self) -> float:
        """Pooled failure-rate ratio baseline / interleaved."""
        if self.failed_interleaved == 0:
            return 1.0 if self.failed_baseline == 0 else float("inf")
        return self.failed_baseline / self.failed_interleaved

    @property
    def max_burst(self) -> int:
        """Longest fade observed anywhere in the trajectory."""
        return max(segment.max_burst for segment in self.segments)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (store payloads)."""
        return {
            "cell": self.cell.to_dict(),
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cell=ScenarioCell.from_dict(
                cast(Dict[str, object], data["cell"])),
            segments=tuple(
                SegmentResult.from_dict(cast(Dict[str, object], entry))
                for entry in cast(List[object], data["segments"])),
        )


def _segment_result(segment: ScenarioSegment,
                    outcome: DownlinkResult) -> SegmentResult:
    """Package one segment's :class:`~repro.system.downlink.DownlinkResult`."""
    return SegmentResult(
        label=segment.label,
        frames=segment.frames,
        codewords=outcome.interleaved.codewords,
        failed_interleaved=outcome.interleaved.failed,
        failed_baseline=outcome.baseline.failed,
        error_symbols=outcome.channel_profile.error_symbols,
        max_burst=outcome.channel_profile.max_burst,
        max_errors_interleaved=outcome.max_errors_interleaved,
        max_errors_baseline=outcome.max_errors_baseline,
    )


def evaluate_scenario(cell: ScenarioCell) -> ScenarioResult:
    """Run one scenario through the batched channel path (worker entry).

    Each segment builds an :class:`~repro.system.downlink.OpticalDownlink`
    for its parameters on the *shared* cell generator and runs
    :meth:`~repro.system.downlink.OpticalDownlink.run_batched` —
    bit-identical to the scalar reference
    :func:`evaluate_scenario_reference` because the batched and scalar
    downlink paths consume the generator identically.
    """
    rng = np.random.default_rng(cell.seed)
    results = []
    for segment in cell.segments:
        downlink = OpticalDownlink(cell.interleaver, cell.code,
                                   segment.channel, rng=rng)
        results.append(_segment_result(segment,
                                       downlink.run_batched(segment.frames)))
    return ScenarioResult(cell=cell, segments=tuple(results))


def evaluate_scenario_reference(cell: ScenarioCell) -> ScenarioResult:
    """Scalar per-frame reference of :func:`evaluate_scenario`.

    Identical segment construction on the shared generator, but each
    segment runs the per-frame
    :meth:`~repro.system.downlink.OpticalDownlink.run` loop.  Exists
    for the differential battery; results are bit-identical.
    """
    rng = np.random.default_rng(cell.seed)
    results = []
    for segment in cell.segments:
        downlink = OpticalDownlink(cell.interleaver, cell.code,
                                   segment.channel, rng=rng)
        results.append(_segment_result(segment,
                                       downlink.run(segment.frames)))
    return ScenarioResult(cell=cell, segments=tuple(results))


#: Default elevation steps of one contact pass, in degrees: horizon ->
#: zenith -> horizon.
CONTACT_PASS_ELEVATIONS_DEG = (10.0, 20.0, 35.0, 55.0, 75.0, 90.0,
                               75.0, 55.0, 35.0, 20.0, 10.0)


def contact_pass_segments(
    elevations_deg: Sequence[float] = CONTACT_PASS_ELEVATIONS_DEG,
    frames_per_segment: int = 40,
    zenith_fade_symbols: float = 60.0,
    zenith_fade_fraction: float = 0.002,
    p_bad: float = 0.7,
    p_good: float = 0.0,
) -> Tuple[ScenarioSegment, ...]:
    """Piecewise Gilbert–Elliott trajectory of one LEO contact pass.

    A pass sweeps elevation up and back down; scintillation worsens
    toward the horizon roughly with the atmospheric air mass
    ``1 / sin(elevation)`` — fades lengthen *and* cover a larger time
    fraction.  This helper scales the zenith fade statistics by the air
    mass of each elevation step: a deliberately simple model, but one
    with the qualitative shape that stresses the interleaver — hard
    horizon segments bracketing an easy zenith plateau.

    Args:
        elevations_deg: elevation steps in degrees, each in (0, 90].
        frames_per_segment: frames transmitted per step.
        zenith_fade_symbols: mean fade duration at 90° elevation (> 1).
        zenith_fade_fraction: fade time fraction at 90° elevation
            (in (0, 0.5]); horizon fractions are clipped at 0.5.
        p_bad: symbol error probability inside fades.
        p_good: symbol error probability outside fades.
    """
    if not elevations_deg:
        raise ValueError("elevations_deg must be non-empty")
    if frames_per_segment < 1:
        raise ValueError(
            f"frames_per_segment must be >= 1, got {frames_per_segment}")
    if zenith_fade_symbols <= 1.0:
        raise ValueError("zenith_fade_symbols must exceed one symbol, "
                         f"got {zenith_fade_symbols}")
    if not 0.0 < zenith_fade_fraction <= 0.5:
        raise ValueError("zenith_fade_fraction must be in (0, 0.5], "
                         f"got {zenith_fade_fraction}")
    segments = []
    for elevation in elevations_deg:
        if not 0.0 < elevation <= 90.0:
            raise ValueError(
                f"elevations must be in (0, 90] degrees, got {elevation}")
        air_mass = 1.0 / math.sin(math.radians(elevation))
        segments.append(
            ScenarioSegment(
                channel=coherence_params(
                    zenith_fade_symbols * air_mass,
                    min(0.5, zenith_fade_fraction * air_mass),
                    p_bad=p_bad,
                    p_good=p_good,
                ),
                frames=frames_per_segment,
                label=f"el={elevation:g}",
            )
        )
    return tuple(segments)


#: Default cloud-attenuation trace, in dB: clear sky, a cloud moving
#: through the beam, clear sky again.
WEATHER_ATTENUATIONS_DB = (0.0, 1.0, 2.0, 4.0, 6.0, 4.0, 2.0, 1.0, 0.0)


def weather_segments(
    attenuations_db: Sequence[float] = WEATHER_ATTENUATIONS_DB,
    frames_per_segment: int = 40,
    clear_fade_symbols: float = 60.0,
    clear_fade_fraction: float = 0.002,
    p_bad: float = 0.7,
    p_good: float = 0.0,
) -> Tuple[ScenarioSegment, ...]:
    """Piecewise Gilbert–Elliott trajectory of a cloud-attenuation trace.

    Clouds attenuate the optical beam; lower received power drives the
    receiver deeper into its fade regime, so each attenuation step
    scales the clear-sky fade statistics by the linear power factor
    ``10^(A/10)`` — fades lengthen *and* cover a larger time fraction,
    monotonically in the attenuation (the property pinned in
    ``tests/system/test_scenario_builders.py``).  Like the contact-pass
    model this is deliberately simple, but it has the shape that
    matters: a smooth degradation ramp instead of the pass's
    elevation-symmetric bathtub.

    Args:
        attenuations_db: cloud attenuation per step, in dB (each >= 0;
            0 dB = the clear-sky statistics unchanged).
        frames_per_segment: frames transmitted per step.
        clear_fade_symbols: mean fade duration at 0 dB (> 1).
        clear_fade_fraction: fade time fraction at 0 dB (in (0, 0.5]);
            attenuated fractions are clipped at 0.5.
        p_bad: symbol error probability inside fades.
        p_good: symbol error probability outside fades.
    """
    if not attenuations_db:
        raise ValueError("attenuations_db must be non-empty")
    if frames_per_segment < 1:
        raise ValueError(
            f"frames_per_segment must be >= 1, got {frames_per_segment}")
    if clear_fade_symbols <= 1.0:
        raise ValueError("clear_fade_symbols must exceed one symbol, "
                         f"got {clear_fade_symbols}")
    if not 0.0 < clear_fade_fraction <= 0.5:
        raise ValueError("clear_fade_fraction must be in (0, 0.5], "
                         f"got {clear_fade_fraction}")
    segments = []
    for attenuation_db in attenuations_db:
        if attenuation_db < 0.0:
            raise ValueError(
                f"attenuations must be >= 0 dB, got {attenuation_db}")
        factor = 10.0 ** (attenuation_db / 10.0)
        segments.append(
            ScenarioSegment(
                channel=coherence_params(
                    clear_fade_symbols * factor,
                    min(0.5, clear_fade_fraction * factor),
                    p_bad=p_bad,
                    p_good=p_good,
                ),
                frames=frames_per_segment,
                label=f"att={attenuation_db:g}dB",
            )
        )
    return tuple(segments)


def multi_pass_segments(
    passes: int = 3,
    elevations_deg: Sequence[float] = CONTACT_PASS_ELEVATIONS_DEG,
    frames_per_segment: int = 40,
    zenith_fade_symbols: float = 60.0,
    zenith_fade_fraction: float = 0.002,
    p_bad: float = 0.7,
    p_good: float = 0.0,
) -> Tuple[ScenarioSegment, ...]:
    """A multi-pass contact window: several elevation passes in a row.

    A ground station sees a LEO satellite several times per day; each
    sighting is one elevation pass, separated by gaps below the
    horizon.  Nothing is transmitted during a gap, so a gap contributes
    no segment — the trajectory is exactly the per-pass
    :func:`contact_pass_segments` repeated ``passes`` times with each
    segment relabeled ``p<k>:el=...``.  That makes the builder's
    correctness argument a concatenation identity (pinned in
    ``tests/system/test_scenario_builders.py``): evaluating the
    multi-pass trajectory batch-wise equals evaluating each pass's
    scalar reference in sequence.

    Args:
        passes: number of contact passes in the window (>= 1).
        elevations_deg: elevation steps of each pass, in degrees.
        frames_per_segment: frames transmitted per step.
        zenith_fade_symbols: mean fade duration at 90° elevation (> 1).
        zenith_fade_fraction: fade time fraction at 90° elevation.
        p_bad: symbol error probability inside fades.
        p_good: symbol error probability outside fades.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    single = contact_pass_segments(
        elevations_deg=elevations_deg,
        frames_per_segment=frames_per_segment,
        zenith_fade_symbols=zenith_fade_symbols,
        zenith_fade_fraction=zenith_fade_fraction,
        p_bad=p_bad,
        p_good=p_good,
    )
    segments = []
    for index in range(1, passes + 1):
        for segment in single:
            segments.append(
                replace(segment, label=f"p{index}:{segment.label}"))
    return tuple(segments)


def _pool_segments(results: Sequence[ScenarioResult],
                   index: int) -> SegmentResult:
    """Pool segment ``index`` across same-structured scenario results."""
    members = [result.segments[index] for result in results]
    first = members[0]
    return SegmentResult(
        label=first.label,
        frames=sum(member.frames for member in members),
        codewords=sum(member.codewords for member in members),
        failed_interleaved=sum(m.failed_interleaved for m in members),
        failed_baseline=sum(m.failed_baseline for m in members),
        error_symbols=sum(m.error_symbols for m in members),
        max_burst=max(m.max_burst for m in members),
        max_errors_interleaved=max(m.max_errors_interleaved for m in members),
        max_errors_baseline=max(m.max_errors_baseline for m in members),
    )


def format_scenario(results: Sequence[ScenarioResult]) -> str:
    """Render scenario results as a per-segment pooled text table.

    All results must share one segment structure (the same trajectory
    run under different seeds); seeds pool per segment position, and a
    total row pools the whole pass.

    Raises:
        ValueError: if the results disagree on segment count, labels or
            per-segment frame counts.
    """
    if not results:
        return "(no scenario results)"
    structure = tuple((segment.label, segment.frames)
                      for segment in results[0].cell.segments)
    for result in results[1:]:
        shape = tuple((segment.label, segment.frames)
                      for segment in result.cell.segments)
        if shape != structure:
            raise ValueError(
                "scenario results disagree on segment structure; pool "
                "only same-trajectory cells")
    header = (
        f"{'segment':>10s} {'fade':>6s} {'frac':>7s} {'frames':>7s} "
        f"{'words':>8s} {'CWER base':>10s} {'CWER intl':>10s} "
        f"{'95% CI':>21s} {'gain':>8s}"
    )
    lines = [header]
    pooled = [_pool_segments(results, index)
              for index in range(len(structure))]
    for index, segment in enumerate(pooled):
        channel = results[0].cell.segments[index].channel
        low, high = wilson_interval(segment.failed_interleaved,
                                    segment.codewords)
        lines.append(
            f"{segment.label:>10s} {channel.mean_fade_symbols:6.0f} "
            f"{channel.stationary_bad:7.4f} {segment.frames:7d} "
            f"{segment.codewords:8d} "
            f"{segment.failure_rate_baseline:10.2e} "
            f"{segment.failure_rate_interleaved:10.2e} "
            f"{_format_ci(low, high):>21s} "
            f"{_format_gain(segment.gain):>8s}"
        )
    total_codewords = sum(segment.codewords for segment in pooled)
    total_failed_int = sum(segment.failed_interleaved for segment in pooled)
    total_failed_base = sum(segment.failed_baseline for segment in pooled)
    if total_failed_int:
        total_gain = total_failed_base / total_failed_int
    else:
        total_gain = 1.0 if total_failed_base == 0 else float("inf")
    low, high = wilson_interval(total_failed_int, total_codewords)
    rate_base = total_failed_base / total_codewords
    rate_int = total_failed_int / total_codewords
    total_frames = sum(segment.frames for segment in pooled)
    lines.append(
        f"{'total':>10s} {'':>6s} {'':>7s} {total_frames:7d} "
        f"{total_codewords:8d} {rate_base:10.2e} {rate_int:10.2e} "
        f"{_format_ci(low, high):>21s} {_format_gain(total_gain):>8s}"
    )
    lines.append("(per-segment rows pool all seeds at the same trajectory "
                 "position; total pools the whole pass)")
    return "\n".join(lines)
