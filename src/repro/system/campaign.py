"""Monte Carlo downlink campaign engine.

The paper's system argument (Sec. I) is statistical: the triangular
interleaver keeps per-code-word error counts below the correction
radius *across the distribution of fades*, not in one lucky frame.
This module turns the single-scenario :class:`~repro.system.downlink.
OpticalDownlink` demo into a campaign: a grid of

    (GilbertElliottParams x TwoStageConfig x CodewordConfig x seed)

cells, each an independent Monte Carlo experiment of many frames
through the batched channel/decoder hot path, fanned out over the
process-pool engine of :mod:`repro.system.parallel` and aggregated into
code-word failure rates with Wilson confidence intervals and
interleaving-gain statistics.

Design rules mirrored from the sweep engine:

* cells are declarative frozen dataclasses of primitives — they pickle
  cheaply and every worker rebuilds its own simulator state;
* each cell derives its RNG from its own seed, so results are
  bit-identical for any worker count (``--jobs`` must never perturb the
  statistics — regression-tested);
* the pool is an optimization, never a requirement: restricted
  environments silently fall back to the serial path with identical
  results.

Campaigns can be long; results persist in the content-addressed
:class:`repro.store.store.ResultStore` (``store``), one
atomic JSON entry per cell keyed by a hash of its full configuration,
so an interrupted campaign resumes without recomputing finished cells
(``--resume``) and other consumers — the ``repro serve`` job engine,
later CLI invocations — reuse the same entries.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

import numpy as np

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.interleaver.two_stage import TwoStageConfig
from repro.system.downlink import (OpticalDownlink, check_dimensions,
                                   format_gain, gain_ratio)
from repro.system.parallel import TaskStore, run_tasks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store -> campaign)
    from repro.store.store import ResultStore
    from repro.system.adaptive import SegmentResult

#: Bump when the cell evaluation or result schema changes: stale cache
#: entries from older code must miss, not resurface.
CACHE_VERSION = 1


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    The standard interval for Monte Carlo failure rates: unlike the
    normal approximation it stays inside ``[0, 1]`` and behaves at the
    extremes (0 or ``trials`` failures), which is exactly where a good
    interleaver run lands.

    Args:
        failures: observed failure count.
        trials: number of Bernoulli trials (> 0).
        z: normal quantile (1.96 = 95 % coverage).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must be in [0, {trials}], got {failures}")
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    p = failures / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denominator
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    half /= denominator
    return (max(0.0, center - half), min(1.0, center + half))


class TwoArmStats:
    """Failure rates, Wilson intervals and gain of the two decoding arms.

    The one definition of the statistics every Monte Carlo result
    reports: a campaign cell, a pooled summary row, a scenario segment
    and a whole scenario.  The base holds no fields.  Each subclass
    supplies ``codewords``, ``failed_interleaved`` and
    ``failed_baseline``, as fields or as properties, and every
    statistic derives from those three counts.
    """

    if TYPE_CHECKING:  # pragma: no cover - supplied by every subclass
        @property
        def codewords(self) -> int: ...
        @property
        def failed_interleaved(self) -> int: ...
        @property
        def failed_baseline(self) -> int: ...

    @property
    def failure_rate_interleaved(self) -> float:
        """Code-word failure rate with the two-stage interleaver."""
        return self.failed_interleaved / self.codewords if self.codewords else 0.0

    @property
    def failure_rate_baseline(self) -> float:
        """Code-word failure rate without interleaving."""
        return self.failed_baseline / self.codewords if self.codewords else 0.0

    @property
    def interval_interleaved(self) -> Tuple[float, float]:
        """95 % Wilson interval of the interleaved failure rate."""
        return wilson_interval(self.failed_interleaved, self.codewords)

    @property
    def interval_baseline(self) -> Tuple[float, float]:
        """95 % Wilson interval of the baseline failure rate."""
        return wilson_interval(self.failed_baseline, self.codewords)

    @property
    def gain(self) -> float:
        """Failure-rate ratio baseline / interleaved (``inf`` = rescued all)."""
        return gain_ratio(self.failed_baseline, self.failed_interleaved)

    def two_arm_columns(self) -> Dict[str, object]:
        """The nine two-arm columns of the JSON and CSV exports."""
        low_i, high_i = self.interval_interleaved
        low_b, high_b = self.interval_baseline
        return {
            "codewords": self.codewords,
            "failed_interleaved": self.failed_interleaved,
            "failed_baseline": self.failed_baseline,
            "failure_rate_interleaved": self.failure_rate_interleaved,
            "ci_low_interleaved": low_i,
            "ci_high_interleaved": high_i,
            "failure_rate_baseline": self.failure_rate_baseline,
            "ci_low_baseline": low_b,
            "ci_high_baseline": high_b,
        }


@dataclass(frozen=True)
class CampaignCell:
    """One independent Monte Carlo experiment of the campaign grid.

    Attributes:
        channel: Gilbert–Elliott fade statistics.
        interleaver: two-stage interleaver dimensions.
        code: code-word length and correction radius.
        seed: RNG seed; the cell's entire randomness derives from it.
        frames: frames to simulate.
    """

    channel: GilbertElliottParams
    interleaver: TwoStageConfig
    code: CodewordConfig
    seed: int
    frames: int

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        check_dimensions(self.interleaver, self.code)

    def execute(self) -> "CellResult":
        """Evaluate the cell (see :func:`evaluate_cell`)."""
        return evaluate_cell(self)


@dataclass(frozen=True)
class CellResult(TwoArmStats):
    """Aggregate outcome of one campaign cell.

    All statistics (rates, intervals, gain; see :class:`TwoArmStats`)
    derive from the stored counts, so equality between two results
    means the underlying Monte Carlo runs were identical — the
    determinism tests rely on that.
    """

    cell: CampaignCell
    codewords: int
    failed_interleaved: int
    failed_baseline: int
    error_symbols: int
    max_burst: int
    max_errors_interleaved: int
    max_errors_baseline: int

    def __post_init__(self) -> None:
        if self.codewords < 1:
            raise ValueError(
                f"codewords must be >= 1, got {self.codewords}")
        for field in ("failed_interleaved", "failed_baseline"):
            value = int(getattr(self, field))
            if not 0 <= value <= self.codewords:
                raise ValueError(
                    f"{field} must be in [0, codewords={self.codewords}], "
                    f"got {value}")

    @property
    def symbol_error_rate(self) -> float:
        """Observed channel symbol error rate over the whole cell."""
        total = self.cell.frames * self.cell.interleaver.symbols_per_frame
        return self.error_symbols / total if total else 0.0


def run_frames(
    downlink: OpticalDownlink,
    frames: int,
    batch_frames: int,
    stop: Optional[Callable[[int, int], bool]] = None,
) -> Tuple[int, Dict[str, int]]:
    """The Monte Carlo batch loop: run frames, tally the cell counts.

    Runs up to ``frames`` frames through
    :meth:`~repro.system.downlink.OpticalDownlink.run_batched` in blocks
    of ``batch_frames``.  After each block, ``stop(failed_interleaved,
    codewords)`` may end the run early.  RNG consumption is
    frame-sequential regardless of blocking and every count is an
    integer sum or max, so a run stopped after N frames is
    bit-identical to one block of N frames.

    Returns:
        The frames run, and the counts keyed by their
        :class:`CellResult` field names.
    """
    codewords = failed_interleaved = failed_baseline = error_symbols = 0
    max_burst = max_errors_interleaved = max_errors_baseline = 0
    done = 0
    while done < frames:
        block = min(batch_frames, frames - done)
        outcome = downlink.run_batched(block)
        done += block
        codewords += outcome.interleaved.codewords
        failed_interleaved += outcome.interleaved.failed
        failed_baseline += outcome.baseline.failed
        error_symbols += outcome.channel_profile.error_symbols
        max_burst = max(max_burst, outcome.channel_profile.max_burst)
        max_errors_interleaved = max(max_errors_interleaved,
                                     outcome.max_errors_interleaved)
        max_errors_baseline = max(max_errors_baseline,
                                  outcome.max_errors_baseline)
        if stop is not None and stop(failed_interleaved, codewords):
            break
    return done, {
        "codewords": codewords,
        "failed_interleaved": failed_interleaved,
        "failed_baseline": failed_baseline,
        "error_symbols": error_symbols,
        "max_burst": max_burst,
        "max_errors_interleaved": max_errors_interleaved,
        "max_errors_baseline": max_errors_baseline,
    }


def pool_counts(
        members: Sequence[Union[CellResult, "SegmentResult"]]) -> Dict[str, int]:
    """Pool the counts of several runs (non-empty), keyed like :func:`run_frames`.

    The one pooling rule of the Monte Carlo results: code words, both
    arms' failures and corrupted symbols add up; the longest fade and
    the worst per-code-word error counts are maxima.
    """
    return {
        "codewords": sum(m.codewords for m in members),
        "failed_interleaved": sum(m.failed_interleaved for m in members),
        "failed_baseline": sum(m.failed_baseline for m in members),
        "error_symbols": sum(m.error_symbols for m in members),
        "max_burst": max(m.max_burst for m in members),
        "max_errors_interleaved": max(m.max_errors_interleaved
                                      for m in members),
        "max_errors_baseline": max(m.max_errors_baseline for m in members),
    }


def evaluate_cell(cell: CampaignCell) -> CellResult:
    """Run one cell to completion (also the process-pool worker entry).

    The cell's generator is derived from its seed alone, and the frames
    run as one block of :func:`run_frames` — bit-identical to the
    per-frame loop, several times faster.
    """
    downlink = OpticalDownlink(
        cell.interleaver,
        cell.code,
        cell.channel,
        rng=np.random.default_rng(cell.seed),
    )
    _, counts = run_frames(downlink, cell.frames, cell.frames)
    return CellResult(cell=cell, **counts)


def campaign_grid(
    channels: Sequence[GilbertElliottParams],
    interleavers: Sequence[TwoStageConfig],
    codes: Sequence[CodewordConfig],
    seeds: Sequence[int],
    frames: int,
) -> List[CampaignCell]:
    """The full cross product of campaign axes, in deterministic order.

    Interleaver/code pairs whose dimensions disagree (the
    :class:`~repro.system.downlink.OpticalDownlink` constructor would
    reject them) are skipped, so mixed code lengths can share one grid.

    Args:
        channels: Gilbert–Elliott parameter sets to sweep.
        interleavers: two-stage interleaver geometries to sweep.
        codes: code configurations to sweep.
        seeds: RNG seeds replicated per configuration.
        frames: frames per cell.

    Returns:
        One cell per compatible (channel, interleaver, code, seed)
        combination, in nested-loop order.
    """
    cells = []
    for channel in channels:
        for interleaver in interleavers:
            for code in codes:
                if interleaver.codeword_symbols != code.n_symbols:
                    continue
                for seed in seeds:
                    cells.append(
                        CampaignCell(
                            channel=channel,
                            interleaver=interleaver,
                            code=code,
                            seed=int(seed),
                            frames=frames,
                        )
                    )
    return cells


def run_campaign(
    cells: Iterable[CampaignCell],
    jobs: Optional[int] = None,
    resume: bool = False,
    store: Optional["ResultStore"] = None,
) -> List[CellResult]:
    """Evaluate cells, parallel when asked, and return results in order.

    Args:
        cells: work items; results come back in the same order.
        jobs: worker processes (see
            :func:`repro.system.parallel.resolve_jobs`).
        resume: reuse existing store entries instead of recomputing
            (entries whose configuration does not match are recomputed,
            never trusted; unreadable entries warn once to stderr).
            Without it the store is written but never read.
        store: the shared :class:`~repro.store.store.ResultStore` to
            persist finished cells into (always written).

    Results are bit-identical for any ``jobs`` value: every cell's
    randomness comes from its own seed, and the pool falls back to the
    serial path when worker processes cannot be spawned.
    """
    view: Optional[TaskStore] = (
        _WriteOnly(store) if store is not None and not resume else store)
    return run_tasks(cells, jobs=jobs, store=view)


class _WriteOnly:
    """A store view that persists every finished cell but serves none."""

    def __init__(self, store: "ResultStore") -> None:
        self.store = store

    def load(self, cell: CampaignCell) -> None:
        return None

    def save(self, cell: CampaignCell, result: CellResult) -> None:
        self.store.save(cell, result)


@dataclass(frozen=True)
class CampaignSummary(TwoArmStats):
    """Per-configuration statistics pooled across seeds.

    The rates, intervals and gain (:class:`TwoArmStats`) are those of
    the pooled counts, so a zero-failure seed cannot skew the gain.

    Attributes:
        channel / interleaver / code: the configuration axis values.
        cells: seeds pooled into this row.
        frames: total frames across those seeds.
        codewords: total code words decoded per arm.
        failed_interleaved / failed_baseline: pooled failure counts.
        max_errors_interleaved: worst per-code-word error count seen
            with interleaving across all seeds.
        max_burst: longest channel fade observed.
    """

    channel: GilbertElliottParams
    interleaver: TwoStageConfig
    code: CodewordConfig
    cells: int
    frames: int
    codewords: int
    failed_interleaved: int
    failed_baseline: int
    max_errors_interleaved: int
    max_burst: int

    @property
    def mean_fade_symbols(self) -> float:
        """Mean fade duration of the row's channel, in symbols."""
        return self.channel.mean_fade_symbols

    @property
    def fade_fraction(self) -> float:
        """Long-run fraction of time the row's channel spends fading."""
        return self.channel.stationary_bad

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for exports.

        An infinite pooled gain (zero interleaved failures against a
        failing baseline) serializes as ``null`` — ``json.dump`` would
        otherwise emit the non-RFC token ``Infinity`` that strict
        parsers (jq, ``JSON.parse``) reject.
        """
        gain = self.gain
        return {
            "p_g2b": self.channel.p_g2b,
            "p_b2g": self.channel.p_b2g,
            "p_bad": self.channel.p_bad,
            "p_good": self.channel.p_good,
            "mean_fade_symbols": self.mean_fade_symbols,
            "fade_fraction": self.fade_fraction,
            "triangle_n": self.interleaver.triangle_n,
            "symbols_per_element": self.interleaver.symbols_per_element,
            "n_symbols": self.code.n_symbols,
            "t_correctable": self.code.t_correctable,
            "cells": self.cells,
            "frames": self.frames,
            **self.two_arm_columns(),
            "pooled_gain": gain if math.isfinite(gain) else None,
            "max_errors_interleaved": self.max_errors_interleaved,
            "max_burst": self.max_burst,
        }


def summarize_campaign(results: Sequence[CellResult]) -> List[CampaignSummary]:
    """Pool per-seed cells into per-configuration summary rows.

    Rows appear in first-seen order of their configuration, so the
    summary follows the grid layout of the input.
    """
    grouped: Dict[Tuple, List[CellResult]] = {}
    for result in results:
        cell = result.cell
        key = (cell.channel, cell.interleaver, cell.code)
        grouped.setdefault(key, []).append(result)
    summaries = []
    for (channel, interleaver, code), members in grouped.items():
        counts = pool_counts(members)
        summaries.append(CampaignSummary(
            channel=channel, interleaver=interleaver, code=code,
            cells=len(members), frames=sum(m.cell.frames for m in members),
            codewords=counts["codewords"],
            failed_interleaved=counts["failed_interleaved"],
            failed_baseline=counts["failed_baseline"],
            max_errors_interleaved=counts["max_errors_interleaved"],
            max_burst=counts["max_burst"]))
    return summaries


def format_ci(low: float, high: float) -> str:
    """Compact ``[low,high]`` interval cell of the campaign tables."""
    return f"[{low:.2e},{high:.2e}]"


def format_campaign(summaries: Sequence[CampaignSummary]) -> str:
    """Render summary rows as the campaign's headline text table.

    One row per (channel x interleaver x code) configuration; failure
    rates come with 95 % Wilson intervals, the gain column is the
    pooled baseline/interleaved failure ratio.
    """
    header = (
        f"{'fade':>6s} {'frac':>7s} {'n':>4s} {'t':>3s} {'words':>9s} "
        f"{'CWER base':>10s} {'95% CI':>21s} "
        f"{'CWER intl':>10s} {'95% CI':>21s} {'gain':>8s} {'worst':>5s}"
    )
    lines = [header]
    for summary in summaries:
        lines.append(
            f"{summary.mean_fade_symbols:6.0f} {summary.fade_fraction:7.4f} "
            f"{summary.interleaver.triangle_n:4d} {summary.code.t_correctable:3d} "
            f"{summary.codewords:9d} "
            f"{summary.failure_rate_baseline:10.2e} "
            f"{format_ci(*summary.interval_baseline):>21s} "
            f"{summary.failure_rate_interleaved:10.2e} "
            f"{format_ci(*summary.interval_interleaved):>21s} "
            f"{format_gain(summary.gain):>8s} "
            f"{summary.max_errors_interleaved:5d}"
        )
    lines.append("(CWER = code-word failure rate; gain = pooled base/intl ratio; "
                 "worst = max errors in any interleaved code word)")
    return "\n".join(lines)


def campaign_report(results: Sequence[CellResult],
                    summaries: Sequence[CampaignSummary]) -> str:
    """The campaign's full stdout report: size header plus table.

    Shared verbatim by ``repro campaign`` and the ``repro serve`` job
    engine's ``/jobs/<id>/table`` endpoint, so the two can never drift
    apart — the serve smoke test diffs them byte for byte.

    Args:
        results: per-cell outcomes (sizes the header line).
        summaries: pooled per-configuration rows (the table body).
    """
    header = (f"campaign: {len(results)} cells, "
              f"{sum(r.cell.frames for r in results)} frames, "
              f"{sum(r.codewords for r in results)} code words per arm")
    return header + "\n" + format_campaign(summaries)


def export_json(results: Sequence[CellResult],
                summaries: Sequence[CampaignSummary], stream: TextIO) -> None:
    """Write the full campaign (cells + summaries) as one JSON document.

    Args:
        results: per-cell outcomes, exported under ``"cells"``.
        summaries: pooled per-configuration rows, exported under
            ``"summaries"``.
        stream: writable text stream receiving the document.
    """
    # Imported here to avoid a circular import at module load time
    # (the store's records import this module).
    from repro.store.records import encode

    json.dump(
        {
            "cache_version": CACHE_VERSION,
            "cells": [encode(result) for result in results],
            "summaries": [summary.to_dict() for summary in summaries],
        },
        stream,
        indent=2,
        sort_keys=True,
        allow_nan=False,  # fail loud rather than emit non-RFC Infinity/NaN
    )
    stream.write("\n")


#: Column order of the CSV export (one row per cell).
CSV_FIELDS = (
    "p_g2b", "p_b2g", "p_bad", "p_good", "triangle_n", "symbols_per_element",
    "codeword_symbols", "n_symbols", "t_correctable", "seed", "frames",
    "codewords", "failed_interleaved", "failed_baseline",
    "failure_rate_interleaved", "ci_low_interleaved", "ci_high_interleaved",
    "failure_rate_baseline", "ci_low_baseline", "ci_high_baseline",
    "gain", "error_symbols", "max_burst",
    "max_errors_interleaved", "max_errors_baseline",
)


def export_csv(results: Sequence[CellResult], stream: TextIO) -> None:
    """Write one CSV row per cell (flat schema, spreadsheet-ready).

    Args:
        results: per-cell outcomes; one :data:`CSV_FIELDS` row each.
        stream: writable text stream receiving header plus rows.
    """
    # Imported here to avoid a circular import at module load time
    # (the store's records import this module).
    from repro.store.records import encode

    writer = csv.DictWriter(stream, fieldnames=list(CSV_FIELDS))
    writer.writeheader()
    for result in results:
        row = encode(result.cell)
        row.update(
            result.two_arm_columns(),
            # Non-finite gains are unrepresentable in both documented
            # export formats: JSON serializes them as null, CSV as an
            # empty field.  The finite counts in the row reconstruct
            # the gain either way.
            gain=result.gain if math.isfinite(result.gain) else "",
            error_symbols=result.error_symbols,
            max_burst=result.max_burst,
            max_errors_interleaved=result.max_errors_interleaved,
            max_errors_baseline=result.max_errors_baseline,
        )
        writer.writerow(row)
