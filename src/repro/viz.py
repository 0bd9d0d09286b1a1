"""Text rendering of mapping schemes (the paper's Fig. 1).

Renders small index spaces as grids of per-cell labels so the four
sub-figures of Fig. 1 can be regenerated and eyeballed:

* 1a — bank assignment only (diagonal pattern),
* 1b — page-tile columns,
* 1c — full bank/column/row labels without the offset,
* 1d — the same with the bank-staggered circular offset.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, List, Sequence

from repro.interleaver.triangular import IndexSpace
from repro.mapping.optimized import OptimizedMapping

if TYPE_CHECKING:
    from repro.dram.geometry import Geometry
    from repro.system.adaptive import AdaptiveResult
    from repro.system.campaign import CampaignSummary
    from repro.system.sweep import E2ERow
    from repro.system.throughput import EnergyProvisioningPoint


def render_grid(space: IndexSpace, label: Callable[[int, int], str],
                col_width: int = 0) -> str:
    """Render ``label(i, j)`` for every cell of a 2-D index space.

    Cells outside the space (the lower-right half of a triangle) are
    left blank, matching the triangular storage array of the paper.
    """
    rows: List[List[str]] = []
    width = 0
    for i in range(space.height):
        row = []
        for j in range(space.width):
            text = label(i, j) if space.contains(i, j) else ""
            width = max(width, len(text))
            row.append(text)
        rows.append(row)
    width = max(width, col_width)
    lines = []
    for row in rows:
        lines.append(" ".join(text.ljust(width) for text in row).rstrip())
    return "\n".join(lines)


def render_banks(mapping: OptimizedMapping) -> str:
    """Fig. 1a: the diagonal bank pattern."""
    return render_grid(mapping.space, lambda i, j: f"B{mapping.bank_of(i, j)}")


def render_columns(mapping: OptimizedMapping) -> str:
    """Fig. 1b: the page-column assignment."""
    def label(i: int, j: int) -> str:
        _bank, _row, column = mapping.address_tuple(i, j)
        return f"C{column}"

    return render_grid(mapping.space, label)


def render_full(mapping: OptimizedMapping) -> str:
    """Fig. 1c / 1d: bank, column and row of every cell."""
    def label(i: int, j: int) -> str:
        bank, row, column = mapping.address_tuple(i, j)
        return f"B{bank}C{column}R{row}"

    return render_grid(mapping.space, label)


def render_figure1(space: IndexSpace, geometry: Geometry) -> str:
    """All four Fig. 1 panels for a small space/geometry pair."""
    no_offset = OptimizedMapping(space, geometry, enable_offset=False)
    full = OptimizedMapping(space, geometry)
    sections = [
        ("(a) Banks (diagonal rotation)", render_banks(full)),
        ("(b) Page-tile columns", render_columns(no_offset)),
        ("(c) Banks, Columns and Rows", render_full(no_offset)),
        ("(d) BCR with bank-staggered offset", render_full(full)),
    ]
    blocks = []
    for title, body in sections:
        blocks.append(f"{title}\n{body}")
    return "\n\n".join(blocks)


def render_campaign_gains(summaries: Iterable[CampaignSummary],
                          width: int = 30) -> str:
    """Interleaving gain vs. fade duration as a text chart.

    One line per campaign summary row, ordered by mean fade length:
    the bar is the pooled interleaving gain on a log10 scale (``inf``
    gains — every baseline failure rescued — fill the full width), with
    the interleaved failure rate and its 95 % Wilson interval as the
    caption.  This is the campaign analogue of the paper's Sec. I
    claim: gain should grow with fade duration until the correction
    radius saturates.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    rows = sorted(
        summaries,
        key=lambda s: (s.mean_fade_symbols, s.fade_fraction,
                       s.interleaver.triangle_n),
    )
    if not rows:
        return "(no campaign summaries)"
    # Log scale spanning gain 1 .. max finite observed (at least one
    # decade).  Sub-unity gains (interleaver saturation) render as an
    # empty bar; they must not stretch the axis for the positive rows.
    above_unity = [s.gain for s in rows if 1.0 < s.gain < float("inf")]
    top = max(1.0, max((_log10(g) for g in above_unity), default=1.0))
    lines = [f"{'fade':>6s} {'frac':>7s} {'n':>4s}  "
             f"{'gain (log scale)':{width}s} {'CWER intl':>10s} {'95% CI':>21s}"]
    for summary in rows:
        gain = summary.gain
        if math.isinf(gain):
            bar = "#" * width
            label = "inf"
        else:
            filled = round(min(1.0, max(0.0, _log10(gain) / top)) * width)
            bar = "#" * filled + "-" * (width - filled)
            label = f"{gain:.1f}x"
        low, high = summary.interval_interleaved
        lines.append(
            f"{summary.mean_fade_symbols:6.0f} {summary.fade_fraction:7.4f} "
            f"{summary.interleaver.triangle_n:4d}  {bar} "
            f"{summary.failure_rate_interleaved:10.2e} "
            f"[{low:.2e},{high:.2e}] {label}"
        )
    return "\n".join(lines)


def render_adaptive_savings(results: Iterable[AdaptiveResult],
                            width: int = 30) -> str:
    """Frame savings of adaptive stopping as a text chart.

    One line per adaptive cell, ordered like the campaign chart (fade,
    fraction, triangle, seed): the bar is the fraction of the frame
    budget actually *spent* on a linear scale — a short bar means
    adaptive stopping saved most of the budget — captioned with the
    frames spent, the budget, the savings ratio and whether the CI
    target converged before the cap.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    rows = sorted(
        results,
        key=lambda r: (r.cell.channel.mean_fade_symbols,
                       r.cell.channel.stationary_bad,
                       r.cell.interleaver.triangle_n, r.cell.seed),
    )
    if not rows:
        return "(no adaptive results)"
    lines = [f"{'fade':>6s} {'frac':>7s} {'n':>4s} {'seed':>6s}  "
             f"{'frames spent / budget':{width}s} {'used':>13s} "
             f"{'saved':>7s} {'conv':>4s}"]
    for outcome in rows:
        cell = outcome.cell
        fraction = outcome.frames_used / cell.max_frames
        filled = round(min(1.0, fraction) * width)
        bar = "#" * filled + "-" * (width - filled)
        frames_text = f"{outcome.frames_used}/{cell.max_frames}"
        lines.append(
            f"{cell.channel.mean_fade_symbols:6.0f} "
            f"{cell.channel.stationary_bad:7.4f} "
            f"{cell.interleaver.triangle_n:4d} {cell.seed:6d}  {bar} "
            f"{frames_text:>13s} {outcome.frames_saved_ratio:6.1f}x "
            f"{'yes' if outcome.converged else 'cap':>4s}"
        )
    return "\n".join(lines)


def render_energy_pareto(points: Iterable[EnergyProvisioningPoint],
                         width: int = 30) -> str:
    """Bandwidth-vs-power provisioning chart (text).

    One line per :class:`~repro.system.throughput
    .EnergyProvisioningPoint`, ordered by sustained bandwidth: the bar
    is the total average power on a linear scale (the resource being
    spent), the columns give the line rate bought and its pJ/bit, and
    ``*`` flags the Pareto frontier — the points where no alternative
    (grade, mapping, channel count) delivers at least the same
    bandwidth for less power.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    rows = list(points)
    if not rows:
        return "(no provisioning points)"
    top = max(p.power_mw for p in rows)
    lines = [f"  {'DRAM':14s} {'mapping':10s} {'ch':>3s} {'Gbit/s':>8s} "
             f"{'power (linear scale)':{width}s} {'mW':>9s} {'pJ/bit':>7s}"]
    for point in rows:
        filled = round(point.power_mw / top * width) if top > 0 else 0
        bar = "#" * filled + "-" * (width - filled)
        mark = "*" if point.on_frontier else " "
        lines.append(
            f"{mark} {point.report.config_name:14s} "
            f"{point.report.mapping_name:10s} {point.channels:3d} "
            f"{point.sustained_gbit:8.1f} {bar} "
            f"{point.power_mw:9.1f} {point.pj_per_bit:7.2f}"
        )
    lines.append("(* = Pareto frontier: no cheaper way to buy at least this bandwidth)")
    return "\n".join(lines)


def render_e2e_latency(rows: Iterable[E2ERow], width: int = 30) -> str:
    """Per-frame latency-percentile chart of the e2e co-simulation table.

    Two lines per :class:`~repro.system.sweep.E2ERow` — one per DRAM
    phase: the bar spans p50 (``#``) to p99 (``+``) of the per-frame
    service time on a linear scale shared by every line, so tail
    inflation (refresh interruptions, row-miss chains of the collapsed
    mapping) is visible as the ``+`` overhang past the solid bar.  The
    columns give p50/p90/p99 in microseconds.

    Args:
        rows: :class:`~repro.system.sweep.E2ERow` sequence (one per
            configuration x mapping cell).
        width: bar width in characters.

    Raises:
        ValueError: on a non-positive ``width``.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    rows = list(rows)
    if not rows:
        return "(no e2e rows)"
    samples = []
    for row in rows:
        for phase in ("write", "read"):
            result = row.result
            pick = (result.write_latency_percentile if phase == "write"
                    else result.read_latency_percentile)
            samples.append((row, phase, pick(50), pick(90), pick(99)))
    top = max(p99 for _, _, _, _, p99 in samples)
    lines = [f"{'DRAM':14s} {'mapping':10s} {'phase':5s} "
             f"{'frame latency p50..p99':{width}s} "
             f"{'p50us':>8s} {'p90us':>8s} {'p99us':>8s}"]
    for row, phase, p50, p90, p99 in samples:
        if top > 0:
            filled = round(p50 / top * width)
            tail = max(round(p99 / top * width) - filled, 0)
        else:
            filled = tail = 0
        bar = "#" * filled + "+" * tail + "-" * max(width - filled - tail, 0)
        lines.append(
            f"{row.config_name:14s} {row.mapping_name:10s} {phase:5s} "
            f"{bar} {p50 / 1e6:8.3f} {p90 / 1e6:8.3f} {p99 / 1e6:8.3f}"
        )
    lines.append("(bar: # to p50, + to p99; shared linear scale — "
                 "the + overhang is the tail a refresh or row-miss chain adds)")
    return "\n".join(lines)


def _log10(value: float) -> float:
    return math.log10(value) if value > 0 else 0.0


def utilization_bar(value: float, width: int = 40) -> str:
    """ASCII bar for utilization tables (benchmark output)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"utilization must be in [0, 1], got {value}")
    filled = round(value * width)
    return "#" * filled + "-" * (width - filled)


def side_by_side(blocks: Sequence[str], gap: int = 4) -> str:
    """Join multi-line blocks horizontally (small layout helper)."""
    split = [block.splitlines() for block in blocks]
    height = max(len(lines) for lines in split)
    widths = [max((len(line) for line in lines), default=0) for lines in split]
    out = []
    for row in range(height):
        parts = []
        for lines, width in zip(split, widths):
            text = lines[row] if row < len(lines) else ""
            parts.append(text.ljust(width))
        out.append((" " * gap).join(parts).rstrip())
    return "\n".join(out)
