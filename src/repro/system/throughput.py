"""Interleaver throughput and DRAM provisioning analysis (Sec. I & III).

The interleaver continuously alternates write and read phases on the
same device, so its sustained throughput on a DRAM channel is::

    throughput = min(util_write, util_read) x peak_bandwidth / 2

(the factor 2: every payload symbol crosses the DRAM bus twice, once
written and once read).  Because the row-major mapping's read phase
collapses on fast devices, a system architect has to *over-provision*
the DRAM — pick a faster speed grade or a wider bus — to reach a target
line rate; the optimized mapping removes that tax.  These helpers
quantify exactly that argument.

Over-provisioning has an *energy* face too (paper Sec. I: "higher
costs and additional energy consumption"): every extra channel bought
to compensate a collapsed phase burns background and per-access power.
:func:`energy_pareto` spans the (channels x grade x mapping) space and
marks the bandwidth-vs-power Pareto frontier, pairing each
:class:`ThroughputReport` with an
:class:`~repro.dram.energy.EnergyReport` (see
:mod:`repro.dram.energy` for the command-level model and
:func:`repro.system.sweep.run_energy_table` for the per-cell table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dram.energy import EnergyReport
from repro.dram.presets import DramConfig
from repro.dram.simulator import InterleaverSimResult
from repro.units import gbit_per_s


@dataclass(frozen=True)
class ThroughputReport:
    """Sustained interleaver throughput on one configuration.

    Attributes:
        config_name: DRAM configuration.
        mapping_name: address mapping used.
        min_utilization: throughput-limiting phase utilization.
        peak_bandwidth_gbit: channel peak bandwidth in Gbit/s.
        sustained_gbit: achievable interleaver line rate in Gbit/s
            (both phases run on one device, hence the /2).
    """

    config_name: str
    mapping_name: str
    min_utilization: float
    peak_bandwidth_gbit: float
    sustained_gbit: float

    @property
    def efficiency(self) -> float:
        """Sustained line rate relative to the ideal device limit."""
        return self.sustained_gbit / (self.peak_bandwidth_gbit / 2)


def throughput_report(config: DramConfig, result: InterleaverSimResult) -> ThroughputReport:
    """Build a :class:`ThroughputReport` from a simulation result.

    Args:
        config: the configuration that was simulated (supplies the peak
            bandwidth the utilizations are scaled against).
        result: both-phase simulation outcome of one (configuration,
            mapping) cell.

    Returns:
        The derived report; ``sustained_gbit`` is
        ``min(write, read) x peak / 2`` (each payload byte crosses the
        bus twice per frame).
    """
    peak = gbit_per_s(config.peak_bandwidth_bytes_per_s)
    min_util = result.min_utilization
    return ThroughputReport(
        config_name=config.name,
        mapping_name=result.mapping_name,
        min_utilization=min_util,
        peak_bandwidth_gbit=peak,
        sustained_gbit=min_util * peak / 2,
    )


def required_channels(report: ThroughputReport, target_gbit: float) -> int:
    """Parallel channels of this configuration needed for a line rate.

    Args:
        report: sustained-throughput report of one (configuration,
            mapping) option.
        target_gbit: required interleaver line rate in Gbit/s.

    Returns:
        The smallest channel count whose combined sustained bandwidth
        covers the target (at least 1).

    Raises:
        ValueError: on a non-positive target, or a report that sustains
            no throughput at all.
    """
    if target_gbit <= 0:
        raise ValueError(f"target_gbit must be positive, got {target_gbit}")
    if report.sustained_gbit <= 0:
        raise ValueError(f"{report.config_name} sustains no throughput")
    return max(1, math.ceil(target_gbit / report.sustained_gbit))


@dataclass(frozen=True)
class ProvisioningChoice:
    """Cheapest configuration satisfying a target line rate."""

    target_gbit: float
    report: ThroughputReport
    channels: int

    @property
    def total_peak_gbit(self) -> float:
        """Raw bandwidth bought to reach the target (the oversizing)."""
        return self.report.peak_bandwidth_gbit * self.channels

    @property
    def oversizing_factor(self) -> float:
        """Bought peak bandwidth / minimum theoretically needed.

        The ideal device would need ``2 x target`` peak (write + read);
        values above that quantify the bandwidth tax of the mapping.
        """
        return self.total_peak_gbit / (2 * self.target_gbit)


def provision(
    reports: Sequence[ThroughputReport],
    target_gbit: float,
    max_channels: Optional[int] = None,
) -> List[ProvisioningChoice]:
    """Rank configurations by raw bandwidth needed for a target rate.

    Args:
        reports: one report per candidate configuration.
        target_gbit: required interleaver line rate.
        max_channels: optional cap on channel count per configuration.

    Returns:
        Feasible choices sorted by total peak bandwidth bought
        (ascending, i.e. cheapest first).  Reports that sustain no
        throughput are skipped.

    Raises:
        ValueError: on a non-positive target, from
            :func:`required_channels` at the first report that sustains
            throughput.
    """
    choices = []
    for report in reports:
        if report.sustained_gbit <= 0:
            continue
        channels = required_channels(report, target_gbit)
        if max_channels is not None and channels > max_channels:
            continue
        choices.append(ProvisioningChoice(target_gbit=target_gbit, report=report,
                                          channels=channels))
    # Equal raw-bandwidth cost: prefer the choice with more headroom.
    return sorted(
        choices,
        key=lambda c: (c.total_peak_gbit, c.channels, -c.report.sustained_gbit),
    )


@dataclass(frozen=True)
class EnergyProvisioningPoint:
    """One (channels, grade, mapping) point of the bandwidth/energy space.

    Attributes:
        report: the single-channel throughput report this point scales.
        channels: parallel channels provisioned.
        pj_per_bit: frame energy per payload bit (channel-count
            invariant — every channel moves its own share of payload).
        channel_power_mw: average power of one channel over the frame.
        on_frontier: whether the point is Pareto-optimal — no other
            point in the same report delivers at least its bandwidth
            for less power.
    """

    report: ThroughputReport
    channels: int
    pj_per_bit: float
    channel_power_mw: float
    on_frontier: bool = False

    @property
    def sustained_gbit(self) -> float:
        """Total sustained line rate of the provisioned channels."""
        return self.report.sustained_gbit * self.channels

    @property
    def power_mw(self) -> float:
        """Total average power of the provisioned channels."""
        return self.channel_power_mw * self.channels

    @property
    def total_peak_gbit(self) -> float:
        """Raw bandwidth bought (the oversizing, as in provision())."""
        return self.report.peak_bandwidth_gbit * self.channels


def energy_pareto(
    cells: Sequence[Tuple[ThroughputReport, EnergyReport]],
    max_channels: int = 4,
) -> List[EnergyProvisioningPoint]:
    """Bandwidth-vs-energy Pareto over the provisioning space.

    Spans channels x grade x mapping: every ``(report, energy)`` cell
    — one :class:`ThroughputReport` paired with the frame
    :class:`~repro.dram.energy.EnergyReport` of the same simulation —
    is replicated at 1..``max_channels`` parallel channels (bandwidth
    and power scale linearly; pJ/bit is invariant).  Points that no
    alternative dominates (at least the same sustained bandwidth for
    strictly less power) are flagged ``on_frontier`` — the
    configurations a designer should actually consider; everything
    else is the energy tax of over-provisioning the wrong grade or
    mapping.

    Args:
        cells: ``(report, energy)`` pairs, one per simulated
            (configuration, mapping) cell.
        max_channels: channel counts spanned per cell (>= 1).

    Returns:
        All provisioning points, sorted ascending by sustained
        bandwidth, then power, then configuration and mapping name,
        with the Pareto-optimal ones flagged ``on_frontier``.

    Raises:
        ValueError: when ``max_channels`` is not positive.
    """
    if max_channels < 1:
        raise ValueError(f"max_channels must be >= 1, got {max_channels}")
    raw = []
    for report, energy in cells:
        if report.sustained_gbit <= 0:
            continue
        for channels in range(1, max_channels + 1):
            raw.append((report, channels, energy.pj_per_bit,
                        energy.avg_power_mw))
    # Frontier sweep: descending bandwidth, ascending power — a point
    # is optimal iff its power undercuts every point with >= bandwidth.
    order = sorted(
        range(len(raw)),
        key=lambda i: (-raw[i][0].sustained_gbit * raw[i][1],
                       raw[i][3] * raw[i][1]),
    )
    best_power = math.inf
    frontier = set()
    for i in order:
        power = raw[i][3] * raw[i][1]
        if power < best_power:
            best_power = power
            frontier.add(i)
    points = [
        EnergyProvisioningPoint(report=report, channels=channels,
                                pj_per_bit=pj, channel_power_mw=power,
                                on_frontier=i in frontier)
        for i, (report, channels, pj, power) in enumerate(raw)
    ]
    return sorted(points, key=lambda p: (p.sustained_gbit, p.power_mw,
                                         p.report.config_name,
                                         p.report.mapping_name))


#: Column order of the provisioning CSV export (one row per choice).
PROVISION_CSV_FIELDS = (
    "rank", "config_name", "mapping_name", "channels", "sustained_gbit",
    "total_peak_gbit", "oversizing_factor",
)


def provision_csv_rows(
    choices: Sequence[ProvisioningChoice],
) -> List[Dict[str, Any]]:
    """Flatten ranked provisioning choices into CSV rows.

    One :data:`PROVISION_CSV_FIELDS` row per choice, ranked 1..N in the
    given (cheapest-first) order — the machine-readable face of the
    ``repro provision`` table, exported through the store-level CSV
    writer.

    Args:
        choices: ranked output of :func:`provision`.
    """
    rows = []
    for rank, choice in enumerate(choices, start=1):
        rows.append({
            "rank": rank,
            "config_name": choice.report.config_name,
            "mapping_name": choice.report.mapping_name,
            "channels": choice.channels,
            "sustained_gbit": choice.report.sustained_gbit * choice.channels,
            "total_peak_gbit": choice.total_peak_gbit,
            "oversizing_factor": choice.oversizing_factor,
        })
    return rows


#: Column order of the Pareto CSV export (one row per point).
PARETO_CSV_FIELDS = (
    "config_name", "mapping_name", "channels", "sustained_gbit",
    "total_peak_gbit", "pj_per_bit", "channel_power_mw", "power_mw",
    "on_frontier",
)


def pareto_csv_rows(
    points: Sequence[EnergyProvisioningPoint],
) -> List[Dict[str, Any]]:
    """Flatten energy-Pareto points into CSV rows.

    One :data:`PARETO_CSV_FIELDS` row per point in the given order —
    the machine-readable face of the ``repro energy`` Pareto chart
    (``on_frontier`` is exported as ``0``/``1``).

    Args:
        points: output of :func:`energy_pareto`.
    """
    rows = []
    for point in points:
        rows.append({
            "config_name": point.report.config_name,
            "mapping_name": point.report.mapping_name,
            "channels": point.channels,
            "sustained_gbit": point.sustained_gbit,
            "total_peak_gbit": point.total_peak_gbit,
            "pj_per_bit": point.pj_per_bit,
            "channel_power_mw": point.channel_power_mw,
            "power_mw": point.power_mw,
            "on_frontier": int(point.on_frontier),
        })
    return rows
