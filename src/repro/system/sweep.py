"""Parameter-sweep harness used by the benchmarks.

Runs (configuration x mapping) grids, interleaver-size sweeps and the
ablation sweep, and formats results as the paper's Table I.  Everything
returns plain data structures so benchmarks and tests can assert on
them directly.

Sweeps decompose into independent ``(config, mapping, phase)`` work
items executed by :mod:`repro.system.parallel` — pass ``jobs`` to fan
a grid out over worker processes (``0`` = every usable CPU); the
default stays serial and produces identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams, coherence_params
from repro.dram.controller import (
    OP_READ,
    OP_WRITE,
    POLICY_NAMES,
    ControllerConfig,
)
from repro.dram.energy import (
    EnergyReport,
    combine_interleaver_reports,
    energy_from_stats,
)
from repro.dram.mixed import read_frame_mapping
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.dram.simulator import InterleaverSimResult
from repro.dram.stats import PhaseStats
from repro.interleaver.triangular import TriangularIndexSpace
from repro.interleaver.two_stage import TwoStageConfig
from repro.mapping.base import InterleaverMapping
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping
from repro.system.downlink import format_gain
from repro.system.e2e import E2ECell, E2EResult
from repro.system.parallel import MixedTask, PhaseTask, _task_mapping, run_tasks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store -> sweep deps)
    from repro.store.store import ResultStore

#: Mapping factory signature: (space, geometry) -> mapping.
MappingFactory = Callable[[TriangularIndexSpace, object], InterleaverMapping]


def default_mappings() -> Dict[str, MappingFactory]:
    """The two mappings of Table I."""
    return {
        "row-major": lambda space, geometry: RowMajorMapping(space, geometry),
        "optimized": lambda space, geometry: OptimizedMapping(
            space, geometry, prefer_tall=False
        ),
    }


def ablation_factories() -> Dict[str, MappingFactory]:
    """Optimized-mapping variants with each optimization toggled off."""
    def make(**kwargs: bool) -> MappingFactory:
        return lambda space, geometry: OptimizedMapping(
            space, geometry, prefer_tall=False, **kwargs
        )

    return {
        "full": make(),
        "no-bank-rotation": make(enable_bank_rotation=False),
        "no-tiling": make(enable_tiling=False),
        "no-offset": make(enable_offset=False),
        "tiling-only": make(enable_bank_rotation=False, enable_offset=False),
        "rotation-only": make(enable_tiling=False, enable_offset=False),
    }


def mapping_registry() -> Dict[str, MappingFactory]:
    """All named mapping factories known to the sweep/parallel engine.

    Worker processes resolve :class:`~repro.system.parallel.PhaseTask`
    mapping keys through this registry, so everything listed here can be
    dispatched by name across process boundaries.
    """
    registry = dict(default_mappings())
    registry.update(ablation_factories())
    return registry


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table I.

    Attributes:
        config_name: DRAM configuration.
        row_major: simulation result under the row-major mapping.
        optimized: simulation result under the optimized mapping.
    """

    config_name: str
    row_major: InterleaverSimResult
    optimized: InterleaverSimResult

    def cells(self) -> Tuple[float, float, float, float]:
        """(rm write, rm read, opt write, opt read) utilizations."""
        return (
            self.row_major.write_utilization,
            self.row_major.read_utilization,
            self.optimized.write_utilization,
            self.optimized.read_utilization,
        )


def cell_mapping(config_name: str, mapping_name: str, n: int,
                 double_buffered: bool = False) -> InterleaverMapping:
    """One ``(configuration, mapping key, n)`` cell's mapping.

    ``double_buffered`` also builds the cell's read frame, which mixed
    traffic places above the write frame
    (:func:`~repro.dram.mixed.read_frame_mapping`).

    Raises:
        KeyError: on an unknown configuration or mapping key.
        ValueError: naming configuration, mapping and ``n``, when the
            cell does not fit its device.
    """
    try:
        _, mapping = _task_mapping(mapping_name, config_name, n)
        if double_buffered:
            read_frame_mapping(mapping)
    except ValueError as error:
        raise ValueError(f"{config_name}, {mapping_name} mapping, n={n}: "
                         f"{error}") from None
    return mapping


def check_cells(cells: Iterable[Tuple[str, str, int]],
                double_buffered: bool = False) -> None:
    """Build every distinct ``(configuration, mapping key, n)`` cell once.

    Sweeps call this before their first task, so a device too small for
    any cell stops the sweep before any work.  Cells are checked in
    grid order, so the first one that fails is the one reported.

    Raises:
        KeyError: on an unknown configuration or mapping key.
        ValueError: as :func:`cell_mapping`.
    """
    for config_name, mapping_name, n in dict.fromkeys(cells):
        cell_mapping(config_name, mapping_name, n, double_buffered)


#: One cell of a phase grid: configuration, mapping key, ``n`` and
#: controller policy.
PhaseCell = Tuple[str, str, int, Optional[ControllerConfig]]


def run_phase_grid(
    cells: Sequence[PhaseCell],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[Tuple[PhaseStats, PhaseStats]]:
    """Both phases of every cell, checked before the first one runs.

    The one runner of the phase grids (``table1``, ``energy``,
    ``policy``, the size and ablation sweeps): :func:`check_cells`
    first, then one write and one read
    :class:`~repro.system.parallel.PhaseTask` per cell.

    Returns:
        One ``(write, read)`` pair of phase statistics per cell, in
        grid order.

    Raises:
        KeyError: on an unknown configuration or mapping key.
        ValueError: naming configuration, mapping and ``n``, when a
            cell's mapping does not fit its device.
    """
    check_cells(cell[:3] for cell in cells)
    tasks = [
        PhaseTask(config_name=config_name, mapping=mapping, op=op, n=n,
                  policy=policy)
        for config_name, mapping, n, policy in cells
        for op in (OP_WRITE, OP_READ)
    ]
    stats = run_tasks(tasks, jobs=jobs, store=store)
    return list(zip(stats[::2], stats[1::2]))


def run_table1(
    n: int = 512,
    config_names: Sequence[str] = TABLE1_CONFIG_NAMES,
    policy: Optional[ControllerConfig] = None,
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[Table1Row]:
    """Regenerate Table I at triangle size ``n``.

    The paper uses 12.5 M elements (``n = 5000``); the default ``n=512``
    (~131 k elements) keeps the run fast while the utilizations are
    already within a few percent of the large-size values (see
    ``benchmarks/bench_interleaver_size.py``).

    Args:
        n: triangular interleaver dimension.
        config_names: subset of Table I configurations to run.
        policy: controller policy overrides applied to every cell.
        jobs: worker processes for the grid (``None``/``1`` serial,
            ``0`` = every usable CPU).
        store: optional shared result store — cells persisted by any
            prior sweep (including ``energy``) are reused, the rest
            are written back for later runs.

    Raises:
        KeyError: before any phase runs, on an unknown configuration.
        ValueError: before any phase runs, when a cell's mapping does
            not fit its device.
    """
    results = _frame_results(n, config_names, policy, jobs, store)
    return [
        Table1Row(config_name=row_major.config_name, row_major=row_major,
                  optimized=optimized)
        for row_major, optimized in zip(results[::2], results[1::2])
    ]


def _frame_results(
    n: int,
    config_names: Sequence[str],
    policy: Optional[ControllerConfig],
    jobs: Optional[int],
    store: Optional["ResultStore"],
) -> List[InterleaverSimResult]:
    """Both phases of every (configuration, Table I mapping) cell.

    One write and one read :class:`~repro.system.parallel.PhaseTask`
    per cell, so ``table1`` and ``energy`` address the same store
    entries and warm each other in either direction.

    Every cell's mapping is checked before the first phase runs.

    Returns:
        One result per cell: configurations outermost, then
        ``row-major`` before ``optimized``.

    Raises:
        ValueError: naming configuration, mapping and ``n``, when a
            cell's mapping does not fit its device.
    """
    cells = [(config_name, mapping_name, n, policy)
             for config_name in config_names
             for mapping_name in ("row-major", "optimized")]
    return [
        InterleaverSimResult(config_name=config_name,
                             mapping_name=mapping_name, write=write, read=read)
        for (config_name, mapping_name, *_), (write, read)
        in zip(cells, run_phase_grid(cells, jobs, store))
    ]


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render rows in the layout of the paper's Table I.

    The throughput-limiting phase of each mapping is starred.  The
    limiter is picked *by index* (write unless the read utilization is
    strictly lower), never by comparing floats for equality — value
    comparison used to star both phases on exact ties and, after float
    round-trips, sometimes neither.
    """
    lines = [
        "DRAM           Row-Major Mapping     Optimized Mapping",
        "Configuration  Write      Read       Write      Read",
    ]
    for row in rows:
        cells = row.cells()

        def mark(index: int, limit_index: int) -> str:
            tag = "*" if index == limit_index else " "
            return f"{cells[index]:8.2%}{tag}"

        rm_limit = 0 if cells[0] <= cells[1] else 1
        opt_limit = 2 if cells[2] <= cells[3] else 3
        lines.append(
            f"{row.config_name:14s} {mark(0, rm_limit)} {mark(1, rm_limit)} "
            f"{mark(2, opt_limit)} {mark(3, opt_limit)}"
        )
    lines.append("(* = phase that limits interleaver throughput)")
    return "\n".join(lines)


@dataclass(frozen=True)
class MixedRow:
    """One steady-state mixed-traffic cell (config x mapping).

    Attributes:
        config_name: DRAM configuration.
        mapping_name: address mapping used for both frames.
        utilization: data-bus utilization of the interleaved stream.
        reads: read bursts issued (one frame's worth).
        writes: write bursts issued.
        turnarounds: data-bus direction switches that occurred.
    """

    config_name: str
    mapping_name: str
    utilization: float
    reads: int
    writes: int
    turnarounds: int


def run_mixed_table(
    n: int = 256,
    config_names: Sequence[str] = TABLE1_CONFIG_NAMES,
    group: int = 16,
    policy: Optional[ControllerConfig] = None,
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[MixedRow]:
    """Steady-state interleaved read/write utilization, Table I layout.

    Runs the single-device write(k+1)/read(k) operating mode (the
    engine's turnaround rule set active) for every requested
    configuration under both Table I mappings.  All cells run through
    the unified engine via
    :func:`~repro.dram.mixed.steady_state_interleaver`, so mixed
    rows carry the same ``command_counts``/recording capabilities as
    the homogeneous tables.

    Args:
        n: triangular interleaver dimension.
        config_names: subset of Table I configurations.
        group: same-direction block length of the interleaved stream
            (larger groups amortize the turnaround penalty).
        policy: controller policy overrides applied to every cell.
        jobs: worker processes (``None``/``1`` serial, ``0`` = every
            usable CPU).
        store: optional shared result store (hits skip simulation).

    Raises:
        KeyError: before any cell runs, on an unknown configuration.
        ValueError: before any cell runs, when a cell's frame or its
            double-buffered read frame does not fit its device, or on a
            ``group`` below 1.
    """
    cells = [(config_name, mapping_name, n)
             for config_name in config_names
             for mapping_name in ("row-major", "optimized")]
    check_cells(cells, double_buffered=True)
    tasks = [
        MixedTask(config_name=config_name, mapping=mapping_name, n=n,
                  group=group, policy=policy)
        for config_name, mapping_name, _ in cells
    ]
    results = run_tasks(tasks, jobs=jobs, store=store)
    return [
        MixedRow(
            config_name=task.config_name,
            mapping_name=task.mapping,
            utilization=result.utilization,
            reads=result.reads,
            writes=result.writes,
            turnarounds=result.turnarounds,
        )
        for task, result in zip(tasks, results)
    ]


def format_mixed_table(rows: Sequence[MixedRow]) -> str:
    """Render mixed-traffic rows next to each other per configuration."""
    lines = [
        f"{'DRAM':14s} {'mapping':10s} {'mixed util':>10s} {'turnarounds':>12s}",
    ]
    for row in rows:
        lines.append(
            f"{row.config_name:14s} {row.mapping_name:10s} "
            f"{row.utilization:10.2%} {row.turnarounds:12d}"
        )
    lines.append("(single device, interleaved write/read with turnaround penalties)")
    return "\n".join(lines)


@dataclass(frozen=True)
class EnergyRow:
    """Energy accounting of one (configuration, mapping) Table I cell.

    Attributes:
        config_name: DRAM configuration.
        mapping_name: address mapping used for both phases.
        result: the underlying simulation result (utilizations — what
            the provisioning Pareto report pairs with the energy).
        write_energy: write-phase energy breakdown.
        read_energy: read-phase energy breakdown.
        combined: whole-frame breakdown (payload counted once,
            makespans added).
    """

    config_name: str
    mapping_name: str
    result: InterleaverSimResult
    write_energy: EnergyReport
    read_energy: EnergyReport
    combined: EnergyReport

    @property
    def pj_per_bit(self) -> float:
        """Frame energy per payload bit — the table's figure of merit."""
        return self.combined.pj_per_bit

    @property
    def avg_power_mw(self) -> float:
        """Average power over the whole frame (write + read makespans)."""
        return self.combined.avg_power_mw


def run_energy_table(
    n: int = 256,
    config_names: Sequence[str] = TABLE1_CONFIG_NAMES,
    policy: Optional[ControllerConfig] = None,
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[EnergyRow]:
    """Energy per interleaver frame, both mappings x every configuration.

    The energy analogue of :func:`run_table1`: each (configuration,
    mapping) cell runs both phases through the scheduling engine, whose
    zero-cost :class:`~repro.dram.stats.EnergyTally` counters feed
    :func:`~repro.dram.energy.energy_from_stats`.  The phases are the
    same :class:`~repro.system.parallel.PhaseTask` grid
    :func:`run_table1` runs; results are bit-identical for any ``jobs``
    value.

    Args:
        n: triangular interleaver dimension.
        config_names: subset of Table I configurations.
        policy: controller policy overrides applied to every cell.
        jobs: worker processes (``None``/``1`` serial, ``0`` = every
            usable CPU).
        store: optional shared result store — each cell is keyed as its
            two *phase* records, so an ``energy`` run reuses the exact
            entries a prior ``table1`` run at the same ``n`` persisted
            (and vice versa) with zero redundant engine invocations.

    Raises:
        KeyError: before any phase runs, on an unknown configuration.
        ValueError: before any phase runs, when a cell's mapping does
            not fit its device.
    """
    rows = []
    for result in _frame_results(n, config_names, policy, jobs, store):
        config = get_config(result.config_name)
        write_energy = energy_from_stats(config, result.write)
        read_energy = energy_from_stats(config, result.read)
        rows.append(
            EnergyRow(
                config_name=result.config_name,
                mapping_name=result.mapping_name,
                result=result,
                write_energy=write_energy,
                read_energy=read_energy,
                combined=combine_interleaver_reports(write_energy, read_energy),
            )
        )
    return rows


def format_energy_table(rows: Sequence[EnergyRow]) -> str:
    """Render energy rows as a per-frame breakdown table.

    One line per (configuration, mapping) cell: the four energy
    components in microjoules, the frame total, the energy per payload
    bit (each byte written once and read once counts as one bit of
    payload) and the average power over the frame.
    """
    lines = [
        f"{'DRAM':14s} {'mapping':10s} {'E_act uJ':>9s} {'E_burst uJ':>10s} "
        f"{'E_ref uJ':>9s} {'E_bg uJ':>9s} {'total uJ':>9s} "
        f"{'pJ/bit':>7s} {'avg mW':>8s}",
    ]
    for row in rows:
        combined = row.combined
        lines.append(
            f"{row.config_name:14s} {row.mapping_name:10s} "
            f"{combined.activation_nj / 1000.0:9.3f} "
            f"{combined.burst_nj / 1000.0:10.3f} "
            f"{combined.refresh_nj / 1000.0:9.3f} "
            f"{combined.background_nj / 1000.0:9.3f} "
            f"{combined.total_nj / 1000.0:9.3f} "
            f"{row.pj_per_bit:7.2f} {row.avg_power_mw:8.1f}"
        )
    lines.append("(per interleaver frame: write + read phase, payload counted once)")
    return "\n".join(lines)


#: Default Gilbert-Elliott channel of the e2e table: 60-symbol mean
#: fades covering 0.4 % of the stream, 70 % symbol error rate inside a
#: fade — the midpoint of the campaign CLI's default grid.
DEFAULT_E2E_CHANNEL = coherence_params(60.0, 0.004, p_bad=0.7)


@dataclass(frozen=True)
class E2ERow:
    """One joint co-simulation cell of the e2e table (config x mapping).

    Attributes:
        config_name: DRAM configuration.
        mapping_name: address mapping used for both phases.
        result: the full joint outcome (channel failure rates, DRAM
            phase statistics, per-frame latencies, energy).
    """

    config_name: str
    mapping_name: str
    result: E2EResult


def e2e_grid(
    n: int = 32,
    config_names: Sequence[str] = TABLE1_CONFIG_NAMES,
    frames: int = 40,
    channel: Optional[GilbertElliottParams] = None,
    symbols_per_element: int = 4,
    codeword_symbols: int = 24,
    t_correctable: int = 2,
    seed: int = 2024,
    policy: Optional[ControllerConfig] = None,
) -> List[E2ECell]:
    """Build the (config x mapping) cell grid of the e2e table.

    Every cell shares the channel, interleaver geometry, code and seed,
    so the table isolates the DRAM axis: the channel outcome is common
    while utilization, latency percentiles and energy vary per
    (configuration, mapping).

    Args:
        n: triangular interleaver dimension (the frame must hold whole
            code-word groups: ``n (n+1)/2`` divisible by
            ``codeword_symbols``; 15, 32 and 48 all qualify at the
            defaults).
        config_names: subset of Table I configurations.
        frames: frames co-simulated per cell.
        channel: Gilbert-Elliott parameters
            (default :data:`DEFAULT_E2E_CHANNEL`).
        symbols_per_element: symbols packed into one DRAM burst element.
        codeword_symbols: symbols per code word.
        t_correctable: decoder correction radius.
        seed: channel RNG seed shared by every cell.
        policy: controller policy overrides applied to every cell.

    Raises:
        ValueError: when the interleaver/code dimensions are
            inconsistent (e.g. the frame does not hold whole SRAM
            groups).
    """
    interleaver = TwoStageConfig(triangle_n=n,
                                 symbols_per_element=symbols_per_element,
                                 codeword_symbols=codeword_symbols)
    code = CodewordConfig(n_symbols=codeword_symbols,
                          t_correctable=t_correctable)
    return [
        E2ECell(
            channel=channel or DEFAULT_E2E_CHANNEL,
            interleaver=interleaver,
            code=code,
            config_name=config_name,
            mapping=mapping_name,
            seed=seed,
            frames=frames,
            policy=policy,
        )
        for config_name in config_names
        for mapping_name in ("row-major", "optimized")
    ]


def run_e2e_table(
    n: int = 32,
    config_names: Sequence[str] = TABLE1_CONFIG_NAMES,
    frames: int = 40,
    channel: Optional[GilbertElliottParams] = None,
    symbols_per_element: int = 4,
    codeword_symbols: int = 24,
    t_correctable: int = 2,
    seed: int = 2024,
    policy: Optional[ControllerConfig] = None,
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[E2ERow]:
    """The joint downlink -> DRAM co-simulation table.

    The end-to-end analogue of :func:`run_table1`: each cell runs one
    channel-corrupted interleaved frame stream *and* both DRAM phase
    traversals of those frames through
    :func:`~repro.system.e2e.run_e2e`, so one run yields channel
    code-word failure rates, DRAM utilization, per-frame latency
    percentiles and frame energy for every (configuration, mapping)
    cell.  Cells fan out over
    :func:`~repro.system.parallel.run_tasks`; results are
    bit-identical for any ``jobs`` value.

    Args:
        n: triangular interleaver dimension (see :func:`e2e_grid`).
        config_names: subset of Table I configurations.
        frames: frames co-simulated per cell.
        channel: Gilbert-Elliott parameters
            (default :data:`DEFAULT_E2E_CHANNEL`).
        symbols_per_element: symbols packed into one DRAM burst element.
        codeword_symbols: symbols per code word.
        t_correctable: decoder correction radius.
        seed: channel RNG seed shared by every cell.
        policy: controller policy overrides applied to every cell.
        jobs: worker processes (``None``/``1`` serial, ``0`` = every
            usable CPU).
        store: optional shared result store (hits skip co-simulation).

    Returns:
        One :class:`E2ERow` per (configuration, mapping) cell, in grid
        order.

    Raises:
        KeyError: before any cell runs, on an unknown configuration.
        ValueError: on inconsistent interleaver/code dimensions or
            ``frames`` below 1, or before any cell runs, when a cell's
            mapping does not fit its device.
    """
    cells = e2e_grid(n=n, config_names=config_names, frames=frames,
                     channel=channel,
                     symbols_per_element=symbols_per_element,
                     codeword_symbols=codeword_symbols,
                     t_correctable=t_correctable, seed=seed, policy=policy)
    check_cells((cell.config_name, cell.mapping, n) for cell in cells)
    results = run_tasks(cells, jobs=jobs, store=store)
    return [
        E2ERow(config_name=cell.config_name, mapping_name=cell.mapping,
               result=result)
        for cell, result in zip(cells, results)
    ]


def format_e2e_table(rows: Sequence[E2ERow]) -> str:
    """Render e2e rows as the joint co-simulation text table.

    One line per (configuration, mapping) cell: the interleaved
    code-word failure rate and pooled gain from the channel side, the
    write/read data-bus utilizations, the p50/p99 per-frame write and
    read service times in microseconds (nearest-rank percentiles, see
    :func:`~repro.system.e2e.latency_percentile_ps`) and the frame
    energy per payload bit.
    """
    lines = [
        f"{'DRAM':14s} {'mapping':10s} {'CWER intl':>10s} {'gain':>7s} "
        f"{'wr util':>8s} {'rd util':>8s} "
        f"{'wr p50us':>9s} {'wr p99us':>9s} {'rd p50us':>9s} {'rd p99us':>9s} "
        f"{'pJ/bit':>7s}",
    ]
    for row in rows:
        result = row.result
        lines.append(
            f"{row.config_name:14s} {row.mapping_name:10s} "
            f"{result.cwer_interleaved:10.2e} {format_gain(result.gain):>7s} "
            f"{result.write_utilization:8.2%} {result.read_utilization:8.2%} "
            f"{result.write_latency_percentile(50) / 1e6:9.3f} "
            f"{result.write_latency_percentile(99) / 1e6:9.3f} "
            f"{result.read_latency_percentile(50) / 1e6:9.3f} "
            f"{result.read_latency_percentile(99) / 1e6:9.3f} "
            f"{result.energy.pj_per_bit:7.2f}"
        )
    lines.append("(one joint run per cell: channel FER + DRAM phase "
                 "utilization/latency/energy)")
    return "\n".join(lines)


@dataclass(frozen=True)
class PolicyRow:
    """One (configuration, discipline) cell of the policy-axis table.

    Attributes:
        config_name: DRAM configuration.
        discipline: scheduling discipline the cell ran under (one of
            :data:`~repro.dram.policy.POLICY_NAMES`).
        write_utilization: write-phase data-bus utilization.
        read_utilization: read-phase data-bus utilization.
    """

    config_name: str
    discipline: str
    write_utilization: float
    read_utilization: float

    @property
    def min_utilization(self) -> float:
        """The throughput-limiting utilization of the cell."""
        return min(self.write_utilization, self.read_utilization)


def run_policy_table(
    n: int = 256,
    config_names: Sequence[str] = TABLE1_CONFIG_NAMES,
    disciplines: Sequence[str] = POLICY_NAMES,
    mapping: str = "optimized",
    policy: Optional[ControllerConfig] = None,
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[PolicyRow]:
    """The scheduling-policy axis of Table I.

    Runs every requested configuration under every requested
    discipline (same mapping, both phases) so the disciplines'
    throughput cost is directly comparable per device: open-page is the
    paper's operating point, closed-page bounds the row-locality
    benefit the interleaver mappings were designed to create, and
    FR-FCFS-cap / bank partitioning sit between.

    Args:
        n: triangular interleaver dimension.
        config_names: subset of Table I configurations.
        disciplines: subset of
            :data:`~repro.dram.policy.POLICY_NAMES` (default: all
            four).
        mapping: the Table I mapping every cell uses (the policy axis
            varies the scheduler, not the layout).
        policy: base controller policy the per-cell discipline is
            grafted onto (``None`` = defaults; its ``cap`` applies to
            the FR-FCFS-cap cells).
        jobs: worker processes (``None``/``1`` serial, ``0`` = every
            usable CPU).
        store: optional shared result store — the open-page cells key
            identically to plain Table I phases at the same ``n``, so a
            prior ``table1`` run pre-warms this sweep's default column.

    Raises:
        KeyError: before any cell runs, on an unknown configuration.
        ValueError: on an unknown discipline name (via
            :class:`~repro.dram.controller.ControllerConfig`), or before
            any cell runs, when a configuration's mapping does not fit
            its device.
    """
    base = policy or ControllerConfig()
    cells = [(config_name, mapping, n, replace(base, discipline=discipline))
             for config_name in config_names
             for discipline in disciplines]
    return [
        PolicyRow(config_name=config_name, discipline=cell_policy.discipline,
                  write_utilization=write.utilization,
                  read_utilization=read.utilization)
        for (config_name, *_, cell_policy), (write, read)
        in zip(cells, run_phase_grid(cells, jobs, store))
    ]


def format_policy_table(rows: Sequence[PolicyRow]) -> str:
    """Render policy rows grouped per configuration.

    One line per (configuration, discipline) cell: both phase
    utilizations and the throughput-limiting minimum — the figure the
    disciplines are compared on.
    """
    lines = [
        f"{'DRAM':14s} {'discipline':14s} {'write':>8s} {'read':>8s} "
        f"{'limit':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row.config_name:14s} {row.discipline:14s} "
            f"{row.write_utilization:8.2%} {row.read_utilization:8.2%} "
            f"{row.min_utilization:8.2%}"
        )
    lines.append("(limit = min(write, read), the interleaver-throughput bound)")
    return "\n".join(lines)


@dataclass(frozen=True)
class SizeSweepPoint:
    """One (size, mapping) sample of the size sweep."""

    n: int
    elements: int
    mapping_name: str
    write_utilization: float
    read_utilization: float

    @property
    def min_utilization(self) -> float:
        """The throughput-limiting utilization of the sample."""
        return min(self.write_utilization, self.read_utilization)


def sweep_sizes(
    config_name: str,
    sizes: Sequence[int],
    policy: Optional[ControllerConfig] = None,
    jobs: Optional[int] = None,
) -> List[SizeSweepPoint]:
    """Utilization vs. interleaver dimension (paper: "differ only slightly").

    The (size x Table I mapping) grid runs as phase tasks, fanned out
    over worker processes with ``jobs``.

    Args:
        config_name: DRAM configuration to sweep on.
        sizes: triangular interleaver dimensions to sample.
        policy: controller policy overrides applied to every sample.
        jobs: worker processes (``None``/``1`` serial, ``0`` = every
            usable CPU).

    Returns:
        One point per (size, mapping) sample, sizes outermost.

    Raises:
        KeyError: before any phase runs, on an unknown configuration.
        ValueError: before any phase runs, when a mapping does not fit
            the device at one of the sizes.
    """
    samples = [(n, mapping_name)
               for n in sizes for mapping_name in default_mappings()]
    stats = run_phase_grid([(config_name, mapping_name, n, policy)
                            for n, mapping_name in samples], jobs)
    return [
        SizeSweepPoint(n=n, elements=TriangularIndexSpace(n).num_elements,
                       mapping_name=mapping_name,
                       write_utilization=write.utilization,
                       read_utilization=read.utilization)
        for (n, mapping_name), (write, read) in zip(samples, stats)
    ]


@dataclass(frozen=True)
class AblationPoint:
    """One (configuration, variant) sample of the ablation sweep."""

    config_name: str
    variant: str
    write_utilization: float
    read_utilization: float

    @property
    def min_utilization(self) -> float:
        """The throughput-limiting utilization of the variant."""
        return min(self.write_utilization, self.read_utilization)


#: Ablation sweeps default to shallow, hardware-realistic queues: with
#: deep queues a clever scheduler can partially reconstruct the bank
#: rotation by reordering, masking exactly the effect being measured.
ABLATION_POLICY = ControllerConfig(queue_depth=16, per_bank_depth=16)


def sweep_ablation(
    config_names: Sequence[str] = ("DDR4-3200", "LPDDR4-4266"),
    n: int = 256,
    variants: Optional[Sequence[str]] = None,
    policy: Optional[ControllerConfig] = None,
    jobs: Optional[int] = None,
) -> List[AblationPoint]:
    """Quantify each optimization's contribution (paper Sec. II).

    Args:
        config_names: configurations to ablate on (default: the two most
            mapping-sensitive ones).
        n: triangular interleaver dimension.
        variants: subset of :func:`ablation_factories` keys (default:
            all six).
        policy: controller policy; ``None`` selects the shallow-queue
            :data:`ABLATION_POLICY` (deep queues would mask the very
            effects the ablation measures — pass an explicit
            ``ControllerConfig()`` to get them anyway).
        jobs: worker processes (``None``/``1`` serial, ``0`` = every
            usable CPU).

    Raises:
        KeyError: on an unknown variant, or before any cell runs, on an
            unknown configuration.
        ValueError: before any cell runs, when a variant does not fit a
            configuration's device.
    """
    known = ablation_factories()
    variant_names = list(variants) if variants is not None else list(known)
    unknown = [v for v in variant_names if v not in known]
    if unknown:
        raise KeyError(f"unknown ablation variants {unknown}; known: {sorted(known)}")
    cells = [(config_name, variant, n, policy or ABLATION_POLICY)
             for config_name in config_names
             for variant in variant_names]
    return [
        AblationPoint(config_name=config_name, variant=variant,
                      write_utilization=write.utilization,
                      read_utilization=read.utilization)
        for (config_name, variant, *_), (write, read)
        in zip(cells, run_phase_grid(cells, jobs))
    ]
