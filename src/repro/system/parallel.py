"""Process-pool execution engine for simulation sweeps.

A sweep (Table I, size sweeps, ablations) decomposes into independent
``(configuration, mapping, phase)`` work items — each one a full
controller simulation that holds the GIL for seconds.  This module
fans those items out over a :class:`concurrent.futures.ProcessPoolExecutor`
and reassembles the results in submission order, with a serial fallback
when multiprocessing is unavailable (restricted environments) or not
worth the fork cost (``jobs=1``, single-item sweeps).

Work items are declarative (:class:`PhaseTask` names a preset config
and a registry mapping key rather than holding live objects), so they
pickle cheaply and each worker rebuilds its own space/mapping — no
shared state, deterministic results, identical to the serial path.

Every phase schedules through the controller's default arbiter, the
batch-advance kernel (:mod:`repro.dram.kernel`), which falls back to
the general engine by itself where it has no compiled path; which one
ran is an execution detail and never part of a store key.
:func:`share_phase_chunks` swaps a task's rebuild-in-worker address
generation for a pre-materialized zero-copy
:class:`~repro.system.shm.SharedChunks` payload, bit-identical for any
``jobs`` value.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Tuple

from repro.dram.controller import (
    OP_READ,
    OP_WRITE,
    ControllerConfig,
    MemoryController,
)
from repro.dram.mixed import MixedResult
from repro.dram.presets import DramConfig, get_config
from repro.dram.simulator import (
    InterleaverSimResult,
    simulate_interleaver,
    simulate_mixed_interleaver,
    simulate_phase,
)
from repro.dram.stats import PhaseStats
from repro.interleaver.triangular import TriangularIndexSpace
from repro.system.e2e import E2ECell, E2EResult, run_e2e
from repro.system.shm import SharedChunks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store -> parallel,
    # and campaign -> parallel, which rules out importing adaptive —
    # a campaign client — at module level; the execute functions below
    # import it lazily instead.
    from repro.mapping.base import InterleaverMapping
    from repro.store.store import ResultStore
    from repro.system.adaptive import (
        AdaptiveCell,
        AdaptiveResult,
        RareEventCell,
        RareEventResult,
        ScenarioCell,
        ScenarioResult,
    )


@dataclass(frozen=True)
class PhaseTask:
    """One independent simulation work item.

    Attributes:
        config_name: preset DRAM configuration name (see
            :mod:`repro.dram.presets`).
        mapping: mapping registry key (see
            :func:`repro.system.sweep.mapping_registry`), e.g.
            ``"row-major"``, ``"optimized"``, ``"no-tiling"``.
        op: :data:`~repro.dram.controller.OP_WRITE` or
            :data:`~repro.dram.controller.OP_READ`.
        n: triangular interleaver dimension.
        policy: optional controller policy overrides (picklable).
        use_arrays: forwarded to :func:`~repro.dram.simulator.simulate_phase`
            (``None`` = auto-select the vectorized path).
        chunks: optional pre-materialized address payload (see
            :func:`share_phase_chunks`); excluded from equality — the
            declarative fields alone identify the cell.
    """

    config_name: str
    mapping: str
    op: str
    n: int
    policy: Optional[ControllerConfig] = None
    use_arrays: Optional[bool] = None
    chunks: Optional[SharedChunks] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {self.op!r}")
        if self.n < 1:
            raise ValueError(f"interleaver dimension must be >= 1, got {self.n}")


def _task_mapping(task_mapping: str, config_name: str,
                  n: int) -> "Tuple[DramConfig, InterleaverMapping]":
    """Resolve a task's (config, mapping) pair through the registry.

    Raises:
        KeyError: if ``config_name`` or ``task_mapping`` is not a known
            registry key.
    """
    # Imported here to avoid a circular import at module load time
    # (sweep builds tasks for this engine).
    from repro.system.sweep import mapping_registry

    registry = mapping_registry()
    try:
        factory = registry[task_mapping]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown mapping {task_mapping!r}; known: {known}") from None
    config = get_config(config_name)
    space = TriangularIndexSpace(n)
    return config, factory(space, config.geometry)


def share_phase_chunks(task: PhaseTask,
                       prefer_shared: bool = True) -> PhaseTask:
    """A copy of ``task`` carrying its address stream as a shared payload.

    Materializes the task's own vectorized address chunks once (in the
    submitting process) into a :class:`~repro.system.shm.SharedChunks`
    segment, so worker processes schedule the exact same requests
    without regenerating the mapping — and without pickling the
    payload, when shared memory is available.  Deriving the payload
    from the task itself is what keeps the chunk-bearing path
    bit-identical to the declarative one by construction.

    The caller owns the segment: call ``task.chunks.unlink()`` (or use
    it as a context manager) after the sweep completes.

    Args:
        task: the declarative work item to annotate.
        prefer_shared: forwarded to :class:`~repro.system.shm.SharedChunks`
            (``False`` forces the inline pickle fallback).
    """
    config, mapping = _task_mapping(task.mapping, task.config_name, task.n)
    stream = (mapping.write_addresses_array() if task.op == OP_WRITE
              else mapping.read_addresses_array())
    return replace(task, chunks=SharedChunks(stream, prefer_shared=prefer_shared))


def execute_phase_task(task: PhaseTask) -> PhaseStats:
    """Run one :class:`PhaseTask` to completion (also the worker entry).

    A chunk-bearing task (see :func:`share_phase_chunks`) feeds its
    shared payload straight into the controller; a declarative one
    rebuilds the mapping and simulates through
    :func:`~repro.dram.simulator.simulate_phase`.  Both paths are
    bit-identical.

    Raises:
        KeyError: if ``task.config_name`` or ``task.mapping`` is not a
            known registry key.
    """
    if task.chunks is not None:
        config = get_config(task.config_name)
        controller = MemoryController(config, task.policy)
        stats = controller.run_phase(task.chunks.chunks(), task.op).stats
        task.chunks.release()  # detach the worker-side view promptly
        return stats
    config, mapping = _task_mapping(task.mapping, task.config_name, task.n)
    return simulate_phase(config, mapping, task.op, task.policy,
                          use_arrays=task.use_arrays)


@dataclass(frozen=True)
class InterleaverTask:
    """One full write+read interleaver simulation work item.

    One worker runs both phases of a (configuration, mapping) cell and
    returns the complete :class:`~repro.dram.simulator
    .InterleaverSimResult` — the unit the energy table and the
    provisioning reports consume (the per-phase
    :class:`~repro.dram.stats.EnergyTally` rides along on each
    ``PhaseStats``, so energy accounting survives the process
    boundary for free).

    Attributes:
        config_name: preset DRAM configuration name.
        mapping: mapping registry key (e.g. ``"row-major"``).
        n: triangular interleaver dimension.
        policy: optional controller policy overrides (picklable).
    """

    config_name: str
    mapping: str
    n: int
    policy: Optional[ControllerConfig] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"interleaver dimension must be >= 1, got {self.n}")


def execute_interleaver_task(task: InterleaverTask) -> InterleaverSimResult:
    """Run one :class:`InterleaverTask` to completion (also the worker entry).

    Raises:
        KeyError: if ``task.config_name`` or ``task.mapping`` is not a
            known registry key.
    """
    config, mapping = _task_mapping(task.mapping, task.config_name, task.n)
    return simulate_interleaver(config, mapping, task.policy)


@dataclass(frozen=True)
class MixedTask:
    """One steady-state mixed-traffic simulation work item.

    Attributes:
        config_name: preset DRAM configuration name.
        mapping: mapping registry key (e.g. ``"row-major"``).
        n: triangular interleaver dimension.
        group: same-direction requests issued back to back before the
            stream switches direction (see
            :func:`repro.dram.mixed.interleaved_stream`).
        policy: optional controller policy overrides (picklable).
    """

    config_name: str
    mapping: str
    n: int
    group: int = 16
    policy: Optional[ControllerConfig] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"interleaver dimension must be >= 1, got {self.n}")
        if self.group < 1:
            raise ValueError(f"group must be >= 1, got {self.group}")


def execute_mixed_task(task: MixedTask) -> MixedResult:
    """Run one :class:`MixedTask` to completion (also the worker entry).

    Raises:
        KeyError: if ``task.config_name`` or ``task.mapping`` is not a
            known registry key.
    """
    config, mapping = _task_mapping(task.mapping, task.config_name, task.n)
    return simulate_mixed_interleaver(config, mapping, group=task.group,
                                      policy=task.policy)


@dataclass(frozen=True)
class E2ETask:
    """One end-to-end downlink -> DRAM co-simulation work item.

    Unlike the other task kinds the work description already *is* a
    declarative frozen dataclass of primitives —
    :class:`~repro.system.e2e.E2ECell` — so the task simply carries it;
    keeping the wrapper gives the co-simulation the same task/worker
    shape (and the same ``--jobs`` bit-identity contract) as every
    other grid in this module.

    Attributes:
        cell: the joint (channel x interleaver x DRAM config x mapping
            x seed) experiment to run.
    """

    cell: E2ECell


def execute_e2e_task(task: E2ETask) -> E2EResult:
    """Run one :class:`E2ETask` to completion (also the worker entry).

    Args:
        task: the work item.

    Returns:
        The joint :class:`~repro.system.e2e.E2EResult` of the cell.

    Raises:
        KeyError: if the cell names an unknown DRAM configuration or
            mapping registry key.
        ValueError: if the cell's channel/interleaver/code dimensions
            are inconsistent or the mapping exceeds the device.
    """
    return run_e2e(task.cell)


@dataclass(frozen=True)
class AdaptiveTask:
    """One adaptive-stopping Monte Carlo work item.

    Like :class:`E2ETask`, the cell itself is already a declarative
    frozen dataclass of primitives; the wrapper gives adaptive cells
    the same task/worker shape — and the same ``--jobs`` bit-identity
    contract — as every other grid in this module.

    Attributes:
        cell: the adaptive experiment to run.
    """

    cell: "AdaptiveCell"


def execute_adaptive_task(task: AdaptiveTask) -> "AdaptiveResult":
    """Run one :class:`AdaptiveTask` to completion (also the worker entry)."""
    from repro.system.adaptive import evaluate_adaptive

    return evaluate_adaptive(task.cell)


@dataclass(frozen=True)
class RareEventTask:
    """One importance-sampled Monte Carlo work item.

    Attributes:
        cell: the rare-event experiment to run.
    """

    cell: "RareEventCell"


def execute_rare_event_task(task: RareEventTask) -> "RareEventResult":
    """Run one :class:`RareEventTask` to completion (also the worker entry)."""
    from repro.system.adaptive import evaluate_rare_event

    return evaluate_rare_event(task.cell)


@dataclass(frozen=True)
class ScenarioTask:
    """One time-varying channel scenario work item.

    Attributes:
        cell: the piecewise-trajectory experiment to run.
    """

    cell: "ScenarioCell"


def execute_scenario_task(task: ScenarioTask) -> "ScenarioResult":
    """Run one :class:`ScenarioTask` to completion (also the worker entry)."""
    from repro.system.adaptive import evaluate_scenario

    return evaluate_scenario(task.cell)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs``-style argument to a worker count.

    ``None`` or ``1`` mean serial; ``0`` and negative values mean "all
    cores" (the make/pytest-xdist convention); anything else is taken
    literally.
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _run_tasks(worker: Callable[[Any], Any], tasks: Iterable[Any],
               jobs: Optional[int]) -> List[Any]:
    """Fan ``tasks`` over a process pool; serial fallback, stable order.

    The process pool is an optimization, never a requirement: if worker
    processes cannot be spawned (sandboxes, exotic start methods) the
    engine silently degrades to the serial path, which produces the
    identical result list.
    """
    task_list = list(tasks)
    workers = min(resolve_jobs(jobs), len(task_list))
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(worker, task_list))
        except (OSError, BrokenProcessPool, PermissionError):
            pass  # fall through to the serial path
    return [worker(task) for task in task_list]


def _run_tasks_stored(
    worker: Callable[[Any], Any],
    tasks: Iterable[Any],
    jobs: Optional[int],
    load: Callable[[Any], Any],
    save: Callable[[Any, Any], None],
) -> List[Any]:
    """The store-aware twin of :func:`_run_tasks`.

    Store hits skip the worker entirely (the cross-sweep-reuse
    invocation-counting tests rely on that); misses run on the pool and
    persist *the moment each result arrives*, so an interrupted sweep
    resumes from its last completed cell — the same discipline as the
    campaign engine.  Results are bit-identical to the storeless path:
    a hit returns the exact record a previous run computed, and records
    round-trip exactly.
    """
    task_list = list(tasks)
    results: List[Any] = [load(task) for task in task_list]
    pending = [index for index, result in enumerate(results)
               if result is None]
    workers = min(resolve_jobs(jobs), len(pending)) if pending else 0

    def record(index: int, result: Any) -> None:
        results[index] = result
        save(task_list[index], result)

    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                ordered = pool.map(worker,
                                   [task_list[index] for index in pending])
                for index, result in zip(pending, ordered):
                    record(index, result)
        except (OSError, BrokenProcessPool, PermissionError):
            pass  # fall through to the serial path for whatever is left
    for index in pending:
        if results[index] is None:
            record(index, worker(task_list[index]))
    return results


def run_phase_tasks(
    tasks: Iterable[PhaseTask],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[PhaseStats]:
    """Execute phase tasks, parallel when asked, results in order.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).  With one
            worker — or one task — everything runs in-process.
        store: optional shared result store — hits skip simulation,
            misses are persisted as they finish.
    """
    if store is None:
        return _run_tasks(execute_phase_task, tasks, jobs)
    return _run_tasks_stored(execute_phase_task, tasks, jobs,
                             store.load_phase, store.store_phase)


def run_mixed_tasks(
    tasks: Iterable[MixedTask],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[MixedResult]:
    """Execute steady-state mixed-traffic tasks.

    Same contract as :func:`run_phase_tasks`.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).
        store: optional shared result store.
    """
    if store is None:
        return _run_tasks(execute_mixed_task, tasks, jobs)
    return _run_tasks_stored(execute_mixed_task, tasks, jobs,
                             store.load_mixed, store.store_mixed)


def run_interleaver_tasks(
    tasks: Iterable[InterleaverTask],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[InterleaverSimResult]:
    """Execute full-frame interleaver tasks.

    Same contract as :func:`run_phase_tasks`.  With a store, each cell
    is persisted (and looked up) as its two *phase* records, so a
    ``table1`` run and an ``energy`` run over the same (config,
    mapping, n) grid share work in either direction.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).
        store: optional shared result store.
    """
    if store is None:
        return _run_tasks(execute_interleaver_task, tasks, jobs)
    return _run_tasks_stored(execute_interleaver_task, tasks, jobs,
                             store.load_interleaver, store.store_interleaver)


def run_e2e_tasks(
    tasks: Iterable[E2ETask],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[E2EResult]:
    """Execute end-to-end co-simulation tasks.

    Same contract as :func:`run_phase_tasks`: results in submission
    order, bit-identical for any ``jobs`` value, serial fallback when
    the pool is unavailable.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).
        store: optional shared result store.
    """
    if store is None:
        return _run_tasks(execute_e2e_task, tasks, jobs)
    return _run_tasks_stored(
        execute_e2e_task, tasks, jobs,
        lambda task: store.load_e2e(task.cell),
        lambda task, result: store.store_e2e(task.cell, result))


def run_adaptive_tasks(
    tasks: Iterable[AdaptiveTask],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[AdaptiveResult]:
    """Execute adaptive-stopping campaign tasks.

    Same contract as :func:`run_phase_tasks`: results in submission
    order, bit-identical for any ``jobs`` value, serial fallback when
    the pool is unavailable, store hits skipping the worker entirely.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).
        store: optional shared result store.
    """
    if store is None:
        return _run_tasks(execute_adaptive_task, tasks, jobs)
    return _run_tasks_stored(
        execute_adaptive_task, tasks, jobs,
        lambda task: store.load_adaptive(task.cell),
        lambda task, result: store.store_adaptive(result))


def run_rare_event_tasks(
    tasks: Iterable[RareEventTask],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[RareEventResult]:
    """Execute importance-sampled campaign tasks.

    Same contract as :func:`run_phase_tasks`.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).
        store: optional shared result store.
    """
    if store is None:
        return _run_tasks(execute_rare_event_task, tasks, jobs)
    return _run_tasks_stored(
        execute_rare_event_task, tasks, jobs,
        lambda task: store.load_rare_event(task.cell),
        lambda task, result: store.store_rare_event(result))


def run_scenario_tasks(
    tasks: Iterable[ScenarioTask],
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> List[ScenarioResult]:
    """Execute time-varying channel scenario tasks.

    Same contract as :func:`run_phase_tasks`.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).
        store: optional shared result store.
    """
    if store is None:
        return _run_tasks(execute_scenario_task, tasks, jobs)
    return _run_tasks_stored(
        execute_scenario_task, tasks, jobs,
        lambda task: store.load_scenario(task.cell),
        lambda task, result: store.store_scenario(result))
