"""Process-pool execution engine for simulation sweeps.

Every sweep (Table I, size sweeps, ablations, mixed traffic, energy,
e2e, campaigns and the adaptive, rare-event and scenario estimators)
decomposes into independent cells.  A **task** is any frozen cell with
an ``execute()`` method returning the cell's result (:class:`Task`):
:class:`PhaseTask`, :class:`PhaseGroupTask` and :class:`MixedTask`
here, and the cells of :mod:`repro.system.e2e`,
:mod:`repro.system.campaign` and :mod:`repro.system.adaptive`.  A
:class:`PhaseGroupTask` runs the phases of one address stream (the
speed grades of one geometry, :func:`phase_groups`) from one pass over
it; its phases stay the store's unit.  Cells are declarative (a
:class:`PhaseTask` names a preset config and a registry mapping key
rather than holding live objects), so they pickle cheaply and each
worker rebuilds its own state — no shared state, deterministic results,
identical to the serial path.

:func:`run_tasks` is the one runner.  It fans a task list over a
:class:`concurrent.futures.ProcessPoolExecutor` through the one worker,
:func:`execute_task`, and returns the results in submission order.
With a store, hits skip the worker and each miss is persisted the
moment its result arrives, so an interrupted sweep resumes from its
last finished cell.  The pool is an optimization, never a requirement:
``jobs=1``, a single pending task and a pool that cannot start all run
serially with identical results.

Every phase schedules through the scheduler's one front door, the
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
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    cast,
)

from repro.dram.controller import ControllerConfig
from repro.dram.engine import ChunkSource, check_op
from repro.dram.geometry import Geometry
from repro.dram.mixed import MixedResult, steady_state_interleaver
from repro.dram.presets import DramConfig, get_config
from repro.dram.simulator import phase_addresses, simulate_phase
from repro.dram.stats import PhaseStats
from repro.interleaver.triangular import TriangularIndexSpace
from repro.system.shm import SharedChunks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep -> parallel)
    from repro.mapping.base import InterleaverMapping

_R = TypeVar("_R")
_R_co = TypeVar("_R_co", covariant=True)


class Task(Protocol[_R_co]):
    """A frozen, picklable cell that computes its own result."""

    def execute(self) -> _R_co:
        """Run the cell to completion and return its result."""
        ...


class TaskStore(Protocol):
    """What :func:`run_tasks` needs of a store.

    :class:`~repro.store.store.ResultStore` is one; a view of it whose
    ``load`` always misses makes a sweep that writes without reading.
    """

    def load(self, task: Any) -> Any:
        """The stored result of ``task``, or ``None`` on a miss."""
        ...

    def save(self, task: Any, result: Any) -> None:
        """Persist the result of ``task``."""
        ...


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
        chunks: optional pre-materialized address payload (see
            :func:`share_phase_chunks`); excluded from equality — the
            declarative fields alone identify the cell.
    """

    config_name: str
    mapping: str
    op: str
    n: int
    policy: Optional[ControllerConfig] = None
    chunks: Optional[SharedChunks] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_op(self.op)
        if self.n < 1:
            raise ValueError(f"interleaver dimension must be >= 1, got {self.n}")

    def execute(self) -> PhaseStats:
        """Simulate the phase to completion.

        A chunk-bearing task (see :func:`share_phase_chunks`) feeds its
        shared payload straight into
        :class:`~repro.dram.kernel.KernelEngine`; a declarative one
        rebuilds the mapping and simulates through
        :func:`~repro.dram.simulator.simulate_phase`.  Both paths are
        bit-identical.

        Raises:
            KeyError: if ``config_name`` or ``mapping`` is not a known
                registry key.
        """
        if self.chunks is not None:
            # Imported on first use, keeping the kernel module out of
            # the package's import time.
            from repro.dram.kernel import KernelEngine

            engine = KernelEngine(get_config(self.config_name),
                                  self.policy or ControllerConfig())
            stats = engine.run(ChunkSource(self.chunks.chunks()), self.op).stats
            self.chunks.release()  # detach the worker-side view promptly
            return stats
        config, mapping = _task_mapping(self.mapping, self.config_name, self.n)
        return simulate_phase(config, mapping, self.op, self.policy).stats


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
    _, mapping = _task_mapping(task.mapping, task.config_name, task.n)
    return replace(task, chunks=SharedChunks(phase_addresses(mapping, task.op),
                                             prefer_shared=prefer_shared))


@dataclass(frozen=True)
class PhaseGroupTask:
    """Phases of one address stream, run from one pass over it.

    A mapping depends only on the channel geometry, the mapping key and
    ``n``, so the speed grades of one family schedule the same request
    stream.  A group builds that mapping once and feeds each address
    chunk to every phase's engine before making the next
    (:func:`~repro.dram.kernel.run_shared`); phases on the general
    engine each draw a fresh stream from the same mapping.  Each phase's
    statistics equal its own :meth:`PhaseTask.execute`, and the phases
    stay the store's unit: the group has no store record of its own.

    Attributes:
        phases: the group's phase tasks, equal in every field but
            ``config_name``; their configurations share one geometry.

    Raises:
        KeyError: on an unknown configuration.
        ValueError: when the phases differ in geometry, mapping, ``op``,
            ``n`` or policy.
    """

    phases: Tuple[PhaseTask, ...]

    def __post_init__(self) -> None:
        if len({_stream_key(phase) for phase in self.phases}) > 1:
            raise ValueError("a phase group's tasks must share geometry, "
                             "mapping, op, n and policy")

    def execute(self) -> Tuple[PhaseStats, ...]:
        """Simulate every phase to completion; statistics in order.

        Raises:
            KeyError: on an unknown mapping key.
        """
        # Imported on first use, keeping the kernel module out of the
        # package's import time.
        from repro.dram.kernel import KernelEngine, run_shared

        first, *others = self.phases
        config, mapping = _task_mapping(first.mapping, first.config_name,
                                        first.n)
        policy = first.policy or ControllerConfig()
        engines = [KernelEngine(config, policy)] + [
            KernelEngine(get_config(phase.config_name), policy)
            for phase in others]
        results = run_shared(
            engines, lambda: ChunkSource(phase_addresses(mapping, first.op)),
            first.op)
        return tuple(result.stats for result in results)


def _mapping_key(config_name: str, mapping: str,
                 n: int) -> Tuple[Geometry, str, int]:
    """What a cell's mapping depends on: geometry, mapping key and ``n``.

    The speed grades of one family share a geometry, so they share one
    mapping and its address stream.

    Raises:
        KeyError: on an unknown configuration.
    """
    return get_config(config_name).geometry, mapping, n


def _stream_key(task: PhaseTask) -> Tuple[Any, ...]:
    """What a phase's request stream depends on: mapping, op and policy."""
    return (*_mapping_key(task.config_name, task.mapping, task.n), task.op,
            task.policy)


def phase_groups(tasks: Sequence[PhaseTask],
                 jobs: Optional[int] = None) -> List[List[int]]:
    """Indices of the tasks to run as one :class:`PhaseGroupTask` each.

    Tasks share a group when they share an address stream: geometry,
    mapping key, ``op``, ``n`` and policy.  Groups come in the order of
    their first task, each in task order.  A group runs its phases one
    after another in one worker, so grouping pays only while the tasks
    outnumber the workers: when ``jobs`` (:func:`resolve_jobs`) gives
    every task a worker of its own, every task is a group of its own.

    Raises:
        KeyError: on an unknown configuration, when it groups.
    """
    if resolve_jobs(jobs) >= len(tasks):
        return [[index] for index in range(len(tasks))]
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for index, task in enumerate(tasks):
        groups.setdefault(_stream_key(task), []).append(index)
    return list(groups.values())


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

    def execute(self) -> MixedResult:
        """Simulate the interleaved write/read stream to completion.

        Raises:
            KeyError: if ``config_name`` or ``mapping`` is not a known
                registry key.
        """
        config, mapping = _task_mapping(self.mapping, self.config_name, self.n)
        return steady_state_interleaver(config, mapping, group=self.group,
                                        policy=self.policy)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs``-style argument to a worker count.

    ``None`` or ``1`` mean serial; ``0`` and negative values mean one
    worker per CPU this process may use (its scheduler affinity where
    the platform reports one, else every core; the make/pytest-xdist
    convention); anything else is taken literally.
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return jobs


def execute_task(task: Task[_R]) -> _R:
    """Run one task to completion: the pool worker, and the serial path."""
    return task.execute()


def run_tasks(
    tasks: Iterable[Task[_R]],
    jobs: Optional[int] = None,
    store: Optional[TaskStore] = None,
) -> List[_R]:
    """Execute tasks, in parallel when asked; results in submission order.

    Results are bit-identical for any ``jobs`` value and with or without
    a store: every task carries its whole description, a store hit
    returns the exact record an earlier run computed, and records
    round-trip exactly.

    Args:
        tasks: work items; results come back in the same order.
        jobs: worker processes (see :func:`resolve_jobs`).  With one
            worker — or one pending task — everything runs in-process.
        store: optional result store.  Hits skip the worker entirely;
            misses are saved the moment each result arrives, so an
            interrupted sweep resumes from its last finished cell.
    """
    task_list = list(tasks)
    results: List[Optional[_R]] = (
        [None] * len(task_list) if store is None
        else [store.load(task) for task in task_list])
    pending = [index for index, result in enumerate(results) if result is None]

    def record(index: int, result: _R) -> None:
        results[index] = result
        if store is not None:
            store.save(task_list[index], result)

    workers = min(resolve_jobs(jobs), len(pending))
    if workers > 1:
        # Imported only to start a pool: a serial run never loads
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                ordered = pool.map(execute_task,
                                   [task_list[index] for index in pending])
                for index, result in zip(pending, ordered):
                    record(index, result)
        except (OSError, BrokenProcessPool, PermissionError):
            pass  # fall through to the serial path for whatever is left
    for index in pending:
        if results[index] is None:
            record(index, execute_task(task_list[index]))
    return cast(List[_R], results)


# perfbench/tracer.py wraps the runner and the worker under these names.
run_phase_tasks = run_interleaver_tasks = run_mixed_tasks = run_tasks
run_e2e_tasks = run_tasks
execute_phase_task = execute_interleaver_task = execute_mixed_task = execute_task
execute_e2e_task = execute_task
