"""Process-pool execution engine for simulation sweeps.

Every sweep (Table I, size sweeps, ablations, mixed traffic, energy,
e2e, campaigns and the adaptive, rare-event and scenario estimators)
decomposes into independent cells.  A **task** is any frozen cell with
an ``execute()`` method returning the cell's result (:class:`Task`):
:class:`PhaseTask` and :class:`MixedTask` here, and the cells of
:mod:`repro.system.e2e`, :mod:`repro.system.campaign` and
:mod:`repro.system.adaptive`.  Cells are declarative (a
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
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
    cast,
)

from repro.dram.controller import (
    OP_READ,
    OP_WRITE,
    ControllerConfig,
    MemoryController,
)
from repro.dram.mixed import MixedResult, steady_state_interleaver
from repro.dram.presets import DramConfig, get_config
from repro.dram.simulator import simulate_phase
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
        if self.op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {self.op!r}")
        if self.n < 1:
            raise ValueError(f"interleaver dimension must be >= 1, got {self.n}")

    def execute(self) -> PhaseStats:
        """Simulate the phase to completion.

        A chunk-bearing task (see :func:`share_phase_chunks`) feeds its
        shared payload straight into the controller; a declarative one
        rebuilds the mapping and simulates through
        :func:`~repro.dram.simulator.simulate_phase`.  Both paths are
        bit-identical.

        Raises:
            KeyError: if ``config_name`` or ``mapping`` is not a known
                registry key.
        """
        if self.chunks is not None:
            controller = MemoryController(get_config(self.config_name),
                                          self.policy)
            stats = controller.run_phase(self.chunks.chunks(), self.op).stats
            self.chunks.release()  # detach the worker-side view promptly
            return stats
        config, mapping = _task_mapping(self.mapping, self.config_name, self.n)
        return simulate_phase(config, mapping, self.op, self.policy)


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
