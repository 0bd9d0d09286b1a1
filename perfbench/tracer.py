"""Span and counter recorders wrapped around the library's layer entry points.

Nothing here changes ``repro``: :meth:`Tracer.install` replaces each
entry point listed in :func:`_entry_points` with a wrapper that records
a span (name, start, end, parent) and counters, and
:meth:`Tracer.uninstall` puts the originals back.  Spans and counters
are held in memory; :meth:`Tracer.drain` hands them to the caller when a
sweep ends.

Pool workers are forked from the traced process, so they inherit the
wrappers.  A fork hook gives each worker an empty record, and the
wrapper around the worker entry function appends the worker's spans to
``<worker_dir>/worker-<pid>.jsonl`` after every task; the parent reads
those files with :meth:`Tracer.collect_workers` once the pool has shut
down.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One span: (id, name, start_s, end_s, parent_id or -1, pid).
Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """Process-local span and counter collector.

    Args:
        worker_dir: directory that forked pool workers flush their spans
            into (``None``: worker spans are dropped).
    """

    def __init__(self, worker_dir: Optional[str] = None) -> None:
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.in_worker = False
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0
        self._pool_depth = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------

    def _after_fork(self) -> None:
        if not self._patches:
            return
        self.pid = os.getpid()
        self.in_worker = True
        self.drain()
        self._stack.clear()
        self._pool_depth = 0

    def _open(self) -> Tuple[int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, perf_counter()

    def _close(self, name: str, opened: Tuple[int, int, float]) -> None:
        end = perf_counter()
        span_id, parent, start = opened
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.pid))

    def span(self, name: str, fn: Callable[..., Any],
             after: Optional[Callable[[Any, tuple], None]] = None
             ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records one span named ``name``.

        ``after(result, args)`` updates counters from the call's result.
        """
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, opened)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def timed_iter(self, name: str, iterator: Iterator[Any],
                   count: Optional[str] = None) -> Iterator[Any]:
        """Yield from ``iterator``, one span per ``next`` call.

        Address chunks and frame batches are produced lazily inside the
        engine's run loop, so their cost is only visible per pull.
        ``count`` names a counter that adds each item's first column
        length (the bursts in an address chunk).
        """
        while True:
            opened = self._open()
            try:
                item = next(iterator)
            except StopIteration:
                self._close(name, opened)
                return
            except BaseException:
                self._close(name, opened)
                raise
            self._close(name, opened)
            if count is not None:
                self.counters[count] += len(item[0])
            yield item

    # -- installing wrappers --------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_function(self, fn: Any, wrapper: Any) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that imported it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per install/uninstall)."""
        if self._patches:
            return
        for kind, target, attr, make in _entry_points(self):
            if kind == "method":
                self._replace(target, attr, make(target.__dict__[attr]))
            else:
                self._replace_function(target, make(target))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- pool bookkeeping -------------------------------------------------

    def dispatch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a ``run_*_tasks`` function: a span only when a pool is used."""
        from repro.system.parallel import resolve_jobs

        traced = self.span("parallel.dispatch", fn)

        @functools.wraps(fn)
        def wrapper(tasks: Any, jobs: Optional[int] = None,
                    store: Any = None) -> Any:
            tasks = list(tasks)
            if resolve_jobs(jobs) <= 1 or len(tasks) <= 1:
                return fn(tasks, jobs=jobs, store=store)
            self.counters["parallel.tasks"] += len(tasks)
            self._pool_depth += 1
            try:
                return traced(tasks, jobs=jobs, store=store)
            finally:
                self._pool_depth -= 1
        return wrapper

    def worker_entry(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a pool worker entry: flush worker spans, count fallbacks."""
        @functools.wraps(fn)
        def wrapper(task: Any) -> Any:
            if not self.in_worker and self._pool_depth:
                self.counters["parallel.serial_fallbacks"] += 1
            try:
                return fn(task)
            finally:
                if self.in_worker:
                    self._flush_worker()
        return wrapper

    def _flush_worker(self) -> None:
        if self.worker_dir is None:
            return
        spans, counters = self.drain()
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as stream:
            stream.write(json.dumps({"spans": spans, "counters": counters}) + "\n")

    # -- handing results over ---------------------------------------------

    def drain(self) -> Tuple[List[Span], Dict[str, int]]:
        """Take and clear this process's recorded spans and counters.

        Cleared in place: wrappers hold references to both containers.
        """
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters

    def collect_workers(self) -> Tuple[List[Span], Dict[str, int]]:
        """Read and delete the span files pool workers flushed."""
        spans: List[Span] = []
        counters: Counter = Counter()
        if self.worker_dir is None:
            return spans, dict(counters)
        for name in sorted(os.listdir(self.worker_dir)):
            if not (name.startswith("worker-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.worker_dir, name)
            with open(path) as stream:
                for line in stream:
                    record = json.loads(line)
                    spans.extend(tuple(span) for span in record["spans"])
                    counters.update(record["counters"])
            os.unlink(path)
        return spans, dict(counters)


def _entry_points(tracer: Tracer) -> List[Tuple[str, Any, str, Callable[[Any], Any]]]:
    """The public entry point of each layer and the wrapper it gets.

    Each row is ``(kind, target, attr, make_wrapper)``: a ``"method"``
    row replaces ``target.attr`` on its defining class, a ``"function"``
    row replaces the function object ``target`` wherever a ``repro``
    module bound it.
    """
    from repro.channel.gilbert_elliott import GilbertElliottChannel
    from repro.dram import energy, kernel
    from repro.dram.engine import SchedulingEngine
    from repro.dram.refresh import RefreshScheduler
    from repro.interleaver.two_stage import TwoStageInterleaver
    from repro.mapping.base import InterleaverMapping
    from repro.store.store import ResultStore
    from repro.system import e2e, parallel
    from repro.system.downlink import OpticalDownlink

    def count(name: str, value: int = 1) -> None:
        tracer.counters[name] += value

    def after_engine(result: Any, args: tuple) -> None:
        count("engine.phases")
        count("engine.bursts", result.stats.requests)
        count("engine.commands_recorded", len(result.commands))

    def after_kernel(result: Any, args: tuple) -> None:
        count("kernel.phases")
        if result.stats.kernel_fallback:
            count("kernel.fallbacks")

    def after_sample(result: Any, args: tuple) -> None:
        _, symbols, frames = args
        count("channel.symbols", symbols * frames)

    def after_write(key: str, args: tuple) -> None:
        store, kind = args[0], args[1]
        count("store.writes")
        count("store.bytes_written", os.path.getsize(store.entry_path(kind, key)))

    def after_read(payload: Any, args: tuple) -> None:
        count("store.reads")
        count("store.hits" if payload is not None else "store.misses")

    def due(original: Callable[..., Any]) -> Callable[..., Any]:
        counts = tracer.counters  # cleared in place, so safe to capture

        @functools.wraps(original)
        def wrapper(self: Any, now_ps: int) -> Any:
            counts["refresh.due_calls"] += 1
            event = original(self, now_ps)
            if event is not None:
                counts["refresh.events"] += 1
            return event
        return wrapper

    def lazy(name: str, count_name: Optional[str] = None):
        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.timed_iter(name, original(*args, **kwargs),
                                         count_name)
            return wrapper
        return make

    def spanned(name: str, after: Optional[Callable[[Any, tuple], None]] = None):
        return lambda original: tracer.span(name, original, after)

    mapping_classes = [InterleaverMapping] + _subclasses(InterleaverMapping)
    rows: List[Tuple[str, Any, str, Callable[[Any], Any]]] = [
        ("method", cls, attr, lazy("mapping.addrgen", "mapping.bursts"))
        for cls in mapping_classes
        for attr in ("write_addresses_array", "read_addresses_array")
        if attr in cls.__dict__
    ]
    rows += [
        ("method", SchedulingEngine, "run", spanned("engine.run", after_engine)),
        ("method", kernel.KernelEngine, "run", spanned("kernel.run", after_kernel)),
        ("method", RefreshScheduler, "due", due),
        ("function", energy.energy_from_tally, "", spanned("energy.fold")),
        ("method", e2e.FrameStreamSource, "batches", lazy("e2e.bridge")),
        ("function", e2e.run_e2e, "", spanned("e2e.run")),
        ("method", GilbertElliottChannel, "error_positions",
         spanned("channel.sample", after_sample)),
        ("method", OpticalDownlink, "run_batched", spanned("downlink.decode")),
        ("method", TwoStageInterleaver, "__init__",
         spanned("interleaver.permutation")),
        ("method", TwoStageInterleaver, "permutation",
         spanned("interleaver.permutation")),
        ("method", ResultStore, "write", spanned("store.write", after_write)),
        ("method", ResultStore, "read", spanned("store.read", after_read)),
        ("function", parallel.share_phase_chunks, "", spanned("shm.share")),
    ]
    rows += [("function", getattr(parallel, name), "", tracer.dispatch)
             for name in ("run_phase_tasks", "run_interleaver_tasks",
                          "run_mixed_tasks", "run_e2e_tasks")]
    rows += [("function", getattr(parallel, name), "", tracer.worker_entry)
             for name in ("execute_phase_task", "execute_interleaver_task",
                          "execute_mixed_task", "execute_e2e_task")]
    return rows


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-name self time: duration minus the time direct children cover.

    Span ids are unique per process, so children are matched on
    ``(pid, parent_id)``.
    """
    child_time: Dict[Tuple[int, int], float] = {}
    for _, _, start, end, parent, pid in spans:
        if parent >= 0:
            key = (pid, parent)
            child_time[key] = child_time.get(key, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, name, start, end, _, pid in spans:
        own = (end - start) - child_time.get((pid, span_id), 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals
