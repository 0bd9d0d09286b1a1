"""Zero-copy columnar chunk passing for the process pool.

The PR 1 columnar address chunk — equal-length int64 ``(banks, rows,
columns)`` arrays — is the request currency of every vectorized path.
When a pre-materialized chunk stream has to cross a process boundary
(a chunk-bearing :class:`~repro.system.parallel.PhaseTask`), ordinary
pickling copies every payload byte twice: once serializing in the
parent, once deserializing in the worker.  :class:`SharedChunks`
instead materializes the stream once into a single
:mod:`multiprocessing.shared_memory` segment; pickling the object
ships only the segment *name* plus the chunk offset table, and the
worker reconstructs NumPy views directly into the shared pages — no
payload bytes move at all.

Fallback: when shared memory is unavailable (no ``/dev/shm``, a
sandboxed interpreter, exotic platforms) construction silently keeps
the payload inline and pickles it by value — slower, bit-identical.
``tests/system/test_shm.py`` pins both the zero-copy round trip and
the fallback against the ``--jobs=1`` serial path.

Lifecycle: the *creator* owns the segment and must call
:meth:`SharedChunks.unlink` (or use the object as a context manager)
once every consumer is done; *attachers* (unpickled copies) only ever
detach.  Attaching in a process with its *own* ``resource_tracker``
daemon (spawn-started workers) deliberately unregisters the segment —
otherwise that tracker would unlink the creator's live segment on
worker exit.  Fork-started workers share the creator's tracker and are
left alone (see ``_attach_segment``).
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

#: One columnar chunk as consumed by the controller intake.
Chunk = Tuple[Any, Any, Any]


def _concatenate(chunks: Iterable[Chunk]) -> Tuple[Any, Tuple[int, ...]]:
    """Flatten a chunk stream into one ``(3, total)`` int64 array.

    Returns the array plus the chunk boundary offsets (``bounds[k]`` to
    ``bounds[k+1]`` is chunk ``k``), preserving chunk granularity so
    the reconstructed stream is byte-for-byte the original one.

    Raises:
        ValueError: when a chunk's three columns differ in length.
    """
    parts: List[Tuple[Any, Any, Any]] = []
    bounds = [0]
    total = 0
    for banks, rows, columns in chunks:
        banks = np.ascontiguousarray(banks, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        columns = np.ascontiguousarray(columns, dtype=np.int64)
        if not (banks.shape == rows.shape == columns.shape) or banks.ndim != 1:
            raise ValueError(
                f"chunk columns must be equal-length 1-D arrays, got shapes "
                f"{banks.shape}/{rows.shape}/{columns.shape}")
        parts.append((banks, rows, columns))
        total += int(banks.shape[0])
        bounds.append(total)
    data = np.empty((3, total), dtype=np.int64)
    for k, (banks, rows, columns) in enumerate(parts):
        start, stop = bounds[k], bounds[k + 1]
        data[0, start:stop] = banks
        data[1, start:stop] = rows
        data[2, start:stop] = columns
    return data, tuple(bounds)


def _create_segment(nbytes: int) -> Optional[Any]:
    """A fresh shared-memory segment, or ``None`` when unavailable."""
    try:
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    except (ImportError, OSError, PermissionError):
        return None


def _tracker_pid() -> Optional[int]:
    """PID of this process's resource-tracker daemon, if discoverable."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return None
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    pid = getattr(tracker, "_pid", None)
    return pid if isinstance(pid, int) else None


def _attach_segment(name: str, creator_tracker: Optional[int]) -> Any:
    """Attach an existing segment without adopting its ownership.

    CPython's ``resource_tracker`` treats any attachment as ownership:
    it registers the segment and unlinks it when the tracker exits —
    which would destroy the creator's live segment once a *spawned*
    worker (own tracker daemon) finishes.  Those attachments are
    unregistered here.  Fork-started workers and same-process round
    trips share the *creator's* tracker daemon, where the registration
    is a set-add no-op and the creator's later unlink balances it —
    unregistering there would strip the creator's own entry, so the
    tracker PIDs are compared and shared-tracker attaches are left
    alone.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    own_tracker = _tracker_pid()
    if own_tracker is not None and own_tracker != creator_tracker:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(
                getattr(segment, "_name", segment.name), "shared_memory")
        except (ImportError, AttributeError, KeyError, ValueError):
            pass  # tracker variants differ across platforms; leak-warning only
    return segment


class SharedChunks:
    """A picklable columnar chunk stream backed by shared memory.

    Construction drains ``chunks`` into one flat int64 buffer.  When a
    shared-memory segment can be created the buffer lives there and
    pickling is O(metadata); otherwise the buffer stays inline and
    pickling copies it (the fallback).  Either way,
    :meth:`chunks` reproduces the original stream exactly: same chunk
    boundaries, same values, int64 columns.

    Args:
        chunks: the ``(banks, rows, columns)`` chunk stream to capture.
        prefer_shared: set ``False`` to force the inline (pickle)
            payload — used by tests and as an escape hatch.
    """

    def __init__(self, chunks: Iterable[Chunk],
                 prefer_shared: bool = True) -> None:
        data, bounds = _concatenate(chunks)
        self._bounds = bounds
        self._segment: Optional[Any] = None
        self._owner = False
        if prefer_shared:
            segment = _create_segment(data.nbytes)
            if segment is not None:
                view = np.ndarray(data.shape, dtype=np.int64,
                                  buffer=segment.buf)
                view[:] = data
                data = view
                self._segment = segment
                self._owner = True
        self._data: Optional[Any] = data

    @property
    def shared(self) -> bool:
        """Whether the payload lives in a shared-memory segment."""
        return self._segment is not None

    @property
    def total_requests(self) -> int:
        """Number of requests across all chunks."""
        return self._bounds[-1]

    @property
    def num_chunks(self) -> int:
        """Number of chunks the stream reproduces."""
        return len(self._bounds) - 1

    def chunks(self) -> Iterator[Chunk]:
        """The captured stream, chunk by chunk, as zero-copy views.

        The yielded arrays alias the backing buffer — consume them
        before calling :meth:`release`/:meth:`unlink` (the engine's
        intake copies on entry, so a completed run holds no
        references).
        """
        data = self._data
        if data is None:
            raise ValueError("SharedChunks used after release()")
        for k in range(self.num_chunks):
            start, stop = self._bounds[k], self._bounds[k + 1]
            yield data[0, start:stop], data[1, start:stop], data[2, start:stop]

    def release(self) -> None:
        """Detach an unpickled (attacher) copy from the segment.

        A deliberate no-op on the creator — the serial ``--jobs=1``
        path consumes the *original* object, which must survive until
        the caller's :meth:`unlink`.  Safe to call multiple times.
        """
        if self._owner:
            return
        segment = self._segment
        self._segment = None
        self._data = None
        if segment is not None:
            try:
                segment.close()
            except BufferError:
                pass  # a live view still aliases the buffer; the
                # mapping is reclaimed at process exit instead

    def unlink(self) -> None:
        """Destroy the segment (creator-side cleanup; inline: no-op)."""
        segment = self._segment
        self._segment = None
        self._data = None
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:
            pass
        if self._owner:
            self._owner = False
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass  # already gone (double unlink, platform cleanup)

    def __enter__(self) -> "SharedChunks":
        """Context-manager entry: the stream itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: creator unlinks, attacher detaches."""
        self.unlink()

    # -- pickling ------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Segment name + offsets in shared mode, full payload inline."""
        if self._data is None:
            raise pickle.PicklingError("cannot pickle a released SharedChunks")
        state: Dict[str, Any] = {"bounds": self._bounds}
        if self._segment is not None:
            state["segment"] = self._segment.name
            state["tracker"] = _tracker_pid()
        else:
            state["payload"] = self._data.tobytes()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Reconstruct as an attacher (shared) or by value (inline)."""
        self._bounds = tuple(state["bounds"])
        shape = (3, self._bounds[-1])
        self._owner = False
        if "segment" in state:
            self._segment = _attach_segment(state["segment"],
                                            state.get("tracker"))
            self._data = np.ndarray(shape, dtype=np.int64,
                                    buffer=self._segment.buf)
        else:
            self._segment = None
            self._data = np.frombuffer(
                state["payload"], dtype=np.int64).reshape(shape).copy()
