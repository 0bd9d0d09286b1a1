"""Zero-copy shared-memory chunk passing (:mod:`repro.system.shm`).

Pins the :class:`~repro.system.shm.SharedChunks` contract: byte-for-byte
stream reproduction through the shared segment *and* through the inline
pickle fallback, creator/attacher lifecycle, and — end to end — that a
chunk-bearing :class:`~repro.system.parallel.PhaseTask` fanned over a
real process pool is bit-identical to the serial ``--jobs=1`` path.
"""

import pickle

import numpy as np
import pytest

from repro.dram.controller import OP_READ, OP_WRITE
from repro.system import shm as shm_module
from repro.system.parallel import PhaseTask, run_tasks, share_phase_chunks
from repro.system.shm import SharedChunks


def _random_chunks(seed=7, sizes=(100, 37, 256, 1)):
    rng = np.random.default_rng(seed)
    return [tuple(rng.integers(0, 50, size=size, dtype=np.int64)
                  for _ in range(3))
            for size in sizes]


def _streams_equal(left, right):
    left, right = list(left), list(right)
    return len(left) == len(right) and all(
        all(np.array_equal(a[k], b[k]) for k in range(3))
        for a, b in zip(left, right))


class TestStreamReproduction:
    def test_chunks_roundtrip_boundaries_and_values(self):
        original = _random_chunks()
        with SharedChunks(original) as shared:
            assert shared.num_chunks == len(original)
            assert shared.total_requests == sum(len(c[0]) for c in original)
            assert _streams_equal(original, shared.chunks())

    def test_empty_stream(self):
        with SharedChunks([]) as shared:
            assert shared.num_chunks == 0
            assert shared.total_requests == 0
            assert list(shared.chunks()) == []

    def test_rejects_ragged_chunk(self):
        bad = [(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.int64))]
        with pytest.raises(ValueError, match="equal-length"):
            SharedChunks(bad)


class TestPickleTransport:
    def test_shared_pickle_ships_no_payload(self):
        original = _random_chunks()
        with SharedChunks(original) as shared:
            assert shared.shared
            blob = pickle.dumps(shared)
            # metadata only: orders of magnitude below the ~7.5 KiB payload
            assert len(blob) < 1024
            copy = pickle.loads(blob)
            assert _streams_equal(original, copy.chunks())
            copy.release()

    def test_inline_fallback_is_bit_identical(self):
        original = _random_chunks()
        inline = SharedChunks(original, prefer_shared=False)
        assert not inline.shared
        copy = pickle.loads(pickle.dumps(inline))
        assert _streams_equal(original, copy.chunks())
        inline.unlink()

    def test_inline_when_segment_creation_fails(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_create_segment", lambda nbytes: None)
        original = _random_chunks()
        shared = SharedChunks(original)
        assert not shared.shared  # silently degraded
        copy = pickle.loads(pickle.dumps(shared))
        assert _streams_equal(original, copy.chunks())


class TestLifecycle:
    def test_release_is_noop_on_creator(self):
        """The serial path consumes the creator object itself."""
        original = _random_chunks()
        shared = SharedChunks(original)
        first = _streams_equal(original, shared.chunks())
        shared.release()
        assert first and _streams_equal(original, shared.chunks())
        shared.unlink()

    def test_chunks_after_unlink_raises(self):
        shared = SharedChunks(_random_chunks())
        shared.unlink()
        with pytest.raises(ValueError, match="after release"):
            list(shared.chunks())

    def test_pickle_after_unlink_raises(self):
        shared = SharedChunks(_random_chunks())
        shared.unlink()
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(shared)

    def test_unlink_is_idempotent(self):
        shared = SharedChunks(_random_chunks())
        shared.unlink()
        shared.unlink()


class TestPhaseTaskIntegration:
    N = 64

    def _tasks(self):
        return [
            PhaseTask(config_name="DDR4-3200", mapping=mapping, op=op,
                      n=self.N)
            for mapping in ("row-major", "optimized")
            for op in (OP_WRITE, OP_READ)
        ]

    def test_chunk_path_matches_declarative_path(self):
        for task in self._tasks():
            shared_task = share_phase_chunks(task)
            try:
                assert shared_task.execute() == task.execute()
            finally:
                assert shared_task.chunks is not None
                shared_task.chunks.unlink()

    def test_pool_fanout_bit_identical_to_serial(self):
        """Chunk-bearing tasks over a real pool == declarative serial run.

        ``run_tasks`` degrades to the serial path where worker
        processes cannot spawn, so this holds in any environment; on
        hosts with a working pool it exercises the zero-copy attach in
        real workers.
        """
        tasks = self._tasks()
        shared_tasks = [share_phase_chunks(task) for task in tasks]
        try:
            pooled = run_tasks(shared_tasks, jobs=2)
        finally:
            for task in shared_tasks:
                assert task.chunks is not None
                task.chunks.unlink()
        assert pooled == run_tasks(tasks, jobs=1)

    def test_inline_fallback_tasks_match_serial(self):
        task = PhaseTask(config_name="DDR4-3200", mapping="row-major",
                         op=OP_WRITE, n=self.N)
        shared_task = share_phase_chunks(task, prefer_shared=False)
        try:
            assert (run_tasks([shared_task], jobs=2)
                    == [task.execute()])
        finally:
            assert shared_task.chunks is not None
            shared_task.chunks.unlink()
