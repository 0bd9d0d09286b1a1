"""Which scheduler ran never enters the store key space.

The kernel schedules natively where it can and falls back to the
general engine elsewhere (no toolchain, ``REPRO_KERNEL_NATIVE=0``);
both routes are bit-identical, so they must share one cache entry: the
task keys are pinned to the digests they had when tasks still carried
an ``engine`` field, and — end to end — a store warmed by one route
serves the other with zero engine invocations (the crash-consistency
property: a sweep interrupted on one host resumes on another without
recomputing).
"""

from dataclasses import replace

import pytest

from repro.dram import _kernelc
from repro.dram.controller import OP_READ, OP_WRITE
from repro.store.records import (
    KIND_MIXED,
    KIND_PHASE,
    derive_key,
    encode,
    phase_task_config,
)
from repro.store.store import ResultStore
from repro.system import parallel as parallel_module
from repro.system.parallel import (
    MixedTask,
    PhaseGroupTask,
    PhaseTask,
    share_phase_chunks,
)
from repro.system.sweep import run_table1

N = 16

#: Keys of the tasks below as derived before the ``engine`` task field
#: was removed.
PHASE_KEY = "d606e15e49d696a68ade1333bb3067ca"
MIXED_KEY = "9ffbc1e0640298a1d06be002e19df3df"


def _phase_task():
    return PhaseTask(config_name="DDR4-3200", mapping="optimized",
                     op=OP_READ, n=N)


class TestKeyDerivation:
    def test_phase_key_pinned(self):
        assert derive_key(KIND_PHASE, phase_task_config(_phase_task())) \
            == PHASE_KEY

    def test_mixed_key_pinned(self):
        task = MixedTask(config_name="DDR4-3200", mapping="optimized",
                         n=N, group=4)
        assert derive_key(KIND_MIXED, encode(task)) == MIXED_KEY

    def test_phase_config_excludes_chunk_payload(self):
        task = _phase_task()
        shared = share_phase_chunks(task)
        try:
            assert phase_task_config(shared) == phase_task_config(task)
        finally:
            assert shared.chunks is not None
            shared.chunks.unlink()

    def test_distinct_cells_still_distinct(self):
        task = _phase_task()
        other = replace(task, op=OP_WRITE)
        assert (derive_key(KIND_PHASE, phase_task_config(task))
                != derive_key(KIND_PHASE, phase_task_config(other)))


class TestCrossRouteCacheHits:
    @pytest.fixture
    def phase_counter(self, monkeypatch):
        """Count phases entering the worker, one per phase of a group."""
        counts = {"phase": 0}
        inner = parallel_module.execute_task

        def counting(task):
            if isinstance(task, PhaseTask):
                counts["phase"] += 1
            elif isinstance(task, PhaseGroupTask):
                counts["phase"] += len(task.phases)
            return inner(task)

        monkeypatch.setattr(parallel_module, "execute_task", counting)
        return counts

    def _sweep(self, store, monkeypatch, native):
        with monkeypatch.context() as patch:
            if not native:
                patch.setattr(_kernelc, "available", lambda: False)
            return run_table1(n=N, config_names=("DDR4-3200",), jobs=1,
                              store=store)

    @pytest.mark.parametrize("cold_native", (True, False),
                             ids=("native-warms", "fallback-warms"))
    def test_other_route_hits_warmed_store(self, tmp_path, monkeypatch,
                                           phase_counter, cold_native):
        store = ResultStore(str(tmp_path))
        cold = self._sweep(store, monkeypatch, cold_native)
        cold_entries = phase_counter["phase"]
        assert cold_entries > 0
        warm = self._sweep(store, monkeypatch, not cold_native)
        # zero engine invocations: every cell is a cache hit
        assert phase_counter["phase"] == cold_entries
        assert warm == cold
