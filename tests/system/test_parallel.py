"""Parallel sweep engine: task execution, fan-out, serial equivalence."""

import concurrent.futures
import os
from dataclasses import dataclass, field

import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_phase
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.system import parallel as parallel_module
from repro.system.parallel import (
    PhaseTask,
    execute_task,
    resolve_jobs,
    run_tasks,
)


@dataclass(frozen=True)
class _DiesInWorker:
    """A task that kills every process but the one that built it."""

    pid: int = field(default_factory=os.getpid)

    def execute(self) -> int:
        """The builder's pid, after exiting abruptly anywhere else."""
        if os.getpid() != self.pid:
            os._exit(1)
        return self.pid


class TestPhaseTask:
    def test_rejects_bad_op(self):
        with pytest.raises(ValueError):
            PhaseTask(config_name="DDR3-800", mapping="optimized", op="RMW", n=32)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            PhaseTask(config_name="DDR3-800", mapping="optimized", op=OP_READ, n=0)

    def test_is_picklable(self):
        import pickle

        task = PhaseTask(config_name="DDR3-800", mapping="optimized", op=OP_READ,
                         n=32, policy=ControllerConfig(refresh_enabled=False))
        assert pickle.loads(pickle.dumps(task)) == task


class TestExecute:
    def test_matches_direct_simulation(self):
        config = get_config("DDR4-3200")
        space = TriangularIndexSpace(48)
        mapping = OptimizedMapping(space, config.geometry, prefer_tall=False)
        direct = simulate_phase(config, mapping, OP_READ)
        task = PhaseTask(config_name="DDR4-3200", mapping="optimized",
                         op=OP_READ, n=48)
        assert task.execute() == direct

    def test_honors_policy(self):
        task = PhaseTask(config_name="DDR3-800", mapping="row-major", op=OP_WRITE,
                         n=32, policy=ControllerConfig(refresh_enabled=False))
        assert task.execute().refreshes == 0

    def test_unknown_mapping(self):
        task = PhaseTask(config_name="DDR3-800", mapping="no-such-mapping",
                         op=OP_READ, n=32)
        with pytest.raises(KeyError, match="no-such-mapping"):
            task.execute()

    def test_unknown_config(self):
        task = PhaseTask(config_name="DDR9-9999", mapping="optimized",
                         op=OP_READ, n=32)
        with pytest.raises(KeyError):
            task.execute()

    def test_ablation_variants_dispatchable(self):
        task = PhaseTask(config_name="DDR4-3200", mapping="no-tiling",
                         op=OP_READ, n=32)
        stats = task.execute()
        assert stats.requests == 32 * 33 // 2


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        usable = (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert resolve_jobs(0) == usable
        assert resolve_jobs(-1) == usable

    def test_zero_counts_only_the_cpus_this_process_may_use(self,
                                                            monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no scheduler affinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-1) == 1

    def test_explicit(self):
        assert resolve_jobs(3) == 3


class TestRunPhaseTasks:
    TASKS = [
        PhaseTask(config_name=name, mapping=mapping, op=op, n=40)
        for name in ("DDR3-800", "DDR4-3200")
        for mapping in ("row-major", "optimized")
        for op in (OP_WRITE, OP_READ)
    ]

    def test_serial_results_in_order(self):
        results = run_tasks(self.TASKS, jobs=1)
        assert len(results) == len(self.TASKS)
        assert all(r.requests == 40 * 41 // 2 for r in results)

    def test_parallel_matches_serial(self):
        serial = run_tasks(self.TASKS, jobs=1)
        parallel = run_tasks(self.TASKS, jobs=2)
        assert parallel == serial

    def test_empty_task_list(self):
        assert run_tasks([], jobs=4) == []

    def test_single_task_stays_serial(self):
        results = run_tasks(self.TASKS[:1], jobs=8)
        assert len(results) == 1


class TestRunner:
    """The one runner's contract beyond what the sweep tests cover."""

    def test_tracer_names_bind_the_one_runner_and_worker(self):
        for name in ("run_phase_tasks", "run_interleaver_tasks",
                     "run_mixed_tasks", "run_e2e_tasks"):
            assert getattr(parallel_module, name) is run_tasks
        for name in ("execute_phase_task", "execute_interleaver_task",
                     "execute_mixed_task", "execute_e2e_task"):
            assert getattr(parallel_module, name) is execute_task

    def test_pool_that_cannot_start_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no processes here")

        # run_tasks imports the executor class when it starts a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        tasks = [PhaseTask(config_name="DDR3-800", mapping="row-major",
                           op=op, n=12)
                 for op in (OP_WRITE, OP_READ)]
        assert run_tasks(tasks, jobs=2) == [task.execute() for task in tasks]

    def test_worker_that_dies_mid_sweep_finishes_serially(self):
        tasks = [PhaseTask(config_name="DDR3-800", mapping="row-major",
                           op=OP_WRITE, n=12),
                 _DiesInWorker(),
                 PhaseTask(config_name="DDR3-800", mapping="row-major",
                           op=OP_READ, n=12)]
        assert run_tasks(tasks, jobs=2) == [task.execute() for task in tasks]
