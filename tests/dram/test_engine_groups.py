"""Speed grades of one geometry scheduled from one shared address stream.

:func:`~repro.dram.kernel.run_shared` feeds each validated batch of one
stream to several engines; every result must equal the engine's own
:meth:`~repro.dram.kernel.KernelEngine.run` on the same stream: the
same :class:`~repro.dram.stats.PhaseStats`, recorded commands and CAS
times, on every Table I geometry, both phases and both mappings, with
bank partitioning and with refresh off.  Groups that take the general
engine match too, each engine on its own stream; a bad request deep in
the stream raises the single run's message; and the phase grid's
grouping (:class:`~repro.system.parallel.PhaseGroupTask`) keeps the
store's per-phase entries.
"""

import numpy as np
import pytest

from repro.dram import _kernelc
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource
from repro.dram.kernel import KernelEngine, run_shared
from repro.dram.policy import POLICY_BANK_PARTITION, POLICY_CLOSED_PAGE
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.dram.simulator import phase_addresses
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping
from repro.store.store import ResultStore
from repro.system import parallel as parallel_module
from repro.system import sweep
from repro.system.parallel import PhaseGroupTask, PhaseTask, phase_groups

N = 40

MAPPINGS = {"row-major": RowMajorMapping, "optimized": OptimizedMapping}


def _families():
    """Table I configurations that share a geometry, in paper order."""
    families = {}
    for name in TABLE1_CONFIG_NAMES:
        families.setdefault(get_config(name).geometry, []).append(name)
    return list(families.values())


FAMILIES = _families()

POLICIES = {
    "open-page": ControllerConfig(record_commands=True),
    "bank-partition": ControllerConfig(record_commands=True,
                                       discipline=POLICY_BANK_PARTITION),
    "refresh-off": ControllerConfig(record_commands=True,
                                    refresh_enabled=False),
}


def _stream(names, mapping_name, op, n=N):
    """A factory of fresh ChunkSources over the family's shared stream."""
    geometry = get_config(names[0]).geometry
    mapping = MAPPINGS[mapping_name](TriangularIndexSpace(n), geometry)
    return lambda: ChunkSource(phase_addresses(mapping, op))


def _assert_same(shared, single):
    assert shared.stats == single.stats
    assert shared.stats.kernel_fallback == single.stats.kernel_fallback
    assert shared.commands == single.commands
    assert np.array_equal(shared.cas_times, single.cas_times)


def test_table1_has_five_two_grade_families():
    assert [len(family) for family in FAMILIES] == [2] * 5


class TestSharedEqualsSingle:
    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    @pytest.mark.parametrize("mapping_name", MAPPINGS)
    @pytest.mark.parametrize("names", FAMILIES,
                             ids=["-".join(f) for f in FAMILIES])
    def test_each_grade_matches_its_own_run(self, names, mapping_name, op,
                                            policy_name):
        policy = POLICIES[policy_name]
        sources = _stream(names, mapping_name, op)
        engines = [KernelEngine(get_config(name), policy) for name in names]
        shared = run_shared(engines, sources, op, cas_times=True)
        assert len(shared) == len(engines)
        for engine, result in zip(engines, shared):
            _assert_same(result, engine.run(sources(), op, cas_times=True))
            assert result.stats.kernel_fallback is not _kernelc.available()

    def test_compiled_group_draws_the_stream_once(self):
        names = FAMILIES[1]
        make = _stream(names, "optimized", OP_READ)
        calls = []

        def sources():
            calls.append(1)
            return make()

        engines = [KernelEngine(get_config(name), ControllerConfig())
                   for name in names]
        run_shared(engines, sources, OP_READ)
        assert len(calls) == (1 if _kernelc.available() else len(engines))

    def test_small_batches_match_one_batch(self):
        """Batch boundaries stay invisible when several engines share them."""
        names = FAMILIES[3]
        geometry = get_config(names[0]).geometry
        mapping = OptimizedMapping(TriangularIndexSpace(N), geometry)
        policy = POLICIES["open-page"]
        engines = [KernelEngine(get_config(name), policy) for name in names]
        whole = run_shared(engines, lambda: ChunkSource(
            mapping.write_addresses_array()), OP_WRITE, cas_times=True)
        small = run_shared(engines, lambda: ChunkSource(
            mapping.write_addresses_array(chunk_size=7)), OP_WRITE,
            cas_times=True)
        for one, other in zip(whole, small):
            _assert_same(one, other)


class TestGeneralEngineGroups:
    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    def test_closed_page_group_matches_with_fallback_flag(self, op):
        names = FAMILIES[1]
        policy = ControllerConfig(record_commands=True,
                                  discipline=POLICY_CLOSED_PAGE)
        make = _stream(names, "optimized", op)
        calls = []

        def sources():
            calls.append(1)
            return make()

        engines = [KernelEngine(get_config(name), policy) for name in names]
        shared = run_shared(engines, sources, op, cas_times=True)
        assert len(calls) == len(engines)  # a fresh stream per engine
        for engine, result in zip(engines, shared):
            assert result.stats.kernel_fallback
            _assert_same(result, engine.run(make(), op, cas_times=True))

    def test_no_toolchain_group_matches(self, monkeypatch):
        names = FAMILIES[0]
        sources = _stream(names, "row-major", OP_READ)
        engines = [KernelEngine(get_config(name), POLICIES["open-page"])
                   for name in names]
        expected = [engine.run(sources(), OP_READ, cas_times=True)
                    for engine in engines]
        monkeypatch.setattr(_kernelc, "available", lambda: False)
        shared = run_shared(engines, sources, OP_READ, cas_times=True)
        for result, single in zip(shared, expected):
            assert result.stats.kernel_fallback
            assert result.stats == single.stats
            assert result.commands == single.commands
            assert np.array_equal(result.cas_times, single.cas_times)


def _bad_stream(bad_column):
    """Three chunks of valid DDR4 requests; the last holds a bad one."""
    def chunk(start, size):
        index = np.arange(start, start + size, dtype=np.int64)
        return [index % 16, index // 64, (index % 64) * 8]

    def sources():
        tail = chunk(200, 50)
        tail[bad_column][30] = -1 if bad_column == 1 else 99
        return ChunkSource([chunk(0, 100), chunk(100, 100), tail])
    return sources


class TestIntakeErrors:
    @pytest.mark.parametrize("discipline", ("open-page", POLICY_CLOSED_PAGE,
                                            POLICY_BANK_PARTITION))
    @pytest.mark.parametrize("bad_column", (0, 1), ids=("bank", "row"))
    def test_deep_bad_request_raises_the_single_message(self, discipline,
                                                        bad_column):
        sources = _bad_stream(bad_column)
        policy = ControllerConfig(discipline=discipline)
        engines = [KernelEngine(get_config(name), policy)
                   for name in FAMILIES[1]]
        with pytest.raises(ValueError) as single:
            engines[0].run(sources(), OP_WRITE)
        with pytest.raises(ValueError) as shared:
            run_shared(engines, sources, OP_WRITE)
        assert str(shared.value) == str(single.value)
        assert str(single.value).startswith("request #230 ")

    def test_engines_must_share_geometry_and_policy(self):
        ddr3, ddr4 = get_config("DDR3-800"), get_config("DDR4-3200")
        sources = _stream(["DDR4-3200"], "row-major", OP_READ)
        mixed_geometry = [KernelEngine(ddr3, ControllerConfig()),
                          KernelEngine(ddr4, ControllerConfig())]
        mixed_policy = [KernelEngine(ddr4, ControllerConfig()),
                        KernelEngine(ddr4, ControllerConfig(queue_depth=8))]
        for engines in (mixed_geometry, mixed_policy):
            with pytest.raises(ValueError, match="one geometry and one policy"):
                run_shared(engines, sources, OP_READ)

    def test_unknown_op(self):
        engines = [KernelEngine(get_config("DDR4-3200"), ControllerConfig())]
        with pytest.raises(ValueError, match="op must be"):
            run_shared(engines, _stream(["DDR4-3200"], "row-major",
                                        OP_READ), "XX")


class TestPhaseGroupTask:
    def test_group_equals_its_phases(self):
        phases = tuple(PhaseTask(name, "optimized", OP_READ, 24)
                       for name in FAMILIES[4])
        assert PhaseGroupTask(phases).execute() == tuple(
            phase.execute() for phase in phases)

    def test_phases_must_share_their_stream(self):
        write = PhaseTask("DDR4-1600", "optimized", OP_WRITE, 24)
        read = PhaseTask("DDR4-3200", "optimized", OP_READ, 24)
        ddr3 = PhaseTask("DDR3-800", "optimized", OP_READ, 24)
        for phases in ((write, read), (ddr3, read)):
            with pytest.raises(ValueError, match="must share geometry, "
                                                 "mapping, op"):
                PhaseGroupTask(phases)

    def test_one_phase_group_equals_its_phase(self):
        for name in ("DDR3-800", "LPDDR4-4266"):
            phase = PhaseTask(name, "row-major", OP_WRITE, 24)
            assert PhaseGroupTask((phase,)).execute() == (phase.execute(),)

    def test_groups_by_geometry_in_first_task_order(self):
        tasks = [PhaseTask(name, mapping, op, 16)
                 for name in ("DDR3-800", "DDR4-3200", "DDR3-1600")
                 for mapping in ("row-major", "optimized")
                 for op in (OP_WRITE, OP_READ)]
        assert phase_groups(tasks) == [[0, 8], [1, 9], [2, 10], [3, 11],
                                       [4], [5], [6], [7]]

    def test_policy_splits_groups(self):
        tasks = [PhaseTask(name, "row-major", OP_READ, 16, policy)
                 for policy in (None, ControllerConfig(refresh_enabled=False))
                 for name in FAMILIES[0]]
        assert phase_groups(tasks) == [[0, 1], [2, 3]]

    def test_a_worker_per_task_leaves_every_task_alone(self):
        # A group runs its phases one after another, so it pays only
        # while the tasks outnumber the workers.
        tasks = [PhaseTask(name, "row-major", op, 16)
                 for name in FAMILIES[0] for op in (OP_WRITE, OP_READ)]
        assert phase_groups(tasks, jobs=3) == [[0, 2], [1, 3]]
        assert phase_groups(tasks, jobs=4) == [[0], [1], [2], [3]]
        assert phase_groups(tasks, jobs=5) == [[0], [1], [2], [3]]


@pytest.fixture
def dispatched(monkeypatch):
    """Every task that enters the worker, in order."""
    tasks = []
    worker = parallel_module.execute_task

    def recording(task):
        tasks.append(task)
        return worker(task)

    monkeypatch.setattr(parallel_module, "execute_task", recording)
    return tasks


class TestPhaseGrid:
    def test_two_grade_family_runs_as_groups(self, dispatched):
        rows = sweep.run_table1(n=24, config_names=FAMILIES[3])
        assert [type(task) for task in dispatched] == [PhaseGroupTask] * 4
        assert [len(task.phases) for task in dispatched] == [2] * 4
        singles = [PhaseTask(name, mapping, op, 24).execute()
                   for name in FAMILIES[3]
                   for mapping in ("row-major", "optimized")
                   for op in (OP_WRITE, OP_READ)]
        assert [stats for row in rows
                for result in (row.row_major, row.optimized)
                for stats in (result.write, result.read)] == singles

    def test_store_serves_one_grade_and_computes_the_other(
            self, tmp_path, dispatched, monkeypatch):
        slow, fast = FAMILIES[3]
        store = ResultStore(str(tmp_path))
        sweep.run_table1(n=24, config_names=(slow,), store=store)
        assert len(store.list_entries("phase")) == 4
        del dispatched[:]
        saved = []
        save = store.save
        monkeypatch.setattr(store, "save", lambda task, result: (
            saved.append(task.config_name), save(task, result)))
        warm = sweep.run_table1(n=24, config_names=(slow, fast), store=store)
        # only the missing grade's four phases run, each on its own, and
        # only they are written
        assert [tuple(phase.config_name for phase in task.phases)
                for task in dispatched] == [(fast,)] * 4
        assert saved == [fast] * 4
        assert len(store.list_entries("phase")) == 8
        assert warm == sweep.run_table1(n=24, config_names=(slow, fast))

    def test_wide_pool_runs_one_phase_per_task(self, monkeypatch):
        runs = []

        def serial(tasks, jobs=None, store=None):
            runs.append((jobs, [len(task.phases) for task in tasks]))
            return parallel_module.run_tasks(tasks, jobs=1, store=store)

        monkeypatch.setattr(sweep, "run_tasks", serial)
        wide = sweep.run_table1(n=24, config_names=FAMILIES[3], jobs=8)
        narrow = sweep.run_table1(n=24, config_names=FAMILIES[3], jobs=7)
        assert runs == [(8, [1] * 8), (7, [2] * 4)]
        assert wide == narrow

    def test_store_saves_every_phase_of_a_group(self, tmp_path, dispatched):
        store = ResultStore(str(tmp_path))
        cold = sweep.run_table1(n=24, config_names=FAMILIES[0], store=store)
        assert len(store.list_entries("phase")) == 8
        del dispatched[:]
        assert sweep.run_table1(n=24, config_names=FAMILIES[0],
                                store=store) == cold
        assert dispatched == []

    def test_check_builds_each_geometry_once(self, monkeypatch):
        built = []
        build = sweep.cell_mapping
        monkeypatch.setattr(sweep, "cell_mapping",
                            lambda *cell: built.append(cell[:3]) or build(*cell))
        sweep.check_cells((name, mapping, 16) for name in TABLE1_CONFIG_NAMES
                          for mapping in ("row-major", "optimized"))
        assert built == [(family[0], mapping, 16) for family in FAMILIES
                         for mapping in ("row-major", "optimized")]
