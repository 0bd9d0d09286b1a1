"""Cross-sweep reuse: warm-store runs re-enter the engine zero times.

The acceptance battery of the PR 7 tentpole: an ``energy`` run over a
store a ``table1`` run warmed (and vice versa) produces byte-identical
tables with **zero** redundant engine invocations, because both sweeps
address the same per-phase records.
"""

import pytest

from repro.store.store import ResultStore
from repro.system import parallel as parallel_module
from repro.system.e2e import E2ECell
from repro.system.parallel import MixedTask, PhaseGroupTask, PhaseTask
from repro.system.sweep import (
    format_energy_table,
    format_table1,
    run_e2e_table,
    run_energy_table,
    run_mixed_table,
    run_table1,
)

#: One configuration keeps each engine pass to a handful of cells.
CONFIGS = ("DDR4-3200",)
N = 16


@pytest.fixture
def counters(monkeypatch):
    """Count every entry into the simulation engine, per task type.

    A phase group counts each of its phases.
    """
    counts = {"phase": 0, "mixed": 0, "e2e": 0}
    names = {PhaseTask: "phase", MixedTask: "mixed", E2ECell: "e2e"}
    worker = parallel_module.execute_task

    def counting(task):
        if isinstance(task, PhaseGroupTask):
            counts["phase"] += len(task.phases)
        else:
            counts[names[type(task)]] += 1
        return worker(task)

    monkeypatch.setattr(parallel_module, "execute_task", counting)
    return counts


class TestTable1EnergyReuse:
    def test_energy_reuses_table1_phases(self, tmp_path, counters):
        cold_energy = run_energy_table(n=N, config_names=CONFIGS, jobs=1)
        store = ResultStore(str(tmp_path))
        run_table1(n=N, config_names=CONFIGS, jobs=1, store=store)
        engine_entries = dict(counters)
        rows = run_energy_table(n=N, config_names=CONFIGS, jobs=1, store=store)
        # zero redundant engine invocations of any kind on the warm run
        assert dict(counters) == engine_entries
        # and the served table is byte-identical to a cold computation
        assert format_energy_table(rows) == format_energy_table(cold_energy)
        assert rows == cold_energy

    def test_table1_reuses_energy_phases(self, tmp_path, counters):
        cold_table1 = run_table1(n=N, config_names=CONFIGS, jobs=1)
        store = ResultStore(str(tmp_path))
        run_energy_table(n=N, config_names=CONFIGS, jobs=1, store=store)
        engine_entries = dict(counters)
        rows = run_table1(n=N, config_names=CONFIGS, jobs=1, store=store)
        assert dict(counters) == engine_entries
        assert format_table1(rows) == format_table1(cold_table1)
        assert rows == cold_table1

    def test_energy_tallies_survive_the_store_boundary(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_table1(n=N, config_names=CONFIGS, jobs=1, store=store)
        warm = run_energy_table(n=N, config_names=CONFIGS, jobs=1, store=store)
        cold = run_energy_table(n=N, config_names=CONFIGS, jobs=1)
        for warm_row, cold_row in zip(warm, cold):
            assert warm_row.combined == cold_row.combined
            assert warm_row.result.write.energy_tally == \
                cold_row.result.write.energy_tally

    def test_different_n_does_not_reuse(self, tmp_path, counters):
        store = ResultStore(str(tmp_path))
        run_table1(n=N, config_names=CONFIGS, jobs=1, store=store)
        before = counters["phase"]
        run_energy_table(n=N + 1, config_names=CONFIGS, jobs=1, store=store)
        # both mappings resimulate, both phases each
        assert counters["phase"] == before + 4


class TestSameSweepReuse:
    def test_second_table1_run_is_free(self, tmp_path, counters):
        store = ResultStore(str(tmp_path))
        first = run_table1(n=N, config_names=CONFIGS, jobs=1, store=store)
        assert counters["phase"] == 4  # 2 mappings x 2 ops
        second = run_table1(n=N, config_names=CONFIGS, jobs=1, store=store)
        assert counters["phase"] == 4
        assert second == first

    def test_second_mixed_run_is_free(self, tmp_path, counters):
        store = ResultStore(str(tmp_path))
        first = run_mixed_table(n=N, config_names=CONFIGS, jobs=1, store=store)
        assert counters["mixed"] == 2
        second = run_mixed_table(n=N, config_names=CONFIGS, jobs=1,
                                 store=store)
        assert counters["mixed"] == 2
        assert second == first

    def test_second_e2e_run_is_free(self, tmp_path, counters):
        store = ResultStore(str(tmp_path))
        kwargs = dict(n=15, config_names=CONFIGS, frames=2, jobs=1,
                      store=store)
        first = run_e2e_table(**kwargs)
        assert counters["e2e"] == 2
        second = run_e2e_table(**kwargs)
        assert counters["e2e"] == 2
        assert second == first

    def test_storeless_runs_never_touch_disk(self, tmp_path, counters):
        run_table1(n=N, config_names=CONFIGS, jobs=1)
        assert list((tmp_path).iterdir()) == []


class TestPartialWarmth:
    def test_only_missing_cells_are_simulated(self, tmp_path, counters):
        store = ResultStore(str(tmp_path))
        run_table1(n=N, config_names=CONFIGS, jobs=1, store=store)
        assert counters["phase"] == 4
        # a two-config table over a store warm for one of them
        rows = run_table1(n=N, config_names=("DDR4-3200", "DDR3-1600"),
                          jobs=1, store=store)
        assert counters["phase"] == 8  # only DDR3-1600's four phases ran
        assert len(rows) == 2
