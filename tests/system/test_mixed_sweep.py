"""Mixed-traffic sweep layer: MixedTask workers, the table, the format."""

import pytest

from repro.dram.controller import ControllerConfig
from repro.dram.mixed import steady_state_interleaver
from repro.dram.presets import get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.system.parallel import MixedTask, run_tasks
from repro.system.sweep import format_mixed_table, run_mixed_table


class TestMixedTask:
    def test_executes_like_direct_call(self):
        task = MixedTask(config_name="DDR4-3200", mapping="optimized", n=64,
                         group=8)
        via_task = task.execute()
        config = get_config("DDR4-3200")
        mapping = OptimizedMapping(TriangularIndexSpace(64), config.geometry)
        direct = steady_state_interleaver(config, mapping, group=8)
        assert via_task == direct

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            MixedTask(config_name="DDR4-3200", mapping="optimized", n=0)

    def test_rejects_bad_group(self):
        with pytest.raises(ValueError):
            MixedTask(config_name="DDR4-3200", mapping="optimized", n=16,
                      group=0)

    def test_unknown_mapping_raises(self):
        task = MixedTask(config_name="DDR4-3200", mapping="zigzag", n=16)
        with pytest.raises(KeyError, match="zigzag"):
            task.execute()

    def test_policy_forwarded(self):
        task = MixedTask(config_name="DDR4-3200", mapping="optimized", n=48,
                         policy=ControllerConfig(refresh_enabled=False))
        assert task.execute().stats.refreshes == 0


class TestRunMixedTasks:
    def _tasks(self):
        return [
            MixedTask(config_name=name, mapping=mapping, n=48, group=4)
            for name in ("DDR4-3200", "LPDDR4-4266")
            for mapping in ("row-major", "optimized")
        ]

    def test_serial_results_in_order(self):
        results = run_tasks(self._tasks())
        assert len(results) == 4
        assert all(r.stats.requests > 0 for r in results)

    def test_parallel_identical_to_serial(self):
        serial = run_tasks(self._tasks(), jobs=1)
        parallel = run_tasks(self._tasks(), jobs=2)
        assert serial == parallel


class TestRunMixedTable:
    def test_rows_cover_grid(self):
        rows = run_mixed_table(n=48, config_names=("DDR4-3200", "DDR3-1600"),
                               group=8)
        assert [(r.config_name, r.mapping_name) for r in rows] == [
            ("DDR4-3200", "row-major"), ("DDR4-3200", "optimized"),
            ("DDR3-1600", "row-major"), ("DDR3-1600", "optimized"),
        ]
        for row in rows:
            assert 0.0 < row.utilization <= 1.0
            assert row.reads == row.writes > 0

    def test_jobs_do_not_change_results(self):
        serial = run_mixed_table(n=48, config_names=("DDR4-3200",), group=8)
        parallel = run_mixed_table(n=48, config_names=("DDR4-3200",), group=8,
                                   jobs=2)
        assert serial == parallel

    def test_larger_groups_do_not_hurt_utilization_much(self):
        """Coarser direction blocks amortize turnaround penalties."""
        fine = run_mixed_table(n=48, config_names=("DDR4-3200",), group=1)
        coarse = run_mixed_table(n=48, config_names=("DDR4-3200",), group=64)
        for f, c in zip(fine, coarse):
            assert c.turnarounds <= f.turnarounds

    def test_policy_forwarded(self):
        rows = run_mixed_table(n=48, config_names=("DDR4-3200",), group=8,
                               policy=ControllerConfig(refresh_enabled=False))
        assert rows  # refresh disabled must not break the sweep


class TestFormat:
    def test_contains_all_cells(self):
        rows = run_mixed_table(n=48, config_names=("DDR4-3200",), group=8)
        text = format_mixed_table(rows)
        assert "DDR4-3200" in text
        assert "row-major" in text and "optimized" in text
        assert "turnaround" in text
