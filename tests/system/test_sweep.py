"""Sweep harness: Table I grid, size sweeps, ablations."""

import ast
import inspect

import numpy as np
import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.presets import get_config
from repro.dram.stats import PhaseStats
from repro.dram.simulator import InterleaverSimResult
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.system import sweep
from repro.system.parallel import PhaseTask
from repro.system.sweep import (
    Table1Row,
    ablation_factories,
    default_mappings,
    format_table1,
    mapping_registry,
    run_table1,
    sweep_ablation,
    sweep_sizes,
)


@pytest.fixture(scope="module")
def small_rows():
    """One small Table I run shared by the formatting tests."""
    return run_table1(n=64, config_names=("DDR3-800", "DDR4-3200"))


class TestRunTable1:
    def test_rows_match_requested_configs(self, small_rows):
        assert [r.config_name for r in small_rows] == ["DDR3-800", "DDR4-3200"]

    def test_cells_are_utilizations(self, small_rows):
        for row in small_rows:
            for value in row.cells():
                assert 0.0 < value <= 1.0

    def test_mapping_names(self, small_rows):
        assert small_rows[0].row_major.mapping_name == "row-major"
        assert small_rows[0].optimized.mapping_name == "optimized"

    def test_policy_override(self):
        rows = run_table1(n=48, config_names=("DDR3-800",),
                          policy=ControllerConfig(refresh_enabled=False))
        assert rows[0].row_major.write.refreshes == 0

    @pytest.mark.parametrize("run,n,prefix", [
        (run_table1, 6000, "row-major mapping, n=6000: "),
        (run_table1, 5792, "optimized mapping, n=5792: "),
        (sweep.run_mixed_table, 3000, "optimized mapping, n=3000: shifted"),
        (sweep.run_policy_table, 6000, "optimized mapping, n=6000: "),
        (sweep_ablation, 6000, "full mapping, n=6000: "),
        (sweep.run_e2e_table, 6000, "row-major mapping, n=6000: "),
    ], ids=["6000-row-major", "5792-optimized", "mixed", "policy",
            "ablation", "e2e"])
    def test_device_too_small_fails_before_any_phase(self, run, n, prefix,
                                                     monkeypatch):
        """LPDDR4's channel holds n = 5792 row-major, but not compacted;
        at n = 3000 only the mixed grid's double-buffered read frame
        overflows it."""
        def no_phases(*args, **kwargs):
            raise AssertionError("a phase ran before the capacity check")

        monkeypatch.setattr(sweep, "run_tasks", no_phases)
        with pytest.raises(ValueError, match=f"^LPDDR4-4266, {prefix}"):
            run(n=n, config_names=("LPDDR4-4266",))


class TestPhaseGrid:
    def test_pairs_are_write_then_read_per_cell(self):
        cells = [("DDR3-800", "row-major", 24, None),
                 ("DDR4-3200", "no-tiling", 16,
                  ControllerConfig(refresh_enabled=False))]
        assert sweep.run_phase_grid(cells) == [
            (PhaseTask(config, mapping, OP_WRITE, n, policy).execute(),
             PhaseTask(config, mapping, OP_READ, n, policy).execute())
            for config, mapping, n, policy in cells]

    def test_checks_each_distinct_cell_once_in_grid_order(self, monkeypatch):
        checked = []
        build = sweep.cell_mapping
        monkeypatch.setattr(sweep, "cell_mapping",
                            lambda *cell: checked.append(cell[:3]) or build(*cell))
        rows = sweep.run_policy_table(n=16, config_names=("DDR4-3200", "DDR3-800"))
        assert len(rows) == 8
        assert checked == [("DDR4-3200", "optimized", 16),
                           ("DDR3-800", "optimized", 16)]

    def test_unknown_configuration_fails_before_any_phase(self, monkeypatch):
        def no_phases(*args, **kwargs):
            raise AssertionError("a phase ran before the configuration check")

        monkeypatch.setattr(sweep, "run_tasks", no_phases)
        with pytest.raises(KeyError, match="unknown DRAM configuration 'DDR9-1'"):
            run_table1(n=16, config_names=("DDR4-3200", "DDR9-1"))

    def test_only_three_callers_check_cells(self):
        """The phase grids check their cells through the one runner."""
        callers = {
            function.name
            for function in ast.walk(ast.parse(inspect.getsource(sweep)))
            if isinstance(function, ast.FunctionDef)
            for call in ast.walk(function)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "check_cells"
        }
        assert callers == {"run_phase_grid", "run_mixed_table", "run_e2e_table"}


class TestFormat:
    def test_contains_all_configs(self, small_rows):
        text = format_table1(small_rows)
        assert "DDR3-800" in text and "DDR4-3200" in text

    def test_marks_limiting_phase(self, small_rows):
        text = format_table1(small_rows)
        assert "*" in text
        assert "limits interleaver throughput" in text

    def test_one_line_per_config(self, small_rows):
        lines = format_table1(small_rows).splitlines()
        assert len(lines) == 2 + len(small_rows) + 1

    @staticmethod
    def _synthetic_row(rm_write, rm_read, opt_write, opt_read):
        def stats(utilization):
            # makespan chosen so data_time / makespan == utilization
            return PhaseStats(requests=10, data_time_ps=int(utilization * 10**6),
                              makespan_ps=10**6)

        def result(name, write, read):
            return InterleaverSimResult(config_name="SYN", mapping_name=name,
                                        write=stats(write), read=stats(read))

        return Table1Row(config_name="SYN",
                         row_major=result("row-major", rm_write, rm_read),
                         optimized=result("optimized", opt_write, opt_read))

    def test_tie_stars_exactly_one_phase(self):
        """Equal write/read utilization used to star both columns (float
        equality against the min); the limiter is picked by index now."""
        row = self._synthetic_row(0.5, 0.5, 0.75, 0.75)
        line = format_table1([row]).splitlines()[2]
        assert line.count("*") == 2  # one per mapping, not two
        rm_cells, opt_cells = line[15:36], line[37:]
        assert rm_cells.count("*") == 1
        assert opt_cells.count("*") == 1

    def test_star_follows_the_minimum(self):
        row = self._synthetic_row(0.9, 0.4, 0.3, 0.8)
        line = format_table1([row]).splitlines()[2]
        starred = [i for i, char in enumerate(line) if char == "*"]
        assert len(starred) == 2
        # read is the row-major limiter, write the optimized one
        assert "40.00%*" in line
        assert "30.00%*" in line
        assert "90.00%*" not in line


class TestSizeSweep:
    def test_points_cover_grid(self):
        points = sweep_sizes("DDR3-800", sizes=(32, 64))
        assert len(points) == 4  # 2 sizes x 2 mappings
        assert {p.n for p in points} == {32, 64}
        assert {p.mapping_name for p in points} == {"row-major", "optimized"}

    def test_elements_match_size(self):
        points = sweep_sizes("DDR3-800", sizes=(32,))
        assert all(p.elements == 32 * 33 // 2 for p in points)

    def test_min_utilization(self):
        point = sweep_sizes("DDR3-800", sizes=(48,))[0]
        assert point.min_utilization == min(point.write_utilization,
                                            point.read_utilization)

    def test_device_too_small_fails_before_any_task(self, monkeypatch):
        """n=6000 does not fit LPDDR4-4266: the sweep stops before its
        n=64 cells run, with an error naming the failing cell."""
        executed = []
        monkeypatch.setattr(PhaseTask, "execute",
                            lambda task: executed.append(task))
        with pytest.raises(ValueError,
                           match=r"^LPDDR4-4266, row-major mapping, n=6000: "):
            sweep_sizes("LPDDR4-4266", (64, 6000))
        assert executed == []


class TestParallelPlumbing:
    def test_run_table1_jobs_matches_serial(self):
        serial = run_table1(n=40, config_names=("DDR3-800",), jobs=1)
        parallel = run_table1(n=40, config_names=("DDR3-800",), jobs=2)
        assert serial[0].cells() == parallel[0].cells()

    def test_sweep_sizes_jobs_matches_serial(self):
        serial = sweep_sizes("DDR3-800", sizes=(32, 40), jobs=1)
        parallel = sweep_sizes("DDR3-800", sizes=(32, 40), jobs=2)
        assert serial == parallel

    def test_tuple_and_array_table1_agree(self):
        """``run_table1`` (array chunks) equals per-element tuple intake."""
        [row] = run_table1(n=40, config_names=("DDR4-3200",))
        config = get_config("DDR4-3200")
        space = TriangularIndexSpace(40)
        tuples = []
        for factory in default_mappings().values():
            mapping = factory(space, config.geometry)
            for op, stream in ((OP_WRITE, mapping.write_addresses()),
                               (OP_READ, mapping.read_addresses())):
                stats = KernelEngine(config, ControllerConfig()).run(
                    TupleSource(stream), op).stats
                tuples.append(stats.utilization)
        assert list(row.cells()) == tuples


class TestAblationSweep:
    def test_covers_grid(self):
        points = sweep_ablation(config_names=("DDR4-3200",), n=40,
                                variants=("full", "no-tiling"))
        assert [(p.config_name, p.variant) for p in points] == [
            ("DDR4-3200", "full"), ("DDR4-3200", "no-tiling")]
        for point in points:
            assert 0.0 < point.min_utilization <= 1.0

    def test_tiling_matters_on_read(self):
        points = {p.variant: p for p in sweep_ablation(
            config_names=("DDR4-3200",), n=64, variants=("full", "no-tiling"))}
        assert (points["full"].read_utilization
                > points["no-tiling"].read_utilization)

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            sweep_ablation(config_names=("DDR4-3200",), n=32,
                           variants=("bogus",))

    def test_jobs_matches_serial(self):
        serial = sweep_ablation(config_names=("DDR4-3200",), n=32,
                                variants=("full",), jobs=1)
        parallel = sweep_ablation(config_names=("DDR4-3200",), n=32,
                                  variants=("full",), jobs=2)
        assert serial == parallel


class TestFactories:
    def test_default_mappings(self):
        factories = default_mappings()
        assert set(factories) == {"row-major", "optimized"}

    def test_registry_covers_defaults_and_ablations(self):
        registry = mapping_registry()
        assert set(default_mappings()) <= set(registry)
        assert set(ablation_factories()) <= set(registry)

    def test_default_optimized_mapping_is_table1s(self, any_config):
        """``OptimizedMapping(space, geometry)`` is the mapping Table I runs."""
        space = TriangularIndexSpace(96)
        default = OptimizedMapping(space, any_config.geometry)
        table1 = mapping_registry()["optimized"](space, any_config.geometry)
        for stream in ("write_addresses_array", "read_addresses_array"):
            ours = [np.concatenate(column)
                    for column in zip(*getattr(default, stream)())]
            theirs = [np.concatenate(column)
                      for column in zip(*getattr(table1, stream)())]
            for a, b in zip(ours, theirs):
                np.testing.assert_array_equal(a, b)

    def test_ablation_factories_build(self):
        config = get_config("DDR4-3200")
        space = TriangularIndexSpace(64)
        for name, factory in ablation_factories().items():
            mapping = factory(space, config.geometry)
            assert mapping.address_tuple(0, 0) is not None, name

    def test_ablation_flags(self):
        config = get_config("DDR4-3200")
        space = TriangularIndexSpace(64)
        factories = ablation_factories()
        assert not factories["no-bank-rotation"](space, config.geometry).enable_bank_rotation
        assert not factories["no-tiling"](space, config.geometry).enable_tiling
        assert not factories["no-offset"](space, config.geometry).enable_offset
