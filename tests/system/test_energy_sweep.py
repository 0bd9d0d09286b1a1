"""Energy sweep layer: run_energy_table / format_energy_table."""

import pytest

from repro.dram.controller import OP_WRITE, ControllerConfig
from repro.dram.presets import get_config
from repro.system.parallel import PhaseTask, run_tasks
from repro.system.sweep import format_energy_table, run_energy_table

CONFIGS = ("DDR3-800", "LPDDR4-2133")


@pytest.fixture(scope="module")
def rows():
    return run_energy_table(n=32, config_names=CONFIGS)


class TestRunEnergyTable:
    def test_grid_shape_and_order(self, rows):
        cells = [(r.config_name, r.mapping_name) for r in rows]
        assert cells == [
            ("DDR3-800", "row-major"), ("DDR3-800", "optimized"),
            ("LPDDR4-2133", "row-major"), ("LPDDR4-2133", "optimized"),
        ]

    def test_components_sum_to_total(self, rows):
        for row in rows:
            combined = row.combined
            assert combined.total_nj == pytest.approx(
                combined.activation_nj + combined.burst_nj
                + combined.refresh_nj + combined.background_nj)
            assert combined.total_nj == pytest.approx(
                row.write_energy.total_nj + row.read_energy.total_nj)

    def test_payload_counted_once_per_frame(self, rows):
        for row in rows:
            assert row.combined.payload_bytes == row.write_energy.payload_bytes
            assert row.pj_per_bit > 0
            assert row.avg_power_mw > 0

    def test_energy_comes_from_engine_tallies(self, rows):
        for row in rows:
            assert row.result.write.energy_tally is not None
            assert row.result.read.energy_tally is not None
            assert (row.write_energy.makespan_ps
                    == row.result.write.energy_tally.makespan_ps)

    def test_refresh_disabled_drops_refresh_energy(self):
        quiet = run_energy_table(
            n=32, config_names=("DDR3-800",),
            policy=ControllerConfig(refresh_enabled=False))
        for row in quiet:
            assert row.combined.refresh_nj == 0.0

    def test_jobs_bit_identical(self, rows):
        parallel = run_energy_table(n=32, config_names=CONFIGS, jobs=2)
        assert parallel == rows

    def test_deterministic_across_runs(self, rows):
        again = run_energy_table(n=32, config_names=CONFIGS)
        assert again == rows


class TestFormatEnergyTable:
    def test_layout(self, rows):
        text = format_energy_table(rows)
        lines = text.splitlines()
        assert len(lines) == 1 + len(rows) + 1
        for column in ("E_act", "E_burst", "E_ref", "E_bg", "pJ/bit", "avg mW"):
            assert column in lines[0]
        assert "DDR3-800" in text and "LPDDR4-2133" in text
        assert lines[-1].startswith("(per interleaver frame")

    def test_formatting_is_deterministic(self, rows):
        assert format_energy_table(rows) == format_energy_table(rows)


class TestEnergyCells:
    """Each energy cell is the write/read pair of Table I phase tasks."""

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            run_energy_table(n=0, config_names=("DDR3-800",))

    def test_unknown_mapping_raises(self):
        with pytest.raises(KeyError, match="unknown mapping"):
            run_tasks([PhaseTask(config_name="DDR3-800", mapping="zigzag",
                                 op=OP_WRITE, n=8)])

    def test_matches_direct_simulation(self):
        from repro.dram.simulator import simulate_interleaver
        from repro.interleaver.triangular import TriangularIndexSpace
        from repro.mapping.optimized import OptimizedMapping
        from repro.mapping.row_major import RowMajorMapping

        config = get_config("DDR3-800")
        row_major, optimized = (
            row.result for row in run_energy_table(n=24,
                                                   config_names=("DDR3-800",)))
        space = TriangularIndexSpace(24)
        direct = simulate_interleaver(config, RowMajorMapping(space, config.geometry))
        assert row_major == direct
        # the reassembled cell carries the mapping's own display name
        direct = simulate_interleaver(
            config, OptimizedMapping(space, config.geometry))
        assert optimized == direct
        assert optimized.mapping_name == direct.mapping_name
