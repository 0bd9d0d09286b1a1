"""Integration: the independent JEDEC replay checker vs. the simulator.

For every Table I (configuration, mapping) pair, one controller run is
recorded through the simulator-level API (the vectorized columnar
intake path, exactly what the sweeps execute) and replayed against the
state-machine trace checker of :mod:`repro.dram.trace`.  The checker is
an independent implementation of the JEDEC rules, so zero violations
here cross-validates the event-driven scheduler on the full production
grid, not just hand-picked configs.
"""

import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.dram.simulator import simulate_phase
from repro.dram.trace import check_phase_commands
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

RECORDING_POLICY = ControllerConfig(record_commands=True)

MAPPING_FACTORIES = {
    "row-major": lambda space, geometry: RowMajorMapping(space, geometry),
    "optimized": lambda space, geometry: OptimizedMapping(space, geometry),
}

TABLE1_PAIRS = [
    (config_name, mapping_name)
    for config_name in TABLE1_CONFIG_NAMES
    for mapping_name in MAPPING_FACTORIES
]


def _run_recorded(config_name, mapping_name, op, n=48):
    config = get_config(config_name)
    space = TriangularIndexSpace(n)
    mapping = MAPPING_FACTORIES[mapping_name](space, config.geometry)
    return config, simulate_phase(config, mapping, op, RECORDING_POLICY)


class TestTable1TraceReplay:
    """Every Table I cell's command stream satisfies the JEDEC oracle."""

    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=[f"{c}-{m}" for c, m in TABLE1_PAIRS])
    def test_read_phase_replay_is_clean(self, config_name, mapping_name):
        # Reads are the phase where the mappings differ (column-wise
        # traversal is what collapses the row-major baseline).
        config, result = _run_recorded(config_name, mapping_name, OP_READ)
        assert result.commands, "recording policy produced no commands"
        violations = check_phase_commands(config, result.commands)
        assert violations == [], violations[:5]

    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=[f"{c}-{m}" for c, m in TABLE1_PAIRS])
    def test_write_phase_replay_is_clean(self, config_name, mapping_name):
        config, result = _run_recorded(config_name, mapping_name, OP_WRITE)
        assert result.commands, "recording policy produced no commands"
        violations = check_phase_commands(config, result.commands)
        assert violations == [], violations[:5]


class TestSimulatorResultApi:
    def test_stats_match_simulate_phase(self, ddr4):
        """Recording the commands leaves the statistics alone."""
        space = TriangularIndexSpace(32)
        mapping = OptimizedMapping(space, ddr4.geometry)
        result = simulate_phase(ddr4, mapping, OP_READ, RECORDING_POLICY)
        stats = simulate_phase(ddr4, mapping, OP_READ).stats
        assert result.stats == stats

    def test_no_recording_without_policy(self, ddr4):
        space = TriangularIndexSpace(16)
        mapping = RowMajorMapping(space, ddr4.geometry)
        result = simulate_phase(ddr4, mapping, OP_WRITE)
        assert result.commands == []

    def test_rejects_bad_op(self, ddr4):
        space = TriangularIndexSpace(8)
        mapping = RowMajorMapping(space, ddr4.geometry)
        with pytest.raises(ValueError, match="op must be"):
            simulate_phase(ddr4, mapping, "erase")
