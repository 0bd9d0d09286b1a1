"""High-level simulate_phase / simulate_interleaver facade."""

import pytest

from repro.dram.commands import CAS_COMMANDS, CommandType
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource
from repro.dram.kernel import KernelEngine
from repro.dram.policy import POLICY_CLOSED_PAGE
from repro.dram.simulator import simulate_interleaver, simulate_phase
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping


@pytest.fixture
def mapping(tiny_config):
    return OptimizedMapping(TriangularIndexSpace(16), tiny_config.geometry)


class TestSimulatePhase:
    def test_write_phase(self, tiny_config, mapping):
        stats = simulate_phase(tiny_config, mapping, OP_WRITE).stats
        assert stats.requests == mapping.space.num_elements
        assert 0 < stats.utilization <= 1.0

    def test_read_phase(self, tiny_config, mapping):
        stats = simulate_phase(tiny_config, mapping, OP_READ).stats
        assert stats.requests == mapping.space.num_elements

    def test_rejects_bad_op(self, tiny_config, mapping):
        with pytest.raises(ValueError):
            simulate_phase(tiny_config, mapping, "ERASE")

    @pytest.mark.parametrize("op,traversal", [
        (OP_WRITE, "write_addresses_array"),
        (OP_READ, "read_addresses_array"),
    ])
    def test_runs_its_traversal_through_the_kernel(
            self, tiny_config, mapping, op, traversal):
        """Writes traverse the mapping row-wise and reads column-wise,
        and the phase is the kernel's run of that traversal."""
        policy = ControllerConfig(record_commands=True)
        expected = KernelEngine(tiny_config, policy).run(
            ChunkSource(getattr(mapping, traversal)()), op)
        assert simulate_phase(tiny_config, mapping, op, policy) == expected

    def test_default_policy(self, tiny_config, mapping):
        assert simulate_phase(tiny_config, mapping, OP_READ) == simulate_phase(
            tiny_config, mapping, OP_READ, ControllerConfig())

    @pytest.mark.parametrize("op,cas", [(OP_WRITE, CommandType.WR),
                                        (OP_READ, CommandType.RD)])
    def test_every_request_moves_data_in_the_phase_direction(
            self, tiny_config, mapping, op, cas):
        result = simulate_phase(tiny_config, mapping, op,
                                ControllerConfig(record_commands=True))
        n = mapping.space.num_elements
        assert (result.writes, result.reads) == (
            (n, 0) if op == OP_WRITE else (0, n))
        assert [c.command for c in result.commands
                if c.command in CAS_COMMANDS] == [cas] * n

    def test_policy_passthrough(self, tiny_config, mapping):
        with_ref = simulate_phase(tiny_config, mapping, OP_READ,
                                  ControllerConfig(refresh_enabled=True)).stats
        without = simulate_phase(tiny_config, mapping, OP_READ,
                                 ControllerConfig(refresh_enabled=False)).stats
        assert without.refreshes == 0
        assert without.utilization >= with_ref.utilization


class TestSimulateInterleaver:
    @pytest.mark.parametrize("policy", [
        None, ControllerConfig(discipline=POLICY_CLOSED_PAGE)],
        ids=["default", "closed-page"])
    def test_phases_are_simulate_phase(self, tiny_config, mapping, policy):
        """Both phases run through :func:`simulate_phase` under the one
        policy given."""
        result = simulate_interleaver(tiny_config, mapping, policy)
        assert result.write == simulate_phase(
            tiny_config, mapping, OP_WRITE, policy).stats
        assert result.read == simulate_phase(
            tiny_config, mapping, OP_READ, policy).stats

    def test_result_fields(self, tiny_config, mapping):
        result = simulate_interleaver(tiny_config, mapping)
        assert result.config_name == tiny_config.name
        assert result.mapping_name == "optimized"
        assert result.write.requests == result.read.requests

    def test_min_utilization(self, tiny_config, mapping):
        result = simulate_interleaver(tiny_config, mapping)
        assert result.min_utilization == min(result.write_utilization,
                                             result.read_utilization)

    def test_effective_bandwidth(self, tiny_config, mapping):
        result = simulate_interleaver(tiny_config, mapping)
        expected = result.min_utilization * tiny_config.peak_bandwidth_bytes_per_s
        assert result.effective_bandwidth_bytes_per_s(tiny_config) == pytest.approx(expected)

    def test_row_major_name(self, tiny_config):
        mapping = RowMajorMapping(TriangularIndexSpace(16), tiny_config.geometry)
        result = simulate_interleaver(tiny_config, mapping)
        assert result.mapping_name == "row-major"
