"""Mixed read/write traffic and the steady-state interleaver mode."""

import pytest

from repro.dram.controller import ControllerConfig
from repro.dram.mixed import (
    RowShiftedMapping,
    interleaved_stream,
    run_mixed_phase,
    steady_state_interleaver,
)
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_interleaver
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.validate import assert_valid
from repro.system.sweep import default_mappings


@pytest.fixture
def ddr4_mapping(ddr4):
    return OptimizedMapping(TriangularIndexSpace(96), ddr4.geometry)


class TestRunMixedPhase:
    def test_counts_directions(self, ddr4):
        requests = [(k % 2 == 0, k % 4, 0, k % 8) for k in range(40)]
        result = run_mixed_phase(ddr4, requests)
        assert result.reads == 20
        assert result.writes == 20
        assert result.stats.requests == 40

    def test_turnarounds_counted(self, ddr4):
        # The stream alternates direction every request, but the arbiter
        # batches same-direction heads inside its queue window (as real
        # controllers' read/write grouping does), so far fewer — yet at
        # least one — turnarounds occur.
        requests = [(k % 2 == 0, k % 4, 0, k % 8) for k in range(40)]
        result = run_mixed_phase(ddr4, requests)
        assert 1 <= result.turnarounds < 39

    def test_turnarounds_forced_by_long_alternation(self, ddr4):
        """With blocks longer than the queue, switches cannot be batched
        away: one turnaround per direction block."""
        block = 200
        requests = []
        for block_index in range(6):
            is_read = block_index % 2 == 0
            for k in range(block):
                requests.append((is_read, k % 16, 0, (k // 16) % 64))
        result = run_mixed_phase(ddr4, requests)
        assert result.turnarounds >= 5

    def test_homogeneous_stream_has_no_turnarounds(self, ddr4):
        requests = [(True, k % 4, 0, k % 8) for k in range(40)]
        result = run_mixed_phase(ddr4, requests)
        assert result.turnarounds == 0

    def test_turnaround_costs_bandwidth(self, ddr4):
        alternating = [(k % 2 == 0, k % 16, 0, (k // 16) % 64) for k in range(4000)]
        blocked = sorted(alternating, key=lambda r: not r[0])
        fine = run_mixed_phase(ddr4, alternating)
        coarse = run_mixed_phase(ddr4, blocked)
        assert fine.utilization < coarse.utilization

    def test_empty_stream(self, ddr4):
        result = run_mixed_phase(ddr4, [])
        assert result.stats.requests == 0


class TestRowShiftedMapping:
    def test_shifts_rows_only(self, ddr4, ddr4_mapping):
        shifted = RowShiftedMapping(ddr4_mapping, 100)
        bank, row, col = ddr4_mapping.address_tuple(3, 5)
        assert shifted.address_tuple(3, 5) == (bank, row + 100, col)

    def test_still_injective(self, ddr4, ddr4_mapping):
        assert_valid(RowShiftedMapping(ddr4_mapping, ddr4_mapping.rows_used()))

    def test_rejects_overflow(self, ddr4, ddr4_mapping):
        with pytest.raises(ValueError, match="rows"):
            RowShiftedMapping(ddr4_mapping, ddr4.geometry.rows)

    def test_rejects_negative(self, ddr4_mapping):
        with pytest.raises(ValueError):
            RowShiftedMapping(ddr4_mapping, -1)


class TestInterleavedStream:
    def test_alternates_directions(self, ddr4_mapping):
        stream = list(interleaved_stream(ddr4_mapping, ddr4_mapping, group=1))
        assert stream[0][0] is False     # write first
        assert stream[1][0] is True
        assert len(stream) == 2 * ddr4_mapping.space.num_elements

    def test_grouping(self, ddr4_mapping):
        stream = list(interleaved_stream(ddr4_mapping, ddr4_mapping, group=4))
        directions = [r[0] for r in stream[:8]]
        assert directions == [False] * 4 + [True] * 4

    def test_rejects_bad_group(self, ddr4_mapping):
        with pytest.raises(ValueError):
            list(interleaved_stream(ddr4_mapping, ddr4_mapping, group=0))

    @pytest.mark.parametrize("mapping_name", ["row-major", "optimized"])
    @pytest.mark.parametrize("group", [1, 16])
    def test_matches_per_element_reference(self, ddr4, mapping_name, group):
        """The array-drawn stream is the per-element one, tuple for tuple.

        n = 37 gives 703 cells per frame, not a multiple of the group.
        """
        mapping = default_mappings()[mapping_name](TriangularIndexSpace(37),
                                                   ddr4.geometry)
        shifted = RowShiftedMapping(mapping, mapping.rows_used())
        writes = [(False,) + a for a in mapping.write_addresses()]
        reads = [(True,) + a for a in shifted.read_addresses()]
        expected = []
        for start in range(0, len(writes), group):
            expected += writes[start:start + group] + reads[start:start + group]
        stream = list(interleaved_stream(mapping, shifted, group))
        assert stream == expected
        assert {type(value) for request in stream for value in request[1:]} == {int}


class TestSteadyState:
    def test_runs_both_frames(self, ddr4, ddr4_mapping):
        result = steady_state_interleaver(ddr4, ddr4_mapping, group=16)
        elements = ddr4_mapping.space.num_elements
        assert result.reads == elements
        assert result.writes == elements

    def test_coarse_blocks_approach_phase_separated(self, ddr4, ddr4_mapping):
        """Large direction blocks amortize turnaround: utilization climbs
        toward the per-phase value, validating the paper's methodology."""
        fine = steady_state_interleaver(ddr4, ddr4_mapping, group=1)
        coarse = steady_state_interleaver(ddr4, ddr4_mapping, group=256)
        reference = simulate_interleaver(ddr4, ddr4_mapping)
        assert fine.utilization < coarse.utilization
        assert coarse.utilization > 0.7 * reference.min_utilization

    def test_policy_passthrough(self, ddr4, ddr4_mapping):
        result = steady_state_interleaver(
            ddr4, ddr4_mapping, group=32,
            policy=ControllerConfig(refresh_enabled=False))
        assert result.stats.refreshes == 0


class TestAcrossConfigs:
    @pytest.mark.parametrize("name", ["DDR3-1600", "LPDDR4-4266", "DDR5-6400"])
    def test_steady_state_positive_utilization(self, name):
        config = get_config(name)
        mapping = OptimizedMapping(TriangularIndexSpace(64), config.geometry)
        result = steady_state_interleaver(config, mapping, group=32)
        assert 0.2 < result.utilization <= 1.0
