"""End-to-end downlink -> DRAM co-simulation engine."""

import math

import numpy as np
import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import coherence_params
from repro.dram.controller import (
    OP_READ,
    OP_WRITE,
    POLICY_CLOSED_PAGE,
    ControllerConfig,
)
from repro.dram.engine import SchedulingEngine
from repro.dram.geometry import Geometry
from repro.dram.presets import get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.interleaver.two_stage import TwoStageConfig
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping
from repro.system.e2e import (
    E2ECell,
    FrameStreamSource,
    _run_dram_phase,
    _run_dram_phase_reference,
    latency_percentile_ps,
    run_e2e,
    run_e2e_reference,
)
from repro.system.parallel import run_tasks
from repro.system.sweep import E2ERow, format_e2e_table, run_e2e_table

CODE = CodewordConfig(n_symbols=24, t_correctable=2)


def small_interleaver(n=15):
    return TwoStageConfig(triangle_n=n, symbols_per_element=4,
                          codeword_symbols=24)


def small_cell(**overrides):
    defaults = dict(
        channel=coherence_params(60.0, 0.004, p_bad=0.7),
        interleaver=small_interleaver(),
        code=CODE,
        config_name="DDR4-3200",
        mapping="optimized",
        seed=2024,
        frames=6,
    )
    defaults.update(overrides)
    return E2ECell(**defaults)


class TestFrameStreamSource:
    def setup_method(self):
        self.interleaver = small_interleaver()
        config = get_config("DDR4-3200")
        space = TriangularIndexSpace(self.interleaver.triangle_n)
        self.mapping = OptimizedMapping(space, config.geometry,
                                        prefer_tall=False)

    def test_is_homogeneous_source(self):
        source = FrameStreamSource(self.mapping, self.interleaver, 2)
        assert source.mixed is False
        assert source.elements_per_frame == self.interleaver.elements_per_frame

    def test_zero_frames_yield_no_batches(self):
        source = FrameStreamSource(self.mapping, self.interleaver, 0)
        assert list(source.batches()) == []

    def test_empty_stream_schedules_zero_requests(self):
        source = FrameStreamSource(self.mapping, self.interleaver, 0)
        engine = SchedulingEngine(get_config("DDR4-3200"), ControllerConfig())
        result = engine.run(source, op=OP_WRITE)
        assert result.stats.requests == 0
        assert result.stats.makespan_ps == 0

    @pytest.mark.parametrize("frames", [1, 3])
    @pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
    def test_batches_match_tuple_stream(self, frames, op):
        source = FrameStreamSource(self.mapping, self.interleaver, frames, op)
        flat = [
            (int(b), int(r), int(c))
            for banks, rows, cols, dirs in source.batches()
            for b, r, c in zip(banks, rows, cols)
        ]
        order = (self.mapping.write_addresses if op == OP_WRITE
                 else self.mapping.read_addresses)
        expected = [tuple(address) for _ in range(frames)
                    for address in order()]
        assert flat == expected

    def test_directions_column_absent(self):
        source = FrameStreamSource(self.mapping, self.interleaver, 1)
        for _banks, _rows, _cols, dirs in source.batches():
            assert dirs is None

    def test_size_mismatch_raises(self):
        config = get_config("DDR4-3200")
        wrong = OptimizedMapping(TriangularIndexSpace(16), config.geometry,
                                 prefer_tall=False)
        with pytest.raises(ValueError, match="disagree"):
            FrameStreamSource(wrong, self.interleaver, 1)

    def test_oversized_mapping_raises_at_construction(self):
        # The concrete mappings already refuse a frame that exceeds the
        # device when they are built, so the mismatch cannot even reach
        # the bridge.
        tiny = Geometry(bank_groups=2, banks_per_group=1, rows=256,
                        columns=32, bus_width_bits=64, burst_length=8)
        with pytest.raises(ValueError, match="only"):
            RowMajorMapping(TriangularIndexSpace(255), tiny)

    def test_capacity_overflow_raises(self):
        # Defensive backstop for third-party mappings that skip their
        # own capacity validation: the bridge re-checks rows_used.
        mapping = OptimizedMapping(
            TriangularIndexSpace(self.interleaver.triangle_n),
            get_config("DDR4-3200").geometry, prefer_tall=False)
        mapping.rows_used = lambda: mapping.geometry.rows + 1
        with pytest.raises(ValueError, match="rows"):
            FrameStreamSource(mapping, self.interleaver, 1)

    def test_negative_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            FrameStreamSource(self.mapping, self.interleaver, -1)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            FrameStreamSource(self.mapping, self.interleaver, 1, "XX")


class TestLatencyPercentile:
    def test_nearest_rank(self):
        sample = (40, 10, 30, 20)
        assert latency_percentile_ps(sample, 25) == 10
        assert latency_percentile_ps(sample, 50) == 20
        assert latency_percentile_ps(sample, 75) == 30
        assert latency_percentile_ps(sample, 99) == 40
        assert latency_percentile_ps(sample, 100) == 40

    def test_single_sample(self):
        assert latency_percentile_ps((7,), 50) == 7

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            latency_percentile_ps((), 50)

    @pytest.mark.parametrize("q", [0.0, -1.0, 101.0])
    def test_out_of_range_percentile_rejected(self, q):
        with pytest.raises(ValueError, match="percentile"):
            latency_percentile_ps((1, 2), q)


class TestCellValidation:
    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            small_cell(frames=0)

    def test_unknown_mapping_raises(self):
        with pytest.raises(KeyError, match="unknown mapping"):
            run_e2e(small_cell(mapping="no-such-mapping"))

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            run_e2e(small_cell(config_name="DDR9-1"))

    def test_mismatched_code_raises(self):
        with pytest.raises(ValueError, match="disagree"):
            run_e2e(small_cell(code=CodewordConfig(n_symbols=12,
                                                   t_correctable=2)))


class TestRunE2E:
    def test_result_shape(self):
        result = run_e2e(small_cell())
        cell = result.cell
        assert result.write.requests == cell.frames * cell.interleaver.elements_per_frame
        assert result.read.requests == result.write.requests
        assert len(result.write_latencies_ps) == cell.frames
        assert len(result.read_latencies_ps) == cell.frames
        assert result.downlink.interleaved.codewords == (
            cell.frames * cell.interleaver.codewords_per_frame)

    def test_latencies_sum_to_makespan(self):
        result = run_e2e(small_cell(frames=8))
        assert sum(result.write_latencies_ps) == result.write.makespan_ps
        assert sum(result.read_latencies_ps) == result.read.makespan_ps
        assert all(lat >= 0 for lat in result.write_latencies_ps)
        assert all(lat >= 0 for lat in result.read_latencies_ps)

    def test_energy_from_both_phases(self):
        result = run_e2e(small_cell())
        assert result.energy.total_nj > 0
        assert result.energy.makespan_ps == (
            result.write.makespan_ps + result.read.makespan_ps)

    def test_utilization_properties(self):
        result = run_e2e(small_cell())
        assert result.write_utilization == result.write.utilization
        assert result.read_utilization == result.read.utilization
        assert result.min_utilization == min(result.write.utilization,
                                             result.read.utilization)

    def test_percentile_accessors(self):
        result = run_e2e(small_cell())
        p50 = result.write_latency_percentile(50)
        p99 = result.write_latency_percentile(99)
        assert p50 in result.write_latencies_ps
        assert p99 in result.write_latencies_ps
        assert p50 <= p99

    def test_deterministic_per_seed(self):
        cell = small_cell()
        assert run_e2e(cell) == run_e2e(cell)
        assert run_e2e(cell) != run_e2e(small_cell(seed=7))

    def test_policy_reaches_the_engine(self):
        # 64 frames stretch the phase past the refresh interval, so the
        # refresh-enabled run must actually issue refreshes.
        with_refresh = run_e2e(small_cell(frames=64))
        without = run_e2e(small_cell(
            frames=64, policy=ControllerConfig(refresh_enabled=False)))
        assert without.write.refreshes == 0
        assert with_refresh.write.refreshes > 0
        # The channel side is untouched by the DRAM policy.
        assert with_refresh.downlink == without.downlink

    def test_record_commands_policy_is_stats_invariant(self):
        plain = run_e2e(small_cell())
        recording = run_e2e(small_cell(
            policy=ControllerConfig(record_commands=True)))
        assert plain.write == recording.write
        assert plain.write_latencies_ps == recording.write_latencies_ps


#: The seeded differential scenario grid: channel x geometry x DRAM
#: configuration x mapping, covering the quantized (DDR4-3200) and the
#: continuous-timeline (DDR5-6400) issue-slot paths, both Table I
#: mappings, a good-state-error channel, a non-default policy, and a
#: closed-page cell (a discipline the kernel delegates to the general
#: engine, so the fallback route's CAS times feed the latency fold).
DIFFERENTIAL_GRID = [
    pytest.param(channel_args, n, config_name, mapping, policy,
                 id=f"fade{channel_args[0]:.0f}-n{n}-{config_name}-{mapping}"
                    f"{'-' + tag if tag else ''}")
    for channel_args in [(40.0, 0.002, 0.6, 0.0), (90.0, 0.008, 0.7, 0.001)]
    for n in [15, 32]
    for config_name, mapping, policy, tag in [
        ("DDR4-3200", "row-major", None, ""),
        ("DDR4-3200", "optimized", None, ""),
        ("DDR5-6400", "optimized", None, ""),
        ("LPDDR4-4266", "row-major",
         ControllerConfig(queue_depth=16, per_bank_depth=4,
                          refresh_enabled=False), "shallow"),
        ("DDR4-3200", "optimized",
         ControllerConfig(discipline=POLICY_CLOSED_PAGE), "closed-page"),
    ]
]


class TestDifferentialBattery:
    """The acceptance gate: batched bridge == per-frame scalar oracle."""

    @pytest.mark.parametrize(
        "channel_args,n,config_name,mapping,policy", DIFFERENTIAL_GRID)
    def test_batched_equals_reference(self, channel_args, n, config_name,
                                      mapping, policy):
        fade, fraction, p_bad, p_good = channel_args
        cell = E2ECell(
            channel=coherence_params(fade, fraction, p_bad=p_bad,
                                     p_good=p_good),
            interleaver=small_interleaver(n),
            code=CODE,
            config_name=config_name,
            mapping=mapping,
            seed=97 + n,
            frames=6,
            policy=policy,
        )
        batched = run_e2e(cell)
        reference = run_e2e_reference(cell)
        # Full-result equality covers the channel outcome, both
        # PhaseStats and the per-frame latency tuples ...
        assert batched == reference
        # ... and the fields equality does not cover: the energy report
        # (floats, compared exactly) and the engine's energy tallies
        # (excluded from PhaseStats equality by design).
        assert batched.energy == reference.energy
        assert batched.write.energy_tally == reference.write.energy_tally
        assert batched.read.energy_tally == reference.read.energy_tally

    @pytest.mark.parametrize("frames", [0, 1, 5])
    @pytest.mark.parametrize("op", [OP_WRITE, OP_READ])
    def test_dram_phase_equals_reference(self, frames, op):
        """Phase level, where a cell cannot go: ``frames=0`` included."""
        config = get_config("DDR4-3200")
        interleaver = small_interleaver()
        mapping = OptimizedMapping(TriangularIndexSpace(interleaver.triangle_n),
                                   config.geometry, prefer_tall=False)

        def run(phase):
            source = FrameStreamSource(mapping, interleaver, frames, op)
            return phase(config, ControllerConfig(), source, frames,
                         interleaver.elements_per_frame, op)

        stats, latencies = run(_run_dram_phase)
        assert (stats, latencies) == run(_run_dram_phase_reference)
        assert len(latencies) == frames


class TestParallelTasks:
    def test_jobs_bit_identical(self):
        cells = [
            small_cell(seed=seed, mapping=mapping)
            for seed in (1, 2)
            for mapping in ("row-major", "optimized")
        ]
        serial = run_tasks(cells, jobs=1)
        parallel = run_tasks(cells, jobs=2)
        assert serial == parallel

    def test_results_in_submission_order(self):
        cells = [small_cell(config_name=name)
                 for name in ("DDR4-3200", "DDR3-800")]
        results = run_tasks(cells, jobs=2)
        assert [r.cell.config_name for r in results] == [
            "DDR4-3200", "DDR3-800"]


class TestE2ETable:
    def test_table_shape_and_grid_order(self):
        rows = run_e2e_table(n=15, config_names=("DDR3-800", "DDR4-3200"),
                             frames=3)
        assert [(r.config_name, r.mapping_name) for r in rows] == [
            ("DDR3-800", "row-major"), ("DDR3-800", "optimized"),
            ("DDR4-3200", "row-major"), ("DDR4-3200", "optimized"),
        ]
        # One shared channel outcome per table (same seed and channel).
        assert len({r.result.downlink for r in rows}) == 1

    def test_format_contains_all_cells(self):
        rows = run_e2e_table(n=15, config_names=("DDR3-800",), frames=3)
        text = format_e2e_table(rows)
        assert "DDR3-800" in text
        assert "row-major" in text and "optimized" in text
        assert "pJ/bit" in text

    def test_format_infinite_gain(self):
        # Regression: a cell whose interleaved arm rescued every
        # code word (gain == inf) renders as the "inf" column cell.
        channel = coherence_params(40.0, 0.01, p_bad=0.7)
        rows = run_e2e_table(n=15, config_names=("DDR3-800",), frames=20,
                             channel=channel, seed=1)
        assert math.isinf(rows[0].result.gain)
        lines = format_e2e_table(rows).splitlines()
        assert "inf" in lines[1]

    def test_invalid_geometry_raises(self):
        # T(16) = 136 symbols x 4 does not hold whole 96-symbol groups.
        with pytest.raises(ValueError, match="whole number"):
            run_e2e_table(n=16, config_names=("DDR3-800",), frames=2)

    def test_rows_wrap_e2e_results(self):
        rows = run_e2e_table(n=15, config_names=("DDR4-3200",), frames=3)
        for row in rows:
            assert isinstance(row, E2ERow)
            assert row.result == run_e2e(row.result.cell)
