"""WorkloadSource intake contract and trace replay through the engine."""

import io

import numpy as np
import pytest

from repro.dram.commands import CommandType
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import (
    ChunkSource,
    MixedSource,
    SchedulingEngine,
    TraceReplaySource,
    TupleSource,
    WorkloadSource,
)
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import run_mixed_phase
from repro.dram.trace import check_phase_commands, read_trace, write_trace


class TestSources:
    def test_empty_stream(self, tiny_config):
        policy = ControllerConfig()
        for engine in (KernelEngine, SchedulingEngine):
            for source in (TupleSource, ChunkSource):
                stats = engine(tiny_config, policy).run(source(iter(()))).stats
                assert stats.requests == 0

    def test_ready_made_source_runs_unchanged(self, tiny_config):
        """The front door schedules the source it is handed: a mixed
        source keeps its per-request directions."""
        source = MixedSource([(True, 0, 0, 0), (False, 1, 0, 0)])
        result = KernelEngine(tiny_config, ControllerConfig()).run(source)
        assert (result.reads, result.writes) == (1, 1)

    def test_sources_are_workload_sources(self):
        for cls in (TupleSource, ChunkSource, MixedSource, TraceReplaySource):
            assert issubclass(cls, WorkloadSource)

    def test_direction_flag_follows_the_shape(self):
        """Tuple and chunk streams run in the phase's one direction;
        mixed and replayed streams carry a direction per request."""
        assert not TupleSource([]).mixed
        assert not ChunkSource([]).mixed
        assert MixedSource([]).mixed
        assert TraceReplaySource([]).mixed

    def test_chunk_source_passes_chunks_through(self):
        chunk = (np.asarray([0, 1]), np.asarray([2, 3]), np.asarray([4, 5]))
        (banks, rows, cols, directions), = ChunkSource([chunk]).batches()
        assert banks is chunk[0] and rows is chunk[1] and cols is chunk[2]
        assert directions is None

    def test_tuple_batches_concatenate_to_the_stream(self):
        requests = [(k % 4, k % 5, k % 8) for k in range(2500)]
        batches = list(TupleSource(iter(requests)).batches())
        assert len(batches) > 1
        assert all(directions is None for *_, directions in batches)
        columns = [[value for batch in batches for value in batch[i]]
                   for i in range(3)]
        assert list(zip(*columns)) == requests

    @pytest.mark.parametrize("engine", (KernelEngine, SchedulingEngine))
    def test_plain_list_chunks_schedule_as_arrays(self, tiny_config, engine):
        """A chunk's columns may be plain lists: intake converts them,
        and the schedule is the one of their int64-array twin."""
        requests = [(k % 4, (k // 3) % 6, k % 8) for k in range(500)]
        lists = tuple(list(column) for column in zip(*requests))
        arrays = tuple(np.asarray(column, dtype=np.int64) for column in lists)
        policy = ControllerConfig(record_commands=True)
        from_lists = engine(tiny_config, policy).run(
            ChunkSource([lists]), OP_WRITE)
        from_arrays = engine(tiny_config, policy).run(
            ChunkSource([arrays]), OP_WRITE)
        assert from_lists.stats.requests == len(requests)
        assert from_lists == from_arrays


class TestSourceEquivalence:
    def test_tuple_source_equals_raw_iterable(self, tiny_config):
        requests = [(k % 4, k % 5, k % 8) for k in range(300)]
        policy = ControllerConfig(record_commands=True)
        direct = KernelEngine(tiny_config, policy).run(
            TupleSource(list(requests)), OP_READ)
        explicit = SchedulingEngine(tiny_config, policy).run(
            TupleSource(iter(requests)), op=OP_READ)
        assert direct.stats == explicit.stats
        assert direct.commands == explicit.commands

    def test_mixed_source_accepts_generator(self, tiny_config):
        requests = [(k % 2 == 0, k % 4, 0, k % 8) for k in range(200)]
        from_list = run_mixed_phase(tiny_config, list(requests))
        from_generator = run_mixed_phase(tiny_config, iter(requests))
        assert from_list == from_generator

    def test_batch_boundaries_invisible(self, tiny_config):
        """A stream longer than the internal batching must schedule
        identically to a short one concatenated from the same data."""
        requests = [(k % 4, (k // 7) % 6, k % 8) for k in range(3000)]
        policy = ControllerConfig(record_commands=True)
        whole = KernelEngine(tiny_config, policy).run(
            TupleSource(iter(requests)), OP_WRITE)
        again = KernelEngine(tiny_config, policy).run(
            TupleSource(list(requests)), OP_WRITE)
        assert whole.stats == again.stats


class TestTraceReplay:
    def _recorded(self, config, op=OP_READ):
        requests = [(k % config.geometry.banks, (k // 11) % 4, k % 8)
                    for k in range(400)]
        policy = ControllerConfig(record_commands=True, refresh_enabled=False)
        return KernelEngine(config, policy).run(TupleSource(requests), op)

    @staticmethod
    def _columns(commands):
        """Bank, row, column and direction columns replay presents, joined."""
        batches = list(TraceReplaySource(commands).batches())
        return [[value for batch in batches for value in batch[k]]
                for k in range(4)]

    def test_replay_preserves_cas_sequence(self, tiny_config):
        result = self._recorded(tiny_config)
        cas = [c for c in sorted(result.commands, key=lambda c: c.time_ps)
               if c.command in (CommandType.RD, CommandType.WR)]
        banks, rows, columns, reads = self._columns(result.commands)
        assert banks == [c.bank for c in cas]
        assert rows == [c.row for c in cas]
        assert columns == [c.column for c in cas]
        assert reads == [c.command is CommandType.RD for c in cas]

    def test_replay_schedules_and_passes_checker(self, tiny_config):
        result = self._recorded(tiny_config)
        engine = SchedulingEngine(
            tiny_config, ControllerConfig(record_commands=True,
                                          refresh_enabled=False))
        replay = engine.run(TraceReplaySource(result.commands))
        assert replay.stats.requests == result.stats.requests
        assert replay.reads == result.stats.requests  # all-read trace
        assert check_phase_commands(tiny_config, replay.commands) == []

    def test_replay_under_different_policy_stays_legal(self, tiny_config):
        """The point of replay: re-schedule a recorded stream under new
        controller parameters and re-verify it independently."""
        result = self._recorded(tiny_config, op=OP_WRITE)
        shallow = SchedulingEngine(
            tiny_config, ControllerConfig(queue_depth=2, per_bank_depth=1,
                                          record_commands=True,
                                          refresh_enabled=False))
        replay = shallow.run(TraceReplaySource(result.commands))
        assert replay.writes == result.stats.requests
        assert check_phase_commands(tiny_config, replay.commands) == []

    def test_file_round_trip_replay(self, tiny_config):
        """write_trace -> read_trace -> replay: the full trace pipeline."""
        result = self._recorded(tiny_config)
        buffer = io.StringIO()
        write_trace(result.commands, buffer)
        buffer.seek(0)
        loaded = read_trace(buffer)
        assert loaded == result.commands
        engine = SchedulingEngine(tiny_config,
                                  ControllerConfig(record_commands=True,
                                                   refresh_enabled=False))
        replay = engine.run(TraceReplaySource(loaded))
        assert replay.stats.requests == result.stats.requests
        assert check_phase_commands(tiny_config, replay.commands) == []

    def test_non_cas_commands_dropped(self, tiny_config):
        """ACT/PRE/REF are controller decisions; replay re-derives them."""
        result = self._recorded(tiny_config)
        banks = self._columns(result.commands)[0]
        assert len(banks) < len(result.commands)
        assert len(banks) == result.stats.requests


class TestHomogeneousCounters:
    def test_read_phase_fills_reads(self, tiny_config):
        requests = [(k % 4, 0, k % 8) for k in range(50)]
        result = SchedulingEngine(tiny_config, ControllerConfig()).run(
            TupleSource(requests), op=OP_READ)
        assert result.reads == result.stats.requests == 50
        assert result.writes == 0

    def test_write_phase_fills_writes(self, tiny_config):
        requests = [(k % 4, 0, k % 8) for k in range(50)]
        result = SchedulingEngine(tiny_config, ControllerConfig()).run(
            TupleSource(requests), op=OP_WRITE)
        assert result.writes == result.stats.requests == 50
        assert result.reads == 0


class TestLongStreams:
    def test_long_stream_memory_stays_bounded(self, tiny_config):
        """The queue columns compact as the stream drains: a 200k-burst
        generator must not be retained wholesale (the live window is
        queue depth + one intake batch).  Probed by sampling the
        allocated-block count from inside the stream — without
        compaction the retained sequence-number ints alone grow the
        count by ~160k blocks between the two samples."""
        import gc
        import sys

        samples = {}

        def generate():
            for k in range(200_000):
                if k in (20_000, 180_000):
                    gc.collect()
                    samples[k] = sys.getallocatedblocks()
                yield (k % 4, (k >> 2) % 8, k % 8)

        policy = ControllerConfig(refresh_enabled=False)
        stats = KernelEngine(tiny_config, policy).run(
            TupleSource(generate()), OP_READ).stats
        assert stats.requests == 200_000
        growth = samples[180_000] - samples[20_000]
        assert growth < 100_000

    def test_results_identical_across_compaction_boundary(self, tiny_config):
        """Compaction must be invisible: a stream long enough to trigger
        several compactions schedules identically to its chunked twin."""
        requests = [(k % 4, (k // 13) % 6, k % 8) for k in range(30_000)]
        policy = ControllerConfig(record_commands=False, refresh_enabled=False)
        tuples = KernelEngine(tiny_config, policy).run(
            TupleSource(iter(requests)), OP_READ).stats
        chunks = [(np.asarray([r[0] for r in requests], dtype=np.int64),
                   np.asarray([r[1] for r in requests], dtype=np.int64),
                   np.asarray([r[2] for r in requests], dtype=np.int64))]
        arrays = KernelEngine(tiny_config, policy).run(
            ChunkSource(iter(chunks)), OP_READ).stats
        assert tuples == arrays


class TestEngineValidation:
    def test_rejects_bad_op(self, tiny_config):
        engine = SchedulingEngine(tiny_config, ControllerConfig())
        with pytest.raises(ValueError, match="op must be"):
            engine.run(TupleSource([(0, 0, 0)]), op="RMW")

    def test_mixed_source_validates_banks(self, tiny_config):
        banks = tiny_config.geometry.banks
        with pytest.raises(ValueError, match=rf"request #1 \(bank={banks}"):
            run_mixed_phase(tiny_config, [(True, 0, 0, 0), (False, banks, 1, 2)])
