"""Chunked request intake, intake validation and clock quantization.

Covers the three controller-facing behaviors added by the batched
request-stream pipeline:

* columnar array chunks schedule identically to tuple iterables,
* bank indices are validated at intake with a descriptive error,
* command issue times land on the command-clock grid exactly when the
  grid is representable on the integer-picosecond timeline.
"""

import random

import numpy as np
import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, SchedulingEngine, TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.presets import get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping


@pytest.fixture
def policy():
    return ControllerConfig(refresh_enabled=False, record_commands=True)


def chunked(requests, chunk_size):
    """Cut a tuple list into columnar numpy chunks."""
    for start in range(0, len(requests), chunk_size):
        part = requests[start:start + chunk_size]
        yield (
            np.asarray([r[0] for r in part], dtype=np.int64),
            np.asarray([r[1] for r in part], dtype=np.int64),
            np.asarray([r[2] for r in part], dtype=np.int64),
        )


def random_requests(n_banks, count, seed=11):
    rng = random.Random(seed)
    return [(rng.randrange(n_banks), rng.randrange(32), rng.randrange(8))
            for _ in range(count)]


class TestChunkedIntake:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 5000])
    @pytest.mark.parametrize("op", [OP_READ, OP_WRITE])
    def test_identical_to_tuple_path(self, tiny_config, policy, chunk_size, op):
        requests = random_requests(tiny_config.geometry.banks, 600)
        tuples = KernelEngine(tiny_config, policy).run(
            TupleSource(list(requests)), op)
        chunks = KernelEngine(tiny_config, policy).run(
            ChunkSource(chunked(requests, chunk_size)), op)
        assert tuples.stats == chunks.stats
        assert tuples.commands == chunks.commands

    def test_identical_with_refresh(self, tiny_config):
        policy = ControllerConfig(record_commands=True)
        requests = random_requests(tiny_config.geometry.banks, 4000, seed=3)
        tuples = KernelEngine(tiny_config, policy).run(
            TupleSource(list(requests)), OP_READ)
        chunks = KernelEngine(tiny_config, policy).run(
            ChunkSource(chunked(requests, 512)), OP_READ)
        assert tuples.stats.refreshes > 0
        assert tuples.stats == chunks.stats

    def test_plain_sequences_accepted(self, tiny_config, policy):
        requests = [(0, 1, 2), (1, 1, 2), (2, 3, 4)]
        as_lists = [([r[0] for r in requests],
                     [r[1] for r in requests],
                     [r[2] for r in requests])]
        tuples = KernelEngine(tiny_config, policy).run(
            TupleSource(requests), OP_READ)
        lists = KernelEngine(tiny_config, policy).run(
            ChunkSource(as_lists), OP_READ)
        assert tuples.stats == lists.stats

    def test_empty_chunks_skipped(self, tiny_config, policy):
        empty = np.empty(0, dtype=np.int64)
        stream = [(empty, empty, empty),
                  (np.asarray([0]), np.asarray([5]), np.asarray([1])),
                  (empty, empty, empty)]
        result = KernelEngine(tiny_config, policy).run(
            ChunkSource(stream), OP_READ)
        assert result.stats.requests == 1

    def test_empty_stream(self, tiny_config, policy):
        stats = KernelEngine(tiny_config, policy).run(
            ChunkSource(iter([])), OP_READ).stats
        assert stats.requests == 0
        assert stats.utilization == 0.0

    def test_mismatched_columns_rejected(self, tiny_config, policy):
        stream = [(np.asarray([0, 1]), np.asarray([0]), np.asarray([0, 1]))]
        with pytest.raises(ValueError, match="disagree in length"):
            KernelEngine(tiny_config, policy).run(ChunkSource(stream), OP_READ)


def _run_controller(config, policy, source):
    return KernelEngine(config, policy).run(source, OP_READ)


def _run_general(config, policy, source):
    return SchedulingEngine(config, policy).run(source, OP_READ)


#: The scheduler's front door and the general engine it falls back to.
SCHEDULERS = {"controller": _run_controller, "general": _run_general}


class TestBankValidation:
    def test_tuple_path_rejects_high_bank(self, tiny_config, policy):
        banks = tiny_config.geometry.banks
        with pytest.raises(ValueError, match=rf"request #1 \(bank={banks}, row=7, "
                                             rf"column=3\)"):
            KernelEngine(tiny_config, policy).run(
                TupleSource([(0, 0, 0), (banks, 7, 3)]), OP_READ)

    def test_tuple_path_rejects_negative_bank(self, tiny_config, policy):
        with pytest.raises(ValueError, match="bank out of range"):
            KernelEngine(tiny_config, policy).run(
                TupleSource([(-1, 0, 0)]), OP_READ)

    def test_chunk_path_rejects_bad_bank(self, tiny_config, policy):
        banks = tiny_config.geometry.banks
        stream = [(np.asarray([0, 1, banks]), np.asarray([0, 1, 2]),
                   np.asarray([0, 0, 0]))]
        with pytest.raises(ValueError, match=r"request #2 .*bank out of range"):
            KernelEngine(tiny_config, policy).run(ChunkSource(stream), OP_READ)

    def test_chunk_path_counts_across_chunks(self, tiny_config, policy):
        good = (np.asarray([0, 1]), np.asarray([0, 0]), np.asarray([0, 1]))
        bad = (np.asarray([0, -2]), np.asarray([0, 0]), np.asarray([0, 0]))
        with pytest.raises(ValueError, match=r"request #3 \(bank=-2"):
            KernelEngine(tiny_config, policy).run(
                ChunkSource([good, bad]), OP_READ)

    @pytest.mark.parametrize("run", SCHEDULERS.values(), ids=SCHEDULERS)
    def test_tuple_path_rejects_negative_row(self, tiny_config, policy, run):
        with pytest.raises(ValueError, match=r"^request #1 \(bank=1, row=-1, "
                                             r"column=2\): row must be >= 0$"):
            run(tiny_config, policy,
                TupleSource([(0, 0, 0), (1, -1, 2), (2, 3, 0)]))

    @pytest.mark.parametrize("chunk_size", [7, 100])
    @pytest.mark.parametrize("run", SCHEDULERS.values(), ids=SCHEDULERS)
    def test_chunk_path_rejects_negative_row(self, tiny_config, policy, run,
                                             chunk_size):
        """Small chunks partition per element, large ones in bulk."""
        requests = [(k % 4, 0, k % 8) for k in range(80)]
        requests[75] = (2, -3, 4)
        with pytest.raises(ValueError, match=r"^request #75 \(bank=2, row=-3, "
                                             r"column=4\): row must be >= 0$"):
            run(tiny_config, policy,
                ChunkSource(chunked(requests, chunk_size)))

    @pytest.mark.parametrize("shape", ["tuples", "chunk"])
    @pytest.mark.parametrize("run", SCHEDULERS.values(), ids=SCHEDULERS)
    def test_first_bad_request_reported_bank_first(self, tiny_config, policy,
                                                   run, shape):
        banks = tiny_config.geometry.banks
        requests = [(0, 0, 0)] * 70 + [(banks, -1, 0), (0, -1, 0)]

        def stream(requests):
            return (TupleSource(list(requests)) if shape == "tuples"
                    else ChunkSource(chunked(requests, 100)))

        with pytest.raises(ValueError, match=r"request #70 .*bank out of range"):
            run(tiny_config, policy, stream(requests))
        requests[70] = (0, 0, 0)
        with pytest.raises(ValueError, match=r"request #71 .*row must be >= 0"):
            run(tiny_config, policy, stream(requests))

    def test_valid_banks_pass(self, tiny_config, policy):
        banks = tiny_config.geometry.banks
        requests = [(b, 0, 0) for b in range(banks)]
        result = KernelEngine(tiny_config, policy).run(
            TupleSource(requests), OP_READ)
        assert result.stats.requests == banks


class TestClockQuantization:
    """The docstring contract: issue slots quantize to the command clock
    whenever the clock is exact in integer picoseconds."""

    EXACT = ("DDR3-800", "DDR3-1600", "DDR4-1600", "DDR4-3200", "DDR5-3200")
    INEXACT = ("DDR5-6400", "LPDDR4-2133", "LPDDR4-4266",
               "LPDDR5-4267", "LPDDR5-8533")

    @staticmethod
    def _commands_for(config_name):
        config = get_config(config_name)
        space = TriangularIndexSpace(48)
        mapping = OptimizedMapping(space, config.geometry)
        engine = KernelEngine(config, ControllerConfig(record_commands=True))
        return config, engine.run(TupleSource(mapping.read_addresses()),
                                  OP_READ).commands

    @pytest.mark.parametrize("config_name", EXACT)
    def test_exact_grids_quantize(self, config_name):
        config, commands = self._commands_for(config_name)
        tck = config.timing.tck
        assert config.burst_duration_ps % tck == 0  # grid is representable
        assert commands, "phase must issue commands"
        off_grid = [c for c in commands if c.time_ps % tck]
        assert off_grid == []

    @pytest.mark.parametrize("config_name", INEXACT)
    def test_inexact_grids_stay_continuous(self, config_name):
        """These grades' clock period is not an integer picosecond count;
        quantizing to the rounded grid would open a phantom gap between
        seamless bursts, so the simulator keeps continuous slots."""
        config, _commands = self._commands_for(config_name)
        assert config.burst_duration_ps % config.timing.tck != 0

    def test_quantization_defers_early_cas(self):
        """A CAS whose constraints land off-grid must move to the next
        clock edge, never an earlier one."""
        config = get_config("DDR4-3200")
        tck = config.timing.tck
        engine = KernelEngine(
            config, ControllerConfig(refresh_enabled=False, record_commands=True))
        result = engine.run(TupleSource([(0, 0, 0), (0, 0, 1)]), OP_READ)
        cas = [c for c in result.commands if c.command.value == "RD"]
        raw_first = config.timing.trcd
        assert cas[0].time_ps >= raw_first
        assert cas[0].time_ps - raw_first < tck

    def test_seamless_streams_not_slowed_on_inexact_grid(self):
        """Pinning the choice: on LPDDR4-4266 (inexact grid) a page-hit
        stream alternating banks stays seamless — utilization above 95 %,
        which the rounded grid would destroy."""
        config = get_config("LPDDR4-4266")
        requests = [(b, 0, c) for _ in range(40) for c in range(8)
                    for b in range(2)]
        stats = KernelEngine(
            config, ControllerConfig(refresh_enabled=False)).run(
                TupleSource(requests), OP_READ).stats
        assert stats.utilization > 0.95
