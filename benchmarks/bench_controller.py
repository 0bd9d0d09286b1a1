"""Controller-engine benchmark: kernel vs engine vs the frozen seed.

Times the full Table I phase workload (all ten configurations, both
mappings, both phases, n=512, vectorized address chunks) through three
arbiters: the event-wheel batch-advance kernel
(:mod:`repro.dram.kernel`), the unified scheduling engine
(:mod:`repro.dram.engine`) and the frozen pre-engine scheduler
(``tests/oracles/scheduler.py``).  All three must be bit-identical; the
engine must beat the seed and the kernel must beat the engine by the
pinned factors below.  A small mixed-traffic cell times the turnaround
rule set through the shared engine core.

Timing protocol: each comparison runs one untimed warmup round, then
three timed rounds with the contenders interleaved inside every round,
and scores each side's best round — a background load burst then hits
all sides of the round it lands in instead of biasing one contender.
"""

import math
import time

import pytest

from oracles.scheduler import reference_run_phase
from repro.dram import _kernelc
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, SchedulingEngine
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import steady_state_interleaver
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

#: The engine must beat the seed scheduler by at least this factor on
#: the Table I phase workload (measured ~1.4x on an idle core; the
#: threshold leaves headroom for noisy hosts).
REQUIRED_SPEEDUP = 1.3

#: The compiled batch-advance kernel must beat the general engine by at
#: least this factor on the same workload (measured ~10x on an idle
#: core; the threshold leaves wide headroom for noisy hosts).
KERNEL_REQUIRED_SPEEDUP = 3.0

#: Timed rounds per comparison, after one untimed warmup round.
ROUNDS = 3

N = 512


def _phase_grid():
    for config_name in TABLE1_CONFIG_NAMES:
        config = get_config(config_name)
        space = TriangularIndexSpace(N)
        for mapping in (RowMajorMapping(space, config.geometry),
                        OptimizedMapping(space, config.geometry)):
            for op in (OP_WRITE, OP_READ):
                yield config, mapping, op


def _chunks(mapping, op):
    return (mapping.write_addresses_array() if op == OP_WRITE
            else mapping.read_addresses_array())


def _engine_grid():
    return [
        SchedulingEngine(config, ControllerConfig())
        .run(ChunkSource(_chunks(mapping, op)), op).stats
        for config, mapping, op in _phase_grid()
    ]


def _kernel_grid():
    return [
        KernelEngine(config, ControllerConfig())
        .run(ChunkSource(_chunks(mapping, op)), op).stats
        for config, mapping, op in _phase_grid()
    ]


def _seed_grid():
    return [
        reference_run_phase(config, _chunks(mapping, op), op,
                            ControllerConfig()).stats
        for config, mapping, op in _phase_grid()
    ]


def _interleaved_best(sides, rounds=ROUNDS):
    """Best wall-clock per side: warmup round, then interleaved rounds.

    Every timed round runs all ``sides`` back to back (same order), so
    transient host noise degrades whole rounds rather than single
    contenders, and the best round per side discards it.  Wall-clock is
    measured with a plain timer because ``benchmark.stats`` is
    unavailable under ``--benchmark-disable`` (the CI smoke run).
    """
    for fn in sides:
        fn()  # warmup: page caches, allocator pools, lazy imports
    best = [math.inf] * len(sides)
    for _ in range(rounds):
        for k, fn in enumerate(sides):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


@pytest.mark.paper_artifact("Table I (scheduling engine)")
def test_engine_vs_seed_scheduler_speedup(benchmark):
    """Wall-clock of every Table I phase, engine vs frozen seed.

    Both sides consume identical columnar address chunks, so the
    comparison isolates the scheduler loop itself.  The wall-clocks and
    speedup land in ``extra_info``; results must be bit-identical.
    """
    engine_stats = benchmark.pedantic(_engine_grid, rounds=1, iterations=1)
    seed_stats = _seed_grid()
    assert engine_stats == seed_stats  # bit-identical before it may be faster

    benchmark.extra_info["phases"] = 40
    benchmark.extra_info["requests_per_phase"] = TriangularIndexSpace(N).num_elements
    if benchmark.disabled:  # smoke runs only check for rot, not timing
        return

    engine_seconds, seed_seconds = _interleaved_best((_engine_grid, _seed_grid))
    speedup = seed_seconds / engine_seconds
    benchmark.extra_info["engine_s"] = round(engine_seconds, 2)
    benchmark.extra_info["seed_scheduler_s"] = round(seed_seconds, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup > REQUIRED_SPEEDUP


@pytest.mark.paper_artifact("Table I (batch-advance kernel)")
def test_kernel_vs_engine_speedup(benchmark):
    """Wall-clock of every Table I phase, batch-advance kernel vs engine.

    The kernel (the scheduler's front door) must be bit-identical to
    the general engine (a ``SchedulingEngine`` run directly) on the
    full grid and — with
    the compiled backend available — at least
    ``KERNEL_REQUIRED_SPEEDUP`` times faster.  Without a toolchain the
    kernel delegates to the general engine, so only the identity
    applies there.
    """
    kernel_stats = benchmark.pedantic(_kernel_grid, rounds=1, iterations=1)
    engine_stats = _engine_grid()
    assert kernel_stats == engine_stats  # bit-identical before it may be faster

    benchmark.extra_info["phases"] = 40
    benchmark.extra_info["requests_per_phase"] = TriangularIndexSpace(N).num_elements
    benchmark.extra_info["native_backend"] = _kernelc.available()
    if benchmark.disabled:  # smoke runs only check for rot, not timing
        return
    if not _kernelc.available():
        pytest.skip("compiled kernel backend unavailable on this host")

    engine_seconds, kernel_seconds = _interleaved_best((_engine_grid, _kernel_grid))
    speedup = engine_seconds / kernel_seconds
    benchmark.extra_info["engine_s"] = round(engine_seconds, 2)
    benchmark.extra_info["kernel_s"] = round(kernel_seconds, 2)
    benchmark.extra_info["kernel_speedup"] = round(speedup, 2)
    assert speedup >= KERNEL_REQUIRED_SPEEDUP


@pytest.mark.paper_artifact("steady-state mixed traffic")
def test_mixed_steady_state_cell(benchmark):
    """One steady-state interleaved read/write cell through the engine.

    Pins the mixed path of the unified core into the benchmark suite:
    utilization, turnaround count and the per-direction split land in
    ``extra_info``.
    """
    config = get_config("DDR4-3200")
    mapping = OptimizedMapping(TriangularIndexSpace(192), config.geometry)

    result = benchmark.pedantic(
        steady_state_interleaver,
        args=(config, mapping),
        kwargs={"group": 16},
        rounds=1,
        iterations=1,
    )

    benchmark.extra_info["utilization_pct"] = round(result.utilization * 100, 2)
    benchmark.extra_info["reads"] = result.reads
    benchmark.extra_info["writes"] = result.writes
    benchmark.extra_info["turnarounds"] = result.turnarounds
    assert result.reads == result.writes == mapping.space.num_elements
    assert 0.0 < result.utilization <= 1.0
