"""Address-pipeline chunk sizing: throughput vs in-flight byte budget.

The vectorized address pipeline batches its work into columnar chunks
sized by a byte budget (default 6 MiB — see
:data:`repro.interleaver.triangular.DEFAULT_CHUNK_BYTES`), handed to the
address iterators as ``budget // CELL_BYTES`` cells.  Too small a
budget drowns the pipeline in per-chunk Python/NumPy call overhead; too
large a budget spills the working set out of cache and grows the
footprint without gaining anything.  This benchmark drains the full
write+read pipeline of one paper-scale mapping across a geometric sweep
of budgets and asserts the default sits on the flat part of the curve:
no sweep point may beat it by more than ``FLATNESS_FACTOR``.
"""

import time

import pytest

from repro.dram.presets import get_config
from repro.interleaver.triangular import (
    CELL_BYTES,
    DEFAULT_CHUNK_BYTES,
    TriangularIndexSpace,
)
from repro.mapping.optimized import OptimizedMapping

#: The default budget must be within this factor of the sweep's best
#: point (generous: the curve is flat over an order of magnitude, but
#: shared CI hosts are noisy).
FLATNESS_FACTOR = 1.5

#: Byte budgets swept, default included: 1/256x .. 16x around 6 MiB.
BUDGETS = tuple(DEFAULT_CHUNK_BYTES * k // 256 for k in (1, 16, 64)) + (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_CHUNK_BYTES * 4,
    DEFAULT_CHUNK_BYTES * 16,
)

N = 2048


def _drain(mapping, budget):
    """Consume both pipeline directions; return (bursts, checksum)."""
    cells = budget // CELL_BYTES
    bursts = 0
    checksum = 0
    for stream in (mapping.write_addresses_array(cells),
                   mapping.read_addresses_array(cells)):
        for banks, rows, columns in stream:
            bursts += int(banks.shape[0])
            checksum += int(banks.sum()) + int(rows.sum()) + int(columns.sum())
    return bursts, checksum


@pytest.mark.paper_artifact("address pipeline (chunk sizing)")
def test_default_chunk_bytes_on_flat_part_of_curve(benchmark):
    """Sweep the budget, pin the default onto the curve's flat region.

    Every sweep point must drain the identical burst set (count and
    checksum pinned) — granularity changes batching, never content.
    Per-budget wall-clocks land in ``extra_info``; under
    ``--benchmark-disable`` (CI smoke) only the content check runs.
    """
    config = get_config("DDR4-3200")
    mapping = OptimizedMapping(TriangularIndexSpace(N), config.geometry)

    expected = benchmark.pedantic(_drain, args=(mapping, DEFAULT_CHUNK_BYTES),
                                  rounds=1, iterations=1)
    assert expected[0] == mapping.space.num_elements * 2

    benchmark.extra_info["default_chunk_bytes"] = DEFAULT_CHUNK_BYTES
    benchmark.extra_info["bursts"] = expected[0]
    if benchmark.disabled:  # smoke runs only check for rot, not timing
        return

    seconds = {}
    for budget in BUDGETS:
        _drain(mapping, budget)  # warmup this working-set size
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            result = _drain(mapping, budget)
            best = min(best, time.perf_counter() - t0)
        assert result == expected  # identical bursts at every granularity
        seconds[budget] = best
        benchmark.extra_info[f"drain_s_at_{budget // 1024}KiB"] = round(best, 3)

    fastest = min(seconds.values())
    default_seconds = seconds[DEFAULT_CHUNK_BYTES]
    benchmark.extra_info["default_vs_best"] = round(default_seconds / fastest, 3)
    assert default_seconds <= fastest * FLATNESS_FACTOR
