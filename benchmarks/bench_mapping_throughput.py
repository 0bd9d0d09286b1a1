"""Mechanical performance of the Python hot paths.

Not a paper artifact — tracks the speed of the address computation and
the controller inner loop so regressions in the simulator itself are
visible in CI history.
"""

import pytest

from repro.dram.controller import OP_WRITE, ControllerConfig
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_phase
from repro.interleaver.block import TriangularInterleaver
from repro.interleaver.stream import sequential_symbols
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping


@pytest.fixture(scope="module")
def ddr4():
    return get_config("DDR4-3200")


class TestAddressComputation:
    def test_optimized_address_tuple(self, benchmark, ddr4):
        mapping = OptimizedMapping(TriangularIndexSpace(512), ddr4.geometry)
        cells = [(i, j) for i in range(0, 512, 7) for j in range(0, 512 - i, 7)]

        def run():
            address_tuple = mapping.address_tuple
            for i, j in cells:
                address_tuple(i, j)

        benchmark(run)
        benchmark.extra_info["addresses"] = len(cells)

    def test_row_major_address_tuple(self, benchmark, ddr4):
        mapping = RowMajorMapping(TriangularIndexSpace(512), ddr4.geometry)
        cells = [(i, j) for i in range(0, 512, 7) for j in range(0, 512 - i, 7)]

        def run():
            address_tuple = mapping.address_tuple
            for i, j in cells:
                address_tuple(i, j)

        benchmark(run)

    def test_write_sequence_generation(self, benchmark, ddr4):
        mapping = OptimizedMapping(TriangularIndexSpace(256), ddr4.geometry)
        count = benchmark(lambda: sum(1 for _ in mapping.write_addresses()))
        assert count == mapping.space.num_elements


class TestControllerThroughput:
    def test_controller_requests_per_second(self, benchmark, ddr4):
        space = TriangularIndexSpace(128)
        mapping = OptimizedMapping(space, ddr4.geometry)

        def run():
            return simulate_phase(ddr4, mapping, OP_WRITE).stats

        stats = benchmark(run)
        benchmark.extra_info["requests"] = stats.requests

    def test_controller_streaming_hits(self, benchmark, ddr4):
        requests = [(i % 16, 0, (i // 16) % 128) for i in range(10_000)]

        def run():
            engine = KernelEngine(ddr4, ControllerConfig(refresh_enabled=False))
            return engine.run(TupleSource(list(requests)), OP_WRITE)

        result = benchmark(run)
        assert result.stats.requests == 10_000


class TestFunctionalInterleaver:
    def test_numpy_permutation_throughput(self, benchmark):
        interleaver = TriangularInterleaver(512)
        frame = sequential_symbols(interleaver.frame_symbols)
        out = benchmark(interleaver.interleave, frame)
        assert out.size == frame.size
