"""E9 (extension) — steady-state mixed traffic vs. the per-phase model.

The paper evaluates write and read phases separately and takes the
minimum.  This bench simulates the alternative: one device serving both
streams interleaved (write frame k+1 / read frame k) at several block
granularities, charging the bus-turnaround penalties (tRTW, tWTR).
Fine-grained interleaving loses 30-50 % to turnarounds; block sizes of
a few hundred bursts recover the per-phase value — quantitative support
for the paper's block-alternating operating model.
"""

import pytest

from repro.dram.mixed import steady_state_interleaver
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_interleaver
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping

CONFIGS = ("DDR4-3200", "LPDDR4-4266")
GROUPS = (1, 16, 256)


@pytest.mark.paper_artifact("per-phase methodology validation")
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("group", GROUPS)
def test_steady_state_utilization(benchmark, config_name, group):
    config = get_config(config_name)
    mapping = OptimizedMapping(TriangularIndexSpace(192), config.geometry)

    result = benchmark.pedantic(
        steady_state_interleaver, args=(config, mapping, group),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["utilization_pct"] = round(result.utilization * 100, 2)
    benchmark.extra_info["turnarounds"] = result.turnarounds
    assert 0.0 < result.utilization <= 1.0


@pytest.mark.paper_artifact("per-phase methodology validation (trend)")
@pytest.mark.parametrize("config_name", CONFIGS)
def test_block_size_recovers_phase_separated_value(benchmark, config_name):
    config = get_config(config_name)
    mapping = OptimizedMapping(TriangularIndexSpace(192), config.geometry)

    def run():
        fine = steady_state_interleaver(config, mapping, group=1)
        coarse = steady_state_interleaver(config, mapping, group=256)
        reference = simulate_interleaver(config, mapping)
        return fine, coarse, reference

    fine, coarse, reference = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["fine_pct"] = round(fine.utilization * 100, 2)
    benchmark.extra_info["coarse_pct"] = round(coarse.utilization * 100, 2)
    benchmark.extra_info["phase_min_pct"] = round(reference.min_utilization * 100, 2)
    assert fine.utilization < coarse.utilization
    assert coarse.utilization > 0.75 * reference.min_utilization
