"""E8 (extension) — the energy argument of Sec. I.

"This leads to higher costs and additional energy consumption": the
row-major mapping pays the row-activation energy on nearly every read
access, and its longer makespan accrues more background energy.
Quantified as pJ/bit for both mappings on every configuration family.
"""

import pytest

from repro.dram.energy import combine_interleaver_reports, energy_from_stats
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_interleaver
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

CONFIGS = ("DDR3-1600", "DDR4-3200", "DDR5-6400", "LPDDR4-4266", "LPDDR5-8533")


@pytest.mark.paper_artifact("Sec. I energy argument")
@pytest.mark.parametrize("config_name", CONFIGS)
def test_energy_per_bit(benchmark, config_name, bench_triangle_n):
    config = get_config(config_name)
    space = TriangularIndexSpace(bench_triangle_n)

    def run():
        out = {}
        for mapping in (RowMajorMapping(space, config.geometry),
                        OptimizedMapping(space, config.geometry)):
            result = simulate_interleaver(config, mapping)
            out[mapping.name] = combine_interleaver_reports(
                energy_from_stats(config, result.write),
                energy_from_stats(config, result.read))
        return out

    energies = benchmark.pedantic(run, rounds=1, iterations=1)
    rm = energies["row-major"]
    opt = energies["optimized"]
    benchmark.extra_info["rm_pj_per_bit"] = round(rm.pj_per_bit, 2)
    benchmark.extra_info["opt_pj_per_bit"] = round(opt.pj_per_bit, 2)
    benchmark.extra_info["rm_activation_share"] = round(rm.activation_share, 3)
    benchmark.extra_info["opt_activation_share"] = round(opt.activation_share, 3)
    # Finding (documented in EXPERIMENTS.md): the optimized mapping
    # saves energy wherever the row-major read collapses (DDR3, DDR4,
    # LPDDR4 — fewer total activations AND a shorter makespan), but on
    # DDR5-class devices its short page runs (bursts_per_page/banks = 2)
    # cost extra activations, bounding the overhead at ~25 %.
    assert opt.pj_per_bit <= rm.pj_per_bit * 1.3
    if config_name in ("DDR3-1600", "LPDDR4-4266"):
        assert opt.pj_per_bit < rm.pj_per_bit
