"""E8 (extension) — the energy argument of Sec. I.

"This leads to higher costs and additional energy consumption": the
row-major mapping pays the row-activation energy on nearly every read
access, and its longer makespan accrues more background energy.
Quantified as pJ/bit for both mappings on every configuration family.
"""

import time

import pytest

from oracles.energy import energy_from_commands_reference
from repro.dram.controller import OP_READ, ControllerConfig
from repro.dram.energy import (
    combine_interleaver_reports,
    command_arrays,
    energy_from_commands,
    energy_from_stats,
    energy_from_tally,
)
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_interleaver, simulate_phase
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

CONFIGS = ("DDR3-1600", "DDR4-3200", "DDR5-6400", "LPDDR4-4266", "LPDDR5-8533")

#: The vectorized command recount must beat the scalar per-command
#: loop by at least this factor on a full recorded phase (measured
#: ~40x; the threshold leaves a wide margin for noisy hosts).
REQUIRED_RECOUNT_SPEEDUP = 2.0


@pytest.mark.paper_artifact("Sec. I energy argument")
@pytest.mark.parametrize("config_name", CONFIGS)
def test_energy_per_bit(benchmark, config_name, bench_triangle_n):
    config = get_config(config_name)
    space = TriangularIndexSpace(bench_triangle_n)

    def run():
        out = {}
        for mapping in (RowMajorMapping(space, config.geometry),
                        OptimizedMapping(space, config.geometry, prefer_tall=False)):
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


@pytest.mark.paper_artifact("Sec. I energy argument (accounting hot path)")
def test_energy_recount_vectorized_speedup(benchmark):
    """Vectorized command recount vs the scalar per-command oracle.

    One recorded DDR4-3200 read phase (~10k commands) is recounted by
    :func:`energy_from_commands` on prebuilt command arrays and by the
    pure-Python :func:`energy_from_commands_reference`; the reports
    must be exactly equal — to each other and to the engine's zero-cost
    tally — and the vectorized path must hold its pinned speedup.
    Both sides score their best of three rounds, so a background-load
    spike on one side cannot flake the assertion.
    """
    config = get_config("DDR4-3200")
    space = TriangularIndexSpace(128)
    mapping = OptimizedMapping(space, config.geometry, prefer_tall=False)
    result = simulate_phase(config, mapping, OP_READ,
                            ControllerConfig(record_commands=True))
    commands = result.commands
    arrays = command_arrays(commands)

    def vectorized():
        return energy_from_commands(config, arrays)

    # Wall-clock alongside pedantic: benchmark.stats is unavailable
    # under --benchmark-disable (the CI smoke run), a plain timer
    # always is.
    vec_report = benchmark.pedantic(vectorized, rounds=3, iterations=1)
    vec_seconds = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        vectorized()
        vec_seconds = min(vec_seconds, time.perf_counter() - t0)

    scalar_seconds = float("inf")
    for _ in range(3):
        t1 = time.perf_counter()
        scalar_report = energy_from_commands_reference(config, commands)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - t1)

    assert vec_report == scalar_report
    assert vec_report == energy_from_tally(config, result.stats.energy_tally)
    speedup = scalar_seconds / vec_seconds
    benchmark.extra_info["commands"] = len(commands)
    benchmark.extra_info["scalar_ms"] = round(scalar_seconds * 1e3, 3)
    benchmark.extra_info["vectorized_ms"] = round(vec_seconds * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= REQUIRED_RECOUNT_SPEEDUP, (
        f"vectorized energy recount only {speedup:.2f}x faster than the "
        f"scalar loop (required {REQUIRED_RECOUNT_SPEEDUP}x)"
    )
