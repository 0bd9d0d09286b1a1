"""E9 (extension) — the end-to-end downlink -> DRAM co-simulation.

The paper's core claim joined up: channel-corrupted interleaved frames
drive the DRAM scheduling engine through the
:class:`~repro.system.e2e.FrameStreamSource` bridge, and one run yields
channel failure rates, DRAM utilization, per-frame latency percentiles
and frame energy per cell.  The benchmark times the batched bridge
(``run_batched`` channel + vectorized ``address_arrays`` streams)
against the per-frame scalar reference, and the DRAM phases on the
batch-advance kernel (CAS-time latency fold) against the general
engine (recorded-command latency scan).  Both bit-identity assertions
stay live even under ``--benchmark-disable`` — the CI smoke job runs
them on every push.
"""

import math
import time

import pytest

from oracles.e2e import run_dram_phase_reference, run_e2e_reference
from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import coherence_params
from repro.dram import _kernelc
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.interleaver.two_stage import TwoStageConfig
from repro.system.e2e import E2ECell, FrameStreamSource, _run_dram_phase, run_e2e
from repro.system.parallel import _task_mapping
from repro.system.sweep import format_e2e_table, run_e2e_table

#: The kernel DRAM phases must beat the general-engine phases (with
#: command recording, the pre-kernel e2e path) by at least this factor
#: in timed runs.
KERNEL_REQUIRED_SPEEDUP = 5.0

CELL = E2ECell(
    channel=coherence_params(60.0, 0.004, p_bad=0.7),
    interleaver=TwoStageConfig(triangle_n=32, symbols_per_element=4,
                               codeword_symbols=24),
    code=CodewordConfig(n_symbols=24, t_correctable=2),
    config_name="DDR4-3200",
    mapping="optimized",
    seed=2024,
    frames=40,
)


@pytest.mark.paper_artifact("end-to-end co-simulation (batched vs reference)")
def test_e2e_batched_vs_reference(benchmark):
    """Batched bridge vs per-frame scalar oracle on one joint cell.

    The DRAM scheduling loop dominates both paths, so the end-to-end
    speedup is modest compared to the channel-only 5x+
    (``bench_campaign.py``) — what this benchmark pins is *exact
    equality* of the two joint results, the live form of the
    differential battery in ``tests/system/test_e2e.py``.
    """
    t0 = time.perf_counter()
    reference = run_e2e_reference(CELL)
    reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = run_e2e(CELL)
    batched_s = time.perf_counter() - t0

    # Live even with --benchmark-disable: the batched frame -> address
    # bridge must be bit-identical to the per-frame scalar path.
    assert batched == reference
    assert batched.energy == reference.energy

    benchmark.extra_info["reference_s"] = round(reference_s, 3)
    benchmark.extra_info["batched_s"] = round(batched_s, 3)
    benchmark.extra_info["speedup"] = round(reference_s / batched_s, 2)
    benchmark.extra_info["cwer_baseline"] = batched.cwer_baseline
    benchmark.extra_info["cwer_interleaved"] = batched.cwer_interleaved
    benchmark.extra_info["write_p99_us"] = round(
        batched.write_latency_percentile(99) / 1e6, 3)
    benchmark.pedantic(run_e2e, args=(CELL,), rounds=1, iterations=1)


def _dram_phases(phase):
    """Both DRAM phases of ``CELL`` through ``phase``; (stats, latencies)."""
    config, mapping = _task_mapping(CELL.mapping, CELL.config_name,
                                    CELL.interleaver.triangle_n)
    elements = CELL.interleaver.elements_per_frame
    return [
        phase(config, ControllerConfig(),
              FrameStreamSource(mapping, CELL.interleaver, CELL.frames, op),
              CELL.frames, elements, op)
        for op in (OP_WRITE, OP_READ)
    ]


def _best_seconds(fn, rounds=3):
    """Best wall-clock of ``rounds`` calls (plain timer: see below)."""
    best = math.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.paper_artifact("end-to-end DRAM phases (kernel vs general)")
def test_e2e_dram_phases_kernel_vs_general(benchmark):
    """The e2e DRAM phases: kernel + CAS-time fold vs general engine.

    The general side records every command and scans the list; the
    kernel side returns one CAS time per request and folds them in
    NumPy.  Stats and per-frame latencies must be identical; the
    speedup lands in ``extra_info`` and is asserted only in timed runs
    with the compiled backend (``benchmark.stats`` is unavailable under
    ``--benchmark-disable``, hence the plain timer).
    """
    kernel = benchmark.pedantic(_dram_phases, args=(_run_dram_phase,),
                                rounds=1, iterations=1)
    assert kernel == _dram_phases(run_dram_phase_reference)

    benchmark.extra_info["native_backend"] = _kernelc.available()
    if benchmark.disabled:  # smoke runs only check for rot, not timing
        return
    general_s = _best_seconds(lambda: _dram_phases(run_dram_phase_reference))
    kernel_s = _best_seconds(lambda: _dram_phases(_run_dram_phase))
    speedup = general_s / kernel_s
    benchmark.extra_info["general_s"] = round(general_s, 4)
    benchmark.extra_info["kernel_s"] = round(kernel_s, 4)
    benchmark.extra_info["kernel_speedup"] = round(speedup, 2)
    if _kernelc.available():
        assert speedup >= KERNEL_REQUIRED_SPEEDUP


@pytest.mark.paper_artifact("end-to-end co-simulation table")
def test_e2e_table_small(benchmark):
    """The joint table on two mapping-sensitive configurations.

    Records the headline numbers (utilization floor, p99 latency
    inflation of the collapsed mapping) in ``extra_info`` so the CI
    smoke run regenerates the artifact on every push.
    """
    rows = benchmark.pedantic(
        run_e2e_table,
        kwargs=dict(n=32, config_names=("DDR4-3200", "LPDDR4-4266"),
                    frames=20),
        rounds=1, iterations=1)
    text = format_e2e_table(rows)
    assert "LPDDR4-4266" in text
    by_cell = {(r.config_name, r.mapping_name): r.result for r in rows}
    rm = by_cell[("LPDDR4-4266", "row-major")]
    opt = by_cell[("LPDDR4-4266", "optimized")]
    # The optimized mapping's headline effect survives the joint run:
    # higher utilization floor and no p99 frame-latency inflation.
    assert opt.min_utilization > rm.min_utilization
    assert opt.read_latency_percentile(99) <= rm.read_latency_percentile(99)
    benchmark.extra_info["rm_min_utilization"] = round(rm.min_utilization, 4)
    benchmark.extra_info["opt_min_utilization"] = round(opt.min_utilization, 4)
    benchmark.extra_info["rm_read_p99_us"] = round(
        rm.read_latency_percentile(99) / 1e6, 3)
    benchmark.extra_info["opt_read_p99_us"] = round(
        opt.read_latency_percentile(99) / 1e6, 3)
