"""TraceChecker fuzz: every engine schedule must replay violation-free.

The replay checker (:mod:`repro.dram.trace`) is an independent,
state-machine-style implementation of the JEDEC rules.  This suite
throws ~50 random (geometry, speed grade, queue depth) device
configurations at the unified engine — far outside the ten curated
presets — and requires that every produced schedule, homogeneous *and*
mixed (mixed schedules were never checker-validated before the engine
made them recordable), passes :func:`check_phase_commands` with zero
violations.

A third battery runs random devices through both schedulers: the
batch-advance kernel must match the general engine exactly, in
``PhaseStats`` and in the recorded command list.  Every third of those
devices has 8 bank groups of 8 banks, the compiled loop's bank limit.
"""

import random

import pytest

from repro.dram import _kernelc
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import SchedulingEngine, TupleSource
from repro.dram.geometry import Geometry
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import run_mixed_phase
from repro.dram.presets import REFRESH_ALL_BANK, REFRESH_PER_BANK, DramConfig
from repro.dram.timing import from_datasheet
from repro.dram.trace import check_phase_commands

N_COMBOS = 50
N_KERNEL_COMBOS = 60


def random_config(rng: random.Random, widest: bool = False) -> DramConfig:
    """A random but JEDEC-shaped device the presets never cover.

    ``widest`` makes it 8 bank groups of 8 banks; the other fields are
    drawn as before.
    """
    burst_length = rng.choice([8, 16])
    bank_groups = rng.choice([1, 2, 4])
    banks_per_group = rng.choice([2, 4, 8])
    if widest:
        bank_groups = banks_per_group = 8
    geometry = Geometry(
        bank_groups=bank_groups,
        banks_per_group=banks_per_group,
        rows=1024,
        columns=burst_length * rng.choice([4, 16, 64]),
        bus_width_bits=rng.choice([16, 32, 64]),
        burst_length=burst_length,
    )
    data_rate = rng.choice([800, 1066, 1600, 2133, 3200, 4266, 6400])
    tck_ns = 2000.0 / data_rate
    trcd_ns = rng.uniform(10.0, 20.0)
    trrd_s_ns = rng.uniform(2.5, 8.0)
    trrd_s_eff = max(trrd_s_ns, 4 * tck_ns)   # from_datasheet's 4 nCK floor
    twtr_s_ns = rng.uniform(2.5, 10.0)
    refresh_mode = rng.choice([REFRESH_ALL_BANK, REFRESH_PER_BANK])
    timing = from_datasheet(
        data_rate,
        cl_ck=rng.choice([5, 11, 22, 36]),
        cwl_ck=rng.choice([5, 9, 16, 18]),
        trcd_ns=trcd_ns,
        trp_ns=rng.uniform(10.0, 20.0),
        tras_ns=trcd_ns + rng.uniform(10.0, 30.0),
        trrd_s_ns=trrd_s_ns,
        trrd_l_ns=trrd_s_ns + rng.uniform(0.0, 4.0),
        tfaw_ns=trrd_s_eff * rng.uniform(2.0, 5.0),
        tccd_s_ck=burst_length // 2,
        tccd_l_ns=rng.uniform(0.0, 8.0),
        twr_ns=rng.uniform(12.0, 30.0),
        twtr_s_ns=twtr_s_ns,
        twtr_l_ns=twtr_s_ns + rng.uniform(0.0, 5.0),
        trtp_ns=rng.uniform(5.0, 10.0),
        trtw_ck=rng.choice([6, 8, 16]),
        trefi_us=rng.choice([0.4875, 1.9, 3.9, 7.8]),
        trfc_ns=rng.uniform(90.0, 350.0),
        trfc_pb_ns=rng.uniform(60.0, 140.0),
    )
    return DramConfig(
        name=f"FUZZ-{data_rate}",
        family="FUZZ",
        data_rate_mtps=data_rate,
        geometry=geometry,
        timing=timing,
        refresh_mode=refresh_mode,
    )


def random_policy(rng: random.Random) -> ControllerConfig:
    return ControllerConfig(
        queue_depth=rng.choice([1, 4, 16, 64, 160]),
        per_bank_depth=rng.choice([1, 2, 8, 16]),
        refresh_enabled=rng.random() < 0.7,
        record_commands=True,
    )


def random_stream(rng: random.Random, geometry: Geometry, count: int):
    rows = rng.choice([2, 8, 64])
    cols = min(16, geometry.bursts_per_row)
    return [(rng.randrange(geometry.banks), rng.randrange(rows),
             rng.randrange(cols)) for _ in range(count)]


@pytest.mark.parametrize("index", range(N_COMBOS))
def test_homogeneous_schedule_passes_replay_checker(index):
    rng = random.Random(0xFA57 * 100 + index)
    config = random_config(rng)
    policy = random_policy(rng)
    requests = random_stream(rng, config.geometry, rng.choice([60, 250, 700]))
    op = rng.choice([OP_READ, OP_WRITE])

    result = KernelEngine(config, policy).run(TupleSource(list(requests)), op)
    violations = check_phase_commands(config, result.commands)
    assert violations == []
    assert result.stats.requests == len(requests)


@pytest.mark.parametrize("index", range(N_COMBOS))
def test_mixed_schedule_passes_replay_checker(index):
    rng = random.Random(0x317ED * 100 + index)
    config = random_config(rng)
    policy = random_policy(rng)
    read_fraction = rng.choice([0.2, 0.5, 0.8])
    requests = [(rng.random() < read_fraction, bank, row, col)
                for bank, row, col in
                random_stream(rng, config.geometry, rng.choice([60, 250, 700]))]

    result = run_mixed_phase(config, list(requests), policy)
    violations = check_phase_commands(config, result.commands)
    assert violations == []
    assert result.reads + result.writes == len(requests)


@pytest.mark.parametrize("index", range(N_KERNEL_COMBOS))
def test_kernel_matches_general_engine(index):
    rng = random.Random(0xC0DE * 100 + index)
    config = random_config(rng, widest=index % 3 == 0)
    policy = random_policy(rng)
    requests = random_stream(rng, config.geometry, rng.choice([60, 250, 700]))
    op = rng.choice([OP_READ, OP_WRITE])

    expected = SchedulingEngine(config, policy).run(TupleSource(requests), op)
    result = KernelEngine(config, policy).run(TupleSource(requests), op)
    assert result.stats == expected.stats
    assert result.commands == expected.commands
    assert result.stats.kernel_fallback is not _kernelc.available()
