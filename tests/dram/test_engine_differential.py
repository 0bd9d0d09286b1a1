"""Differential batteries: the unified engine vs the frozen seed schedulers.

The unified scheduling engine (:mod:`repro.dram.engine`) replaced two
independent scheduler loops.  These batteries prove the replacement is
**bit-identical**:

* ~300 homogeneous scenarios — random (configuration, policy, stream
  pattern, op, intake shape) combinations run through the engine-backed
  ``MemoryController.run_phase`` and the frozen pre-engine scheduler
  (:func:`repro.dram._reference.reference_run_phase`); stats *and* the
  full recorded command lists must match exactly.
* ~100 mixed-stream scenarios — random read/write mixes through the
  engine-backed ``run_mixed_phase`` vs the frozen
  :func:`repro.dram._reference.reference_run_mixed_phase`; every
  scheduling-visible field must match.  (``command_counts`` is compared
  for *consistency* instead of equality: filling it for mixed runs is a
  deliberate engine fix — the seed left it empty, which was the one
  divergence the mixed fork had accumulated against ``run_phase``.)

Scenario construction is deterministic per index, so a failure names a
reproducible case.
"""

import random

import numpy as np
import pytest

from repro.dram._reference import reference_run_mixed_phase, reference_run_phase
from repro.dram.controller import (
    ENGINE_GENERAL,
    OP_READ,
    OP_WRITE,
    ControllerConfig,
    MemoryController,
)
from repro.dram.mixed import run_mixed_phase
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config

#: PhaseStats fields that describe the schedule itself.
SCHEDULE_FIELDS = (
    "requests", "page_hits", "page_misses", "page_empties",
    "activates", "precharges", "refreshes", "data_time_ps", "makespan_ps",
)

N_HOMOGENEOUS = 300
N_MIXED = 100


def _scenario_rng(index: int) -> random.Random:
    return random.Random(0xD1FF * 1000 + index)


def _pick_policy(rng: random.Random) -> ControllerConfig:
    return ControllerConfig(
        queue_depth=rng.choice([1, 2, 8, 16, 64, 128]),
        per_bank_depth=rng.choice([1, 2, 4, 16]),
        refresh_enabled=rng.random() < 0.6,
        record_commands=True,
    )


def _pick_stream(rng: random.Random, n_banks: int):
    """A request stream with a randomly chosen locality pattern."""
    count = rng.choice([0, 1, 7, 60, 250, 800])
    pattern = rng.choice(["uniform", "thrash", "hot-bank", "runs", "rotate"])
    rows = rng.choice([2, 8, 128])
    requests = []
    if pattern == "uniform":
        for _ in range(count):
            requests.append((rng.randrange(n_banks), rng.randrange(rows),
                             rng.randrange(16)))
    elif pattern == "thrash":
        for k in range(count):
            requests.append((k % n_banks, k % rows, 0))
    elif pattern == "hot-bank":
        hot = rng.randrange(n_banks)
        for _ in range(count):
            bank = hot if rng.random() < 0.8 else rng.randrange(n_banks)
            requests.append((bank, rng.randrange(rows), rng.randrange(16)))
    elif pattern == "runs":
        k = 0
        while k < count:
            bank = rng.randrange(n_banks)
            row = rng.randrange(rows)
            for _ in range(min(rng.randrange(1, 12), count - k)):
                requests.append((bank, row, rng.randrange(16)))
                k += 1
    else:  # rotate: bank-group rotation with occasional row switches
        row = 0
        for k in range(count):
            if rng.random() < 0.05:
                row = rng.randrange(rows)
            requests.append((k % n_banks, row, k % 16))
    return requests


def _as_chunks(requests, chunk_size):
    for start in range(0, len(requests), chunk_size):
        part = requests[start:start + chunk_size]
        yield (np.asarray([r[0] for r in part], dtype=np.int64),
               np.asarray([r[1] for r in part], dtype=np.int64),
               np.asarray([r[2] for r in part], dtype=np.int64))


@pytest.mark.parametrize("index", range(N_HOMOGENEOUS))
def test_homogeneous_battery(index):
    rng = _scenario_rng(index)
    config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
    policy = _pick_policy(rng)
    requests = _pick_stream(rng, config.geometry.banks)
    op = rng.choice([OP_READ, OP_WRITE])
    chunked = rng.random() < 0.5

    if chunked:
        chunk_size = rng.choice([1, 13, 200, 4096])
        stream = _as_chunks(requests, chunk_size)
    else:
        stream = iter(requests)
    engine_result = MemoryController(config, policy,
                                     engine=ENGINE_GENERAL).run_phase(stream, op)
    reference_result = reference_run_phase(config, list(requests), op, policy)

    assert engine_result.stats == reference_result.stats
    assert engine_result.commands == reference_result.commands


@pytest.mark.parametrize("index", range(N_MIXED))
def test_mixed_battery(index):
    rng = _scenario_rng(10_000 + index)
    config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
    policy = _pick_policy(rng)
    # The reference records nothing for mixed runs; recording is an
    # engine addition checked separately below.
    quiet = ControllerConfig(queue_depth=policy.queue_depth,
                             per_bank_depth=policy.per_bank_depth,
                             refresh_enabled=policy.refresh_enabled)
    read_fraction = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
    base = _pick_stream(rng, config.geometry.banks)
    requests = [(rng.random() < read_fraction, b, r, c) for b, r, c in base]

    engine_result = run_mixed_phase(config, list(requests), quiet)
    reference_result = reference_run_mixed_phase(config, list(requests), quiet)

    for field in SCHEDULE_FIELDS:
        assert getattr(engine_result.stats, field) == \
            getattr(reference_result.stats, field), field
    assert engine_result.reads == reference_result.reads
    assert engine_result.writes == reference_result.writes
    assert engine_result.turnarounds == reference_result.turnarounds

    # The engine's command_counts addition must be self-consistent.
    counts = engine_result.stats.command_counts
    assert counts["ACT"] == engine_result.stats.activates
    assert counts["PRE"] == engine_result.stats.precharges
    assert counts.get("RD", 0) == engine_result.reads
    assert counts.get("WR", 0) == engine_result.writes


def test_mixed_recording_matches_quiet_run(ddr4):
    """``record_commands`` must not change mixed scheduling, and the
    recorded CAS commands must mirror the request stream."""
    rng = _scenario_rng(77_777)
    requests = [(rng.random() < 0.5, rng.randrange(ddr4.geometry.banks),
                 rng.randrange(16), rng.randrange(16)) for _ in range(600)]
    quiet = run_mixed_phase(ddr4, list(requests), ControllerConfig())
    loud = run_mixed_phase(ddr4, list(requests),
                           ControllerConfig(record_commands=True))
    assert loud.stats == quiet.stats
    cas = [c for c in loud.commands if c.command.value in ("RD", "WR")]
    assert len(cas) == quiet.stats.requests
    assert sum(1 for c in cas if c.command.value == "RD") == quiet.reads


def test_reference_module_is_not_imported_by_production_code():
    """The frozen oracle must stay test-only (docstring mentions are fine)."""
    import repro.dram as dram_pkg
    import repro.dram.controller as controller
    import repro.dram.engine as engine
    import repro.dram.mixed as mixed
    assert not hasattr(dram_pkg, "reference_run_phase")
    for module in (dram_pkg, controller, engine, mixed):
        source = open(module.__file__).read()
        assert "import" + " _reference" not in source
        assert "from repro.dram import _reference" not in source
        assert "from repro.dram._reference import" not in source


def test_multi_entry_deferred_commit_matches_reference():
    """Several deferred activations committed in one arbiter pass.

    Row-thrash across every bank with a deep queue parks many banks in
    the deferral heap with overlapping ready times, so the arbiter's
    multi-entry commit (reused buffer, bank-order sort) runs hundreds
    of times; stats and the full command tape must still match the
    frozen scalar oracle bit for bit.
    """
    config = get_config("DDR4-3200")
    policy = ControllerConfig(queue_depth=64, per_bank_depth=4,
                              refresh_enabled=True, record_commands=True)
    n_banks = config.geometry.banks
    requests = [(k % n_banks, (k // n_banks) % 8, k % 16)
                for k in range(600)]
    engine_result = MemoryController(config, policy,
                                     engine=ENGINE_GENERAL).run_phase(
        iter(requests), OP_READ)
    reference_result = reference_run_phase(config, list(requests),
                                           OP_READ, policy)
    assert engine_result.stats == reference_result.stats
    assert engine_result.commands == reference_result.commands
