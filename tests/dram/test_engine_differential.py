"""Differential batteries: the unified engine vs the frozen seed schedulers.

The unified scheduling engine (:mod:`repro.dram.engine`) replaced two
independent scheduler loops.  These batteries prove the replacement is
**bit-identical**:

* ~300 homogeneous scenarios — random (configuration, policy, stream
  pattern, op, intake shape) combinations run through the
  ``SchedulingEngine`` and the frozen pre-engine scheduler
  (``oracles.scheduler.reference_run_phase``); stats *and* the full
  recorded command lists must match exactly.
* ~100 mixed-stream scenarios — random read/write mixes through the
  engine-backed ``run_mixed_phase`` vs the frozen
  ``oracles.scheduler.reference_run_mixed_phase``; every
  scheduling-visible field must match.  (``command_counts`` is compared
  for *consistency* instead of equality: filling it for mixed runs is a
  deliberate engine fix — the seed left it empty, which was the one
  divergence the mixed fork had accumulated against the homogeneous
  scheduler.)

The cases come from ``oracles.cases``, deterministic per index, so a
failure names a reproducible case.
"""

import pytest

from oracles.cases import (N_HOMOGENEOUS, N_MIXED, SCHEDULE_FIELDS,
                           engine_case, engine_mixed_case, engine_rng)
from oracles.scheduler import reference_run_mixed_phase, reference_run_phase
from repro.dram.controller import OP_READ, ControllerConfig
from repro.dram.engine import SchedulingEngine, TupleSource
from repro.dram.mixed import run_mixed_phase
from repro.dram.presets import get_config


@pytest.mark.parametrize("index", range(N_HOMOGENEOUS))
def test_homogeneous_battery(index):
    case = engine_case(index)
    engine_result = SchedulingEngine(case.config, case.policy).run(
        case.source(), case.op)
    reference_result = reference_run_phase(case.config, list(case.requests),
                                           case.op, case.policy)

    assert engine_result.stats == reference_result.stats
    assert engine_result.commands == reference_result.commands


@pytest.mark.parametrize("index", range(N_MIXED))
def test_mixed_battery(index):
    # The reference records nothing for mixed runs; recording is an
    # engine addition checked separately below.
    case = engine_mixed_case(index)
    engine_result = run_mixed_phase(case.config, list(case.requests),
                                    case.policy)
    reference_result = reference_run_mixed_phase(
        case.config, list(case.requests), case.policy)

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
    rng = engine_rng(77_777)
    requests = [(rng.random() < 0.5, rng.randrange(ddr4.geometry.banks),
                 rng.randrange(16), rng.randrange(16)) for _ in range(600)]
    quiet = run_mixed_phase(ddr4, list(requests), ControllerConfig())
    loud = run_mixed_phase(ddr4, list(requests),
                           ControllerConfig(record_commands=True))
    assert loud.stats == quiet.stats
    cas = [c for c in loud.commands if c.command.value in ("RD", "WR")]
    assert len(cas) == quiet.stats.requests
    assert sum(1 for c in cas if c.command.value == "RD") == quiet.reads


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
    engine_result = SchedulingEngine(config, policy).run(
        TupleSource(iter(requests)), OP_READ)
    reference_result = reference_run_phase(config, list(requests),
                                           OP_READ, policy)
    assert engine_result.stats == reference_result.stats
    assert engine_result.commands == reference_result.commands
