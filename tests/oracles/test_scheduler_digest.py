"""Golden digests of the scalar scheduler oracle over every battery case.

The differential batteries prove the engine and the kernel equal to
the oracle; these digests prove the oracle itself does not move.  Each
test runs one battery's cases through the oracle and hashes, per case:

* homogeneous: the ``PhaseStats`` schedule fields, ``command_counts``
  and the full recorded command tape;
* mixed: the schedule fields, ``reads``, ``writes`` and
  ``turnarounds``.

The oracle tallies no energy, so ``energy_tally`` is not hashed.  A
changed literal means the oracle changed, not the engine.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

from oracles.cases import (N_HOMOGENEOUS, N_MIXED, N_MIXED_PER_POLICY,
                           N_PER_POLICY, NEW_DISCIPLINES, SCHEDULE_FIELDS,
                           TABLE1_PAIRS, MixedCase, PhaseCase, engine_case,
                           engine_mixed_case, phase_chunks, policy_case,
                           policy_mixed_case, table1_mapping)
from oracles.scheduler import reference_run_mixed_phase, reference_run_phase
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import EngineResult
from repro.dram.mixed import MixedResult
from repro.dram.policy import POLICY_OPEN_PAGE
from repro.dram.presets import get_config
from repro.dram.stats import PhaseStats


def _schedule(stats: PhaseStats) -> str:
    return repr(tuple(getattr(stats, name) for name in SCHEDULE_FIELDS))


def _phase_record(result: EngineResult) -> str:
    tape = [(c.time_ps, c.command.value, c.bank, c.row, c.column,
             c.request_id) for c in result.commands]
    return (_schedule(result.stats)
            + repr(sorted(result.stats.command_counts.items()))
            + repr(tape))


def _mixed_record(result: MixedResult) -> str:
    return (_schedule(result.stats)
            + repr((result.reads, result.writes, result.turnarounds)))


def _digest(records: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode("utf-8") + b"\n")
    return digest.hexdigest()


def _run_phase(case: PhaseCase) -> str:
    return _phase_record(reference_run_phase(case.config, case.stream(),
                                             case.op, case.policy))


def _run_mixed(case: MixedCase) -> str:
    return _mixed_record(reference_run_mixed_phase(
        case.config, list(case.requests), case.policy))


def test_engine_homogeneous_battery() -> None:
    cases = (engine_case(index) for index in range(N_HOMOGENEOUS))
    assert _digest(map(_run_phase, cases)) == (
        "c0e72a579f226b81d97e7e6e01f00364f6f7f693da3759d6a9f685d2625961ba")


def test_engine_mixed_battery() -> None:
    cases = (engine_mixed_case(index) for index in range(N_MIXED))
    assert _digest(map(_run_mixed, cases)) == (
        "478adfba2795425b040a27314765cc376ed7d9e1f85378f469062bdd729f0273")


def test_policy_homogeneous_battery() -> None:
    cases = (policy_case(discipline, index)
             for discipline in NEW_DISCIPLINES
             for index in range(N_PER_POLICY))
    assert _digest(map(_run_phase, cases)) == (
        "b087c0352cf8a6167e9efd99c21703dcb6d0c3b35a81d54a67afee7ad697eeb1")


def test_policy_mixed_battery() -> None:
    cases = (policy_mixed_case(discipline, index)
             for discipline in NEW_DISCIPLINES
             for index in range(N_MIXED_PER_POLICY))
    assert _digest(map(_run_mixed, cases)) == (
        "edbd92384ae2c06892e60c6c4311c0f60cf05a1ccedada62141ab1a58f19f58d")


def test_table1_phases() -> None:
    policy = ControllerConfig(record_commands=True,
                              discipline=POLICY_OPEN_PAGE)
    records: List[str] = []
    for config_name, mapping_name in TABLE1_PAIRS:
        config = get_config(config_name)
        mapping = table1_mapping(config, mapping_name)
        for op in (OP_WRITE, OP_READ):
            records.append(_phase_record(reference_run_phase(
                config, phase_chunks(mapping, op), op, policy)))
    assert _digest(records) == (
        "9e20ace10595e40a3c8f4a6dd5d49d8648be6f6829cb55a3edd2388a9652736a")
