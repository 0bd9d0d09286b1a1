"""Cross-policy differential battery: every discipline vs its reference.

Two layers of proof for the scheduling-policy zoo
(:mod:`repro.dram.policy`):

* **Open-page is the pre-policy engine, bit for bit.**  Across the full
  Table I (configuration, mapping) grid, both phases, an explicit
  ``discipline="open-page"`` run through the engine *and* the
  batch-advance kernel must equal the frozen seed oracle
  (``oracles.scheduler.reference_run_phase``) —
  :class:`~repro.dram.stats.PhaseStats`, ``command_counts``, the
  :class:`~repro.dram.stats.EnergyTally` and the full recorded command
  list — with the ``kernel_fallback`` flag unset.
* **Each new discipline equals its scalar reference.**  100 seeded
  random (configuration, queue-shape, stream-locality, op, cap)
  scenarios per discipline through the general engine (every fourth
  also through :class:`~repro.dram.kernel.KernelEngine`, the front
  door) vs
  the same oracle (the frozen scheduler plus the auto-close additions,
  or on the partition-remapped stream), plus mixed batteries against
  ``oracles.scheduler.reference_run_mixed_phase``.

The cases come from ``oracles.cases``, deterministic per index, so a
failure names a reproducible case.
"""

import pytest

from oracles.cases import (N_MIXED_PER_POLICY, N_PER_POLICY, NEW_DISCIPLINES,
                           SCHEDULE_FIELDS, TABLE1_PAIRS, phase_chunks,
                           pick_stream, policy_case, policy_mixed_case,
                           policy_rng, table1_mapping)
from oracles.scheduler import reference_run_mixed_phase, reference_run_phase
from repro.dram import _kernelc
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, SchedulingEngine, TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import run_mixed_phase
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    POLICY_NAMES,
    POLICY_OPEN_PAGE,
)
from repro.dram.presets import get_config

PAIR_IDS = [f"{c}-{m}" for c, m in TABLE1_PAIRS]


def _general(config, policy, source, op):
    """One phase on the general engine, the kernel's fallback route."""
    return SchedulingEngine(config, policy).run(source, op)


def _assert_matches_oracle(result, oracle):
    """Schedule bit-identity vs a scalar oracle (which tallies no
    energy — ``energy_tally`` is ``compare=False`` and engine-only)."""
    assert result.stats == oracle.stats
    assert result.stats.command_counts == oracle.stats.command_counts
    assert result.commands == oracle.commands


def _assert_identical(result, expected):
    """Full engine-to-engine bit-identity, energy tally included."""
    _assert_matches_oracle(result, expected)
    assert result.stats.energy_tally == expected.stats.energy_tally


class TestOpenPageIsThePrePolicyEngine:
    """Explicit open-page == frozen seed oracle on the Table I grid."""

    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=PAIR_IDS)
    def test_grid_cell_bit_identical(self, config_name, mapping_name, op):
        config = get_config(config_name)
        mapping = table1_mapping(config, mapping_name)
        policy = ControllerConfig(record_commands=True,
                                  discipline=POLICY_OPEN_PAGE)
        general = _general(config, policy,
                           ChunkSource(phase_chunks(mapping, op)), op)
        kernel = KernelEngine(config, policy).run(
            ChunkSource(phase_chunks(mapping, op)), op)
        oracle = reference_run_phase(config, phase_chunks(mapping, op), op,
                                     policy)

        _assert_matches_oracle(general, oracle)
        _assert_identical(kernel, general)
        assert general.stats.kernel_fallback is False
        assert kernel.stats.kernel_fallback is not _kernelc.available()


class TestNewPolicyHomogeneousBattery:
    """Engine == scalar policy reference, 100 scenarios per discipline."""

    @pytest.mark.parametrize("index", range(N_PER_POLICY))
    @pytest.mark.parametrize("discipline", NEW_DISCIPLINES)
    def test_engine_matches_reference(self, discipline, index):
        case = policy_case(discipline, index)
        engine_result = _general(case.config, case.policy, case.source(),
                                 case.op)
        reference_result = reference_run_phase(
            case.config, list(case.requests), case.op, case.policy)

        _assert_matches_oracle(engine_result, reference_result)

    @pytest.mark.parametrize("index", range(0, N_PER_POLICY, 4))
    @pytest.mark.parametrize("discipline", NEW_DISCIPLINES)
    def test_kernel_route_matches_reference(self, discipline, index):
        """The front door's kernel route — native for bank partitioning,
        visible fallback for the auto-close disciplines — must land on
        the same schedule as the scalar reference."""
        case = policy_case(discipline, index)
        kernel_result = KernelEngine(case.config, case.policy).run(
            case.source(), case.op)
        general_result = _general(case.config, case.policy, case.source(),
                                  case.op)
        reference_result = reference_run_phase(
            case.config, list(case.requests), case.op, case.policy)

        _assert_matches_oracle(kernel_result, reference_result)
        _assert_identical(kernel_result, general_result)
        expects_fallback = (discipline in (POLICY_CLOSED_PAGE,
                                           POLICY_FRFCFS_CAP)
                            or not _kernelc.available())
        assert kernel_result.stats.kernel_fallback is expects_fallback


class TestNewPolicyMixedBattery:
    """Mixed engine == scalar policy reference per discipline."""

    @pytest.mark.parametrize("index", range(N_MIXED_PER_POLICY))
    @pytest.mark.parametrize("discipline", NEW_DISCIPLINES)
    def test_mixed_matches_reference(self, discipline, index):
        # The reference records nothing for mixed runs.
        case = policy_mixed_case(discipline, index)
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


class TestPolicyAlgebra:
    """Structural identities between disciplines."""

    def test_closed_page_is_cap_one(self, ddr4):
        rng = policy_rng(99, 0)
        requests = pick_stream(rng, ddr4.geometry.banks)
        results = [
            KernelEngine(ddr4, ControllerConfig(
                record_commands=True, discipline=discipline,
                cap=cap)).run(TupleSource(iter(requests)), OP_READ)
            for discipline, cap in ((POLICY_CLOSED_PAGE, 4),
                                    (POLICY_FRFCFS_CAP, 1))
        ]
        _assert_identical(results[0], results[1])

    def test_huge_cap_converges_to_open_page(self, ddr4):
        rng = policy_rng(99, 1)
        requests = pick_stream(rng, ddr4.geometry.banks)
        capped = KernelEngine(ddr4, ControllerConfig(
            record_commands=True, discipline=POLICY_FRFCFS_CAP,
            cap=10**9)).run(TupleSource(iter(requests)), OP_READ)
        open_page = KernelEngine(ddr4, ControllerConfig(
            record_commands=True)).run(TupleSource(iter(requests)), OP_READ)
        _assert_identical(capped, open_page)

    def test_partition_remap_is_idempotent(self, ddr4):
        """Re-running an already-partitioned stream schedules it
        identically: remapped banks stay inside their partition."""
        from oracles.scheduler import partition_tuple_stream
        rng = policy_rng(99, 2)
        requests = pick_stream(rng, ddr4.geometry.banks)
        once = partition_tuple_stream(requests, ddr4.geometry.banks, True)
        twice = partition_tuple_stream(once, ddr4.geometry.banks, True)
        assert once == twice


def test_policy_names_are_the_four_disciplines():
    assert POLICY_NAMES == (POLICY_OPEN_PAGE, POLICY_CLOSED_PAGE,
                            POLICY_FRFCFS_CAP, POLICY_BANK_PARTITION)
