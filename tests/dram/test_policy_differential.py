"""Cross-policy differential battery: every discipline vs its reference.

Two layers of proof for the scheduling-policy zoo
(:mod:`repro.dram.policy`):

* **Open-page is the pre-policy engine, bit for bit.**  Across the full
  Table I (configuration, mapping) grid, both phases, an explicit
  ``discipline="open-page"`` run through the engine *and* the
  batch-advance kernel must equal the frozen seed oracle
  (:func:`repro.dram._reference.reference_run_phase`) —
  :class:`~repro.dram.stats.PhaseStats`, ``command_counts``, the
  :class:`~repro.dram.stats.EnergyTally` and the full recorded command
  list — with the ``kernel_fallback`` flag unset.
* **Each new discipline equals its scalar reference.**  100 seeded
  random (configuration, queue-shape, stream-locality, op, cap)
  scenarios per discipline through ``MemoryController.run_phase`` vs
  :func:`repro.dram._policy_reference.reference_policy_run_phase`
  (a verbatim port of the frozen oracle plus the auto-close additions,
  or the frozen oracle on the partition-remapped stream), plus mixed
  batteries against ``reference_policy_run_mixed_phase``.

Scenario construction is deterministic per index, so a failure names a
reproducible case.
"""

import random

import pytest

from repro.dram import _kernelc
from repro.dram._policy_reference import (
    reference_policy_run_mixed_phase,
    reference_policy_run_phase,
)
from repro.dram._reference import reference_run_phase
from repro.dram.controller import (
    ENGINE_GENERAL,
    ENGINE_KERNEL,
    OP_READ,
    OP_WRITE,
    ControllerConfig,
    MemoryController,
)
from repro.dram.mixed import run_mixed_phase
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    POLICY_NAMES,
    POLICY_OPEN_PAGE,
)
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

N = 32

#: Disciplines that did not exist before this PR.
NEW_DISCIPLINES = (POLICY_CLOSED_PAGE, POLICY_FRFCFS_CAP,
                   POLICY_BANK_PARTITION)

#: Seeded scenarios per new discipline (homogeneous battery).
N_PER_POLICY = 100

#: Seeded mixed scenarios per new discipline.
N_MIXED_PER_POLICY = 40

#: PhaseStats fields the mixed reference exposes (no recording there).
SCHEDULE_FIELDS = (
    "requests", "page_hits", "page_misses", "page_empties",
    "activates", "precharges", "refreshes", "data_time_ps", "makespan_ps",
)

MAPPING_FACTORIES = {
    "row-major": lambda space, geometry: RowMajorMapping(space, geometry),
    "optimized": lambda space, geometry: OptimizedMapping(
        space, geometry, prefer_tall=False),
}

TABLE1_PAIRS = [(c, m) for c in TABLE1_CONFIG_NAMES
                for m in MAPPING_FACTORIES]
PAIR_IDS = [f"{c}-{m}" for c, m in TABLE1_PAIRS]


def _scenario_rng(salt: int, index: int) -> random.Random:
    return random.Random(0x90CC * 100_000 + salt * 1_000 + index)


def _pick_policy(rng: random.Random, discipline: str) -> ControllerConfig:
    return ControllerConfig(
        queue_depth=rng.choice([1, 2, 8, 16, 64, 128]),
        per_bank_depth=rng.choice([1, 2, 4, 16]),
        refresh_enabled=rng.random() < 0.6,
        record_commands=True,
        discipline=discipline,
        cap=rng.choice([1, 2, 3, 4, 8]),
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
    else:  # rotate: bank rotation with occasional row switches
        row = 0
        for k in range(count):
            if rng.random() < 0.05:
                row = rng.randrange(rows)
            requests.append((k % n_banks, row, k % 16))
    return requests


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
        space = TriangularIndexSpace(N)
        mapping = MAPPING_FACTORIES[mapping_name](space, config.geometry)
        policy = ControllerConfig(record_commands=True,
                                  discipline=POLICY_OPEN_PAGE)

        def chunks():
            return (mapping.write_addresses_array() if op == OP_WRITE
                    else mapping.read_addresses_array())

        general = MemoryController(config, policy,
                                   engine=ENGINE_GENERAL).run_phase(
            chunks(), op)
        kernel = MemoryController(config, policy,
                                  engine=ENGINE_KERNEL).run_phase(
            chunks(), op)
        oracle = reference_run_phase(config, chunks(), op, policy)

        _assert_matches_oracle(general, oracle)
        _assert_identical(kernel, general)
        assert general.stats.kernel_fallback is False
        assert kernel.stats.kernel_fallback is not _kernelc.available()


class TestNewPolicyHomogeneousBattery:
    """Engine == scalar policy reference, 100 scenarios per discipline."""

    @pytest.mark.parametrize("index", range(N_PER_POLICY))
    @pytest.mark.parametrize("discipline", NEW_DISCIPLINES)
    def test_engine_matches_reference(self, discipline, index):
        salt = NEW_DISCIPLINES.index(discipline)
        rng = _scenario_rng(salt, index)
        config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
        policy = _pick_policy(rng, discipline)
        requests = _pick_stream(rng, config.geometry.banks)
        op = rng.choice([OP_READ, OP_WRITE])

        engine_result = MemoryController(config, policy,
                                         engine=ENGINE_GENERAL).run_phase(
            iter(requests), op)
        reference_result = reference_policy_run_phase(
            config, list(requests), op, policy)

        _assert_matches_oracle(engine_result, reference_result)

    @pytest.mark.parametrize("index", range(0, N_PER_POLICY, 4))
    @pytest.mark.parametrize("discipline", NEW_DISCIPLINES)
    def test_kernel_route_matches_reference(self, discipline, index):
        """The ``engine="kernel"`` route — native for bank partitioning,
        visible fallback for the auto-close disciplines — must land on
        the same schedule as the scalar reference."""
        salt = NEW_DISCIPLINES.index(discipline)
        rng = _scenario_rng(salt, index)
        config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
        policy = _pick_policy(rng, discipline)
        requests = _pick_stream(rng, config.geometry.banks)
        op = rng.choice([OP_READ, OP_WRITE])

        kernel_result = MemoryController(config, policy,
                                         engine=ENGINE_KERNEL).run_phase(
            iter(requests), op)
        general_result = MemoryController(config, policy,
                                          engine=ENGINE_GENERAL).run_phase(
            iter(requests), op)
        reference_result = reference_policy_run_phase(
            config, list(requests), op, policy)

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
        salt = 50 + NEW_DISCIPLINES.index(discipline)
        rng = _scenario_rng(salt, index)
        config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
        loud = _pick_policy(rng, discipline)
        # The reference records nothing for mixed runs.
        policy = ControllerConfig(queue_depth=loud.queue_depth,
                                  per_bank_depth=loud.per_bank_depth,
                                  refresh_enabled=loud.refresh_enabled,
                                  discipline=discipline, cap=loud.cap)
        read_fraction = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        base = _pick_stream(rng, config.geometry.banks)
        requests = [(rng.random() < read_fraction, b, r, c)
                    for b, r, c in base]

        engine_result = run_mixed_phase(config, list(requests), policy)
        reference_result = reference_policy_run_mixed_phase(
            config, list(requests), policy)

        for field in SCHEDULE_FIELDS:
            assert getattr(engine_result.stats, field) == \
                getattr(reference_result.stats, field), field
        assert engine_result.reads == reference_result.reads
        assert engine_result.writes == reference_result.writes
        assert engine_result.turnarounds == reference_result.turnarounds


class TestPolicyAlgebra:
    """Structural identities between disciplines."""

    def test_closed_page_is_cap_one(self, ddr4):
        rng = _scenario_rng(99, 0)
        requests = _pick_stream(rng, ddr4.geometry.banks)
        results = [
            MemoryController(ddr4, ControllerConfig(
                record_commands=True, discipline=discipline,
                cap=cap)).run_phase(iter(requests), OP_READ)
            for discipline, cap in ((POLICY_CLOSED_PAGE, 4),
                                    (POLICY_FRFCFS_CAP, 1))
        ]
        _assert_identical(results[0], results[1])

    def test_huge_cap_converges_to_open_page(self, ddr4):
        rng = _scenario_rng(99, 1)
        requests = _pick_stream(rng, ddr4.geometry.banks)
        capped = MemoryController(ddr4, ControllerConfig(
            record_commands=True, discipline=POLICY_FRFCFS_CAP,
            cap=10**9)).run_phase(iter(requests), OP_READ)
        open_page = MemoryController(ddr4, ControllerConfig(
            record_commands=True)).run_phase(iter(requests), OP_READ)
        _assert_identical(capped, open_page)

    def test_partition_remap_is_idempotent(self, ddr4):
        """Re-running an already-partitioned stream schedules it
        identically: remapped banks stay inside their partition."""
        from repro.dram._policy_reference import partition_tuple_stream
        rng = _scenario_rng(99, 2)
        requests = _pick_stream(rng, ddr4.geometry.banks)
        once = partition_tuple_stream(requests, ddr4.geometry.banks, True)
        twice = partition_tuple_stream(once, ddr4.geometry.banks, True)
        assert once == twice


class TestOracleIsolation:
    """The policy oracle must stay test-only, like the seed oracle."""

    def test_policy_reference_not_imported_by_production_code(self):
        import repro.dram as dram_pkg
        import repro.dram.controller as controller
        import repro.dram.engine as engine
        import repro.dram.mixed as mixed
        import repro.dram.policy as policy_module
        assert not hasattr(dram_pkg, "reference_policy_run_phase")
        for module in (dram_pkg, controller, engine, mixed, policy_module):
            source = open(module.__file__).read()
            assert "import" + " _policy_reference" not in source
            assert "from repro.dram import _policy_reference" not in source
            assert "from repro.dram._policy_reference import" not in source

    def test_isolation_rule_registers_the_policy_oracle(self):
        from repro.analysis.rules_isolation import ORACLE_MODULES
        assert "_policy_reference" in ORACLE_MODULES
        assert "_reference" in ORACLE_MODULES


def test_policy_names_are_the_four_disciplines():
    assert POLICY_NAMES == (POLICY_OPEN_PAGE, POLICY_CLOSED_PAGE,
                            POLICY_FRFCFS_CAP, POLICY_BANK_PARTITION)
