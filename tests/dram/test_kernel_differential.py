"""Differential battery: batch-advance kernel vs the general engine.

The event-wheel kernel (:mod:`repro.dram.kernel`) must be bit-identical
to the general :class:`~repro.dram.engine.SchedulingEngine` — same
:class:`~repro.dram.stats.PhaseStats`, same ``command_counts``, same
:class:`~repro.dram.stats.EnergyTally`, same recorded command list —
on every Table I (configuration, mapping) pair, in both phases, and on
the engine battery's homogeneous cases, and its schedules must
independently satisfy the JEDEC replay checker
(:mod:`repro.dram.trace`) for homogeneous and mixed traffic.  Where the
compiled loop cannot run (no toolchain, ``REPRO_KERNEL_NATIVE=0``) the
same battery checks the general-engine fallback route.  Every run on
every scheduler is one cold phase (``TestColdStart``), and both engines
report the same ``command_counts`` keys (``TestResultKeys``).
"""

import tracemalloc

import pytest

from oracles.cases import N_HOMOGENEOUS, engine_case
from repro.dram import _kernelc
from repro.dram.commands import CommandType
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import ChunkSource, MixedSource, SchedulingEngine
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import (
    RowShiftedMapping,
    interleaved_stream,
    run_mixed_phase,
    steady_state_interleaver,
)
from repro.dram.policy import POLICY_CLOSED_PAGE, POLICY_OPEN_PAGE
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.dram.refresh import RefreshScheduler
from repro.dram.simulator import simulate_phase
from repro.dram.trace import check_phase_commands
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

N = 48

RECORDING_POLICY = ControllerConfig(record_commands=True)

MAPPING_FACTORIES = {
    "row-major": lambda space, geometry: RowMajorMapping(space, geometry),
    "optimized": lambda space, geometry: OptimizedMapping(space, geometry),
}

TABLE1_PAIRS = [
    (config_name, mapping_name)
    for config_name in TABLE1_CONFIG_NAMES
    for mapping_name in MAPPING_FACTORIES
]

PAIR_IDS = [f"{c}-{m}" for c, m in TABLE1_PAIRS]


def _mapping(config, mapping_name, n=N):
    space = TriangularIndexSpace(n)
    return MAPPING_FACTORIES[mapping_name](space, config.geometry)


def _run_engines(config, mapping, op, policy=None):
    """One phase through general engine and kernel; returns both results."""
    policy = policy or ControllerConfig()
    chunks = (mapping.write_addresses_array() if op == OP_WRITE
              else mapping.read_addresses_array())
    general = SchedulingEngine(config, policy).run(ChunkSource(chunks), op=op)
    chunks = (mapping.write_addresses_array() if op == OP_WRITE
              else mapping.read_addresses_array())
    kernel = KernelEngine(config, policy).run(ChunkSource(chunks), op=op)
    return general, kernel


def _assert_cas_times(result):
    """``cas_times[k]`` is the time of the CAS stamped ``request_id=k``."""
    cas = sorted((c.request_id, c.time_ps) for c in result.commands
                 if c.moves_data)
    assert [r for r, _ in cas] == list(range(result.stats.requests))
    assert result.cas_times.tolist() == [t for _, t in cas]


def _assert_identical(general, kernel):
    """Full bit-identity, including the compare=False energy tally."""
    assert kernel.stats == general.stats
    assert kernel.stats.command_counts == general.stats.command_counts
    assert kernel.stats.energy_tally == general.stats.energy_tally
    assert kernel.commands == general.commands


class TestTable1Grid:
    """Kernel == engine on the full production grid."""

    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=PAIR_IDS)
    def test_phase_bit_identical(self, config_name, mapping_name, op):
        config = get_config(config_name)
        mapping = _mapping(config, mapping_name)
        general, kernel = _run_engines(config, mapping, op, RECORDING_POLICY)
        _assert_identical(general, kernel)

    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=PAIR_IDS)
    def test_cas_times_match_recorded_commands(self, config_name,
                                               mapping_name, op):
        """The CAS-time column is the recorded schedule's CAS times."""
        config = get_config(config_name)
        mapping = _mapping(config, mapping_name)
        chunks = (mapping.write_addresses_array() if op == OP_WRITE
                  else mapping.read_addresses_array())
        result = KernelEngine(config, RECORDING_POLICY).run(
            ChunkSource(chunks), op=op, cas_times=True)
        _assert_cas_times(result)


class TestEngineBattery:
    """Kernel == engine on the engine battery's homogeneous cases.

    The cases span all ten configurations, queue depths 1-128, refresh
    on and off, both intake shapes and recorded commands.  Each engine
    runs its case twice, and the second run must repeat the first: every
    run starts cold.
    """

    @pytest.mark.parametrize("index", range(N_HOMOGENEOUS))
    def test_case_bit_identical(self, index):
        case = engine_case(index)
        kernel = KernelEngine(case.config, case.policy)
        general = SchedulingEngine(case.config, case.policy)
        results = []
        for _ in range(2):
            expected = general.run(case.source(), case.op)
            result = kernel.run(case.source(), case.op)
            _assert_identical(expected, result)
            assert result.stats.kernel_fallback is not _kernelc.available()
            results.append(result)
        _assert_identical(*results)


class TestNativeRefresh:
    """The compiled loop applies refresh events without calling ``due``."""

    @pytest.mark.skipif(not _kernelc.available(),
                        reason="needs the compiled segment loop")
    @pytest.mark.parametrize("config_name", ("DDR3-800", "LPDDR4-2133"))
    def test_phase_never_asks_the_scheduler(self, config_name, monkeypatch):
        """One all-bank and one per-bank configuration."""
        config = get_config(config_name)
        mapping = _mapping(config, "row-major")
        expected = SchedulingEngine(config, RECORDING_POLICY).run(
            ChunkSource(mapping.write_addresses_array()), OP_WRITE)
        assert expected.stats.refreshes > 0

        def due(self, now_ps):
            raise AssertionError("the native route called RefreshScheduler.due")

        monkeypatch.setattr(RefreshScheduler, "due", due)
        result = KernelEngine(config, RECORDING_POLICY).run(
            ChunkSource(mapping.write_addresses_array()), OP_WRITE)
        assert not result.stats.kernel_fallback
        _assert_identical(expected, result)


class TestBoundedIntake:
    """The compiled loop holds one batch of the stream at a time."""

    @pytest.mark.skipif(not _kernelc.available(),
                        reason="needs the compiled segment loop")
    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    def test_small_chunks_keep_the_phase_small(self, ddr4, op):
        """525 k requests in 4096-request chunks: a few MiB at most."""
        mapping = _mapping(ddr4, "optimized", n=1024)

        def phase(**chunking):
            chunks = (mapping.write_addresses_array(**chunking)
                      if op == OP_WRITE
                      else mapping.read_addresses_array(**chunking))
            return KernelEngine(ddr4, ControllerConfig()).run(
                ChunkSource(chunks), op=op).stats

        expected = phase()
        tracemalloc.start()
        try:
            stats = phase(chunk_size=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats == expected
        assert peak < 4 << 20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.skipif(not _kernelc.available(),
                        reason="needs the compiled segment loop")
    def test_intake_error_leaves_the_engine_untouched(self, ddr4):
        """A bad request in a later batch raises after the earlier
        batches were scheduled, and the engine is as it was: it holds
        only its configuration and policy, never a phase's tables."""
        mapping = _mapping(ddr4, "optimized")
        kernel = KernelEngine(ddr4, ControllerConfig())
        kernel.run(ChunkSource(mapping.write_addresses_array()), OP_WRITE)
        before = dict(vars(kernel))
        assert list(before) == ["config", "policy"]
        chunks = list(mapping.read_addresses_array(chunk_size=256))
        assert len(chunks) > 1
        banks, rows, cols = chunks[-1]
        chunks[-1] = (banks, rows - rows.max() - 1, cols)
        with pytest.raises(ValueError, match="row must be >= 0"):
            kernel.run(ChunkSource(chunks), OP_READ)
        assert vars(kernel).keys() == before.keys()
        assert all(vars(kernel)[name] is value
                   for name, value in before.items())


ROUTES = [
    ("kernel", POLICY_OPEN_PAGE),
    ("kernel", POLICY_CLOSED_PAGE),  # the general-engine fallback
    ("general", POLICY_OPEN_PAGE),
]


def _phase_runner(route, config, policy):
    """One long-lived scheduler of ``route``, as ``run(chunks, op) -> stats``."""
    engine = (KernelEngine if route == "kernel" else SchedulingEngine)(
        config, policy)
    return lambda chunks, op: engine.run(ChunkSource(chunks), op).stats


class TestColdStart:
    """Every run is one cold phase: a scheduler keeps no bank or refresh
    state between runs, not even from a run an intake error cut short."""

    @pytest.mark.parametrize("route,discipline", ROUTES)
    # All-bank refresh, and per-bank refresh, whose scheduler also
    # rotates through the banks and must restart that rotation.
    @pytest.mark.parametrize("config_name", ["DDR4-3200", "LPDDR4-4266"])
    def test_phase_after_write_and_failed_read_starts_cold(
            self, config_name, route, discipline):
        config = get_config(config_name)
        # Long enough for the write phase to move the refresh deadline.
        mapping = _mapping(config, "optimized", n=128)
        policy = ControllerConfig(discipline=discipline)
        run = _phase_runner(route, config, policy)
        run(mapping.write_addresses_array(), OP_WRITE)
        # The bad request sits in the last chunk, so the earlier chunks
        # are scheduled before intake raises.
        chunks = list(mapping.read_addresses_array(chunk_size=256))
        banks, rows, cols = chunks[-1]
        chunks[-1] = (banks, rows - rows.max() - 1, cols)
        with pytest.raises(ValueError, match="row must be >= 0"):
            run(chunks, OP_READ)
        read = run(mapping.read_addresses_array(), OP_READ)
        fresh = _phase_runner(route, config, policy)(
            mapping.read_addresses_array(), OP_READ)
        assert read == fresh
        assert read.refreshes == fresh.refreshes > 0
        if route == "kernel":
            assert read.kernel_fallback is (
                discipline == POLICY_CLOSED_PAGE or not _kernelc.available())


class TestResultKeys:
    """Both engines finish through one result builder, which gives
    ``command_counts`` the same CAS keys on every route."""

    @pytest.mark.parametrize("route,discipline", ROUTES)
    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    def test_empty_homogeneous_run_reports_its_cas_key(
            self, ddr4, route, discipline, op):
        policy = ControllerConfig(discipline=discipline)
        stats = _phase_runner(route, ddr4, policy)([], op)
        cas = CommandType.RD if op == OP_READ else CommandType.WR
        assert stats.command_counts == {
            CommandType.ACT.value: 0, CommandType.PRE.value: 0,
            cas.value: 0, CommandType.REF_ALL.value: 0}

    @pytest.mark.parametrize("engine", (KernelEngine, SchedulingEngine))
    def test_mixed_run_reports_only_the_directions_that_occurred(
            self, ddr4, engine):
        def cas_keys(requests):
            counts = engine(ddr4, ControllerConfig()).run(
                MixedSource(requests)).stats.command_counts
            return {key for key in counts
                    if key in (CommandType.RD.value, CommandType.WR.value)}

        assert cas_keys([]) == set()
        assert cas_keys([(True, 0, 0, 0)]) == {CommandType.RD.value}
        assert cas_keys([(False, 0, 0, 0)]) == {CommandType.WR.value}
        assert cas_keys([(False, 0, 0, 0), (True, 1, 0, 0)]) == {
            CommandType.RD.value, CommandType.WR.value}


class TestController:
    """The library's phases schedule through the kernel, bit-identically."""

    def test_simulate_phase_matches_general_engine(self, ddr4):
        mapping = _mapping(ddr4, "optimized")
        stats = simulate_phase(ddr4, mapping, OP_READ).stats
        general = SchedulingEngine(ddr4, ControllerConfig()).run(
            ChunkSource(mapping.read_addresses_array()), OP_READ).stats
        assert stats == general

    def test_warm_state_alternation(self, ddr4):
        """Two phases on one kernel == two on one general engine.

        Neither carries the rows the write phase leaves open, or its
        refresh deadline, into the read phase: both start every phase
        cold, so they charge the read phase alike.
        """
        mapping = _mapping(ddr4, "optimized")
        kernel = KernelEngine(ddr4, ControllerConfig())
        write = kernel.run(ChunkSource(mapping.write_addresses_array()),
                           OP_WRITE).stats
        read = kernel.run(ChunkSource(mapping.read_addresses_array()),
                          OP_READ).stats

        engine = SchedulingEngine(ddr4, ControllerConfig())
        write_ref = engine.run(ChunkSource(mapping.write_addresses_array()),
                               OP_WRITE).stats
        read_ref = engine.run(ChunkSource(mapping.read_addresses_array()),
                              OP_READ).stats
        assert (write, read) == (write_ref, read_ref)


class TestMixedTraffic:
    """Mixed streams given to the kernel delegate bit-identically."""

    def test_mixed_phase_bit_identical(self, ddr4):
        mapping = _mapping(ddr4, "optimized", n=24)
        read_mapping = RowShiftedMapping(mapping, mapping.rows_used())

        def source():
            return MixedSource(interleaved_stream(mapping, read_mapping, 4))

        general = SchedulingEngine(ddr4, RECORDING_POLICY).run(source())
        kernel = KernelEngine(ddr4, RECORDING_POLICY).run(source())
        assert kernel.stats == general.stats
        assert kernel.stats.energy_tally == general.stats.energy_tally
        assert (kernel.reads, kernel.writes, kernel.turnarounds) == (
            general.reads, general.writes, general.turnarounds)
        assert kernel.commands == general.commands
        assert not kernel.stats.kernel_fallback  # delegation is unflagged

    def test_controller_delegates_mixed_source(self, tiny_config):
        requests = [(False, 0, 0, 0), (False, 1, 0, 0),
                    (True, 0, 0, 0), (True, 2, 1, 3)]
        general = run_mixed_phase(tiny_config, requests)
        kernel = KernelEngine(tiny_config, ControllerConfig()).run(
            MixedSource(requests))
        assert kernel.stats == general.stats


class TestTraceReplay:
    """Kernel-produced schedules satisfy the independent JEDEC oracle."""

    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=PAIR_IDS)
    def test_read_phase_replay_is_clean(self, config_name, mapping_name):
        config = get_config(config_name)
        mapping = _mapping(config, mapping_name)
        result = simulate_phase(config, mapping, OP_READ, RECORDING_POLICY)
        assert result.commands, "recording policy produced no commands"
        violations = check_phase_commands(config, result.commands)
        assert violations == [], violations[:5]

    def test_write_phase_replay_is_clean(self, ddr4):
        mapping = _mapping(ddr4, "row-major")
        result = simulate_phase(ddr4, mapping, OP_WRITE, RECORDING_POLICY)
        violations = check_phase_commands(ddr4, result.commands)
        assert violations == [], violations[:5]

    def test_mixed_replay_is_clean(self, ddr4):
        mapping = _mapping(ddr4, "optimized", n=24)
        result = steady_state_interleaver(ddr4, mapping, group=4,
                                          policy=RECORDING_POLICY)
        assert result.commands, "recording policy produced no commands"
        violations = check_phase_commands(ddr4, result.commands)
        assert violations == [], violations[:5]


class TestFallback:
    """Phases the compiled loop cannot run delegate, visibly."""

    def _phase(self, config, policy):
        mapping = _mapping(config, "row-major", n=16)
        return KernelEngine(config, policy).run(
            ChunkSource(mapping.write_addresses_array()), op=OP_WRITE)

    def test_no_toolchain_delegates_with_flag(self, ddr4, monkeypatch):
        monkeypatch.setattr(_kernelc, "available", lambda: False)
        engine = KernelEngine(ddr4, ControllerConfig())
        assert not engine.native
        mapping = _mapping(ddr4, "row-major", n=16)
        result = engine.run(ChunkSource(mapping.write_addresses_array()),
                            op=OP_WRITE)
        assert result.stats.kernel_fallback
        general = SchedulingEngine(ddr4, ControllerConfig()).run(
            ChunkSource(mapping.write_addresses_array()), op=OP_WRITE)
        assert result.stats == general.stats

    @pytest.mark.skipif(not _kernelc.available(),
                        reason="needs the compiled segment loop")
    def test_native_run_is_unflagged(self, ddr4):
        assert not self._phase(ddr4, ControllerConfig()).stats.kernel_fallback

    def test_fallback_cas_times_match_recorded_commands(self, ddr4,
                                                        monkeypatch):
        monkeypatch.setattr(_kernelc, "available", lambda: False)
        mapping = _mapping(ddr4, "optimized", n=24)
        result = KernelEngine(ddr4, RECORDING_POLICY).run(
            ChunkSource(mapping.read_addresses_array()), op=OP_READ,
            cas_times=True)
        assert result.stats.kernel_fallback
        _assert_cas_times(result)

    def test_cas_times_off_by_default(self, ddr4):
        assert self._phase(ddr4, ControllerConfig()).cas_times is None
