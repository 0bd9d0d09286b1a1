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
same battery checks the general-engine fallback route.
"""

import pytest

from oracles.cases import N_HOMOGENEOUS, engine_case
from repro.dram import _kernelc
from repro.dram.controller import (
    OP_READ,
    OP_WRITE,
    ControllerConfig,
    MemoryController,
)
from repro.dram.engine import MixedSource, SchedulingEngine, as_workload
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import (
    RowShiftedMapping,
    interleaved_stream,
    run_mixed_phase,
    steady_state_interleaver,
)
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.dram.refresh import RefreshScheduler
from repro.dram.simulator import simulate_phase_result
from repro.dram.trace import check_phase_commands
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

N = 48

RECORDING_POLICY = ControllerConfig(record_commands=True)

MAPPING_FACTORIES = {
    "row-major": lambda space, geometry: RowMajorMapping(space, geometry),
    "optimized": lambda space, geometry: OptimizedMapping(
        space, geometry, prefer_tall=False),
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
    general = SchedulingEngine(config, policy).run(as_workload(chunks), op=op)
    chunks = (mapping.write_addresses_array() if op == OP_WRITE
              else mapping.read_addresses_array())
    kernel = KernelEngine(config, policy).run(as_workload(chunks), op=op)
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


def _assert_same_refresh_state(general, kernel):
    """Both engines' refresh schedulers wait for the same next event."""
    expected, actual = general._refresh, kernel._refresh
    assert actual.next_deadline_ps == expected.next_deadline_ps
    assert actual.next_bank == expected.next_bank


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
            as_workload(chunks), op=op, cas_times=True)
        _assert_cas_times(result)


class TestEngineBattery:
    """Kernel == engine on the engine battery's homogeneous cases.

    The cases span all ten configurations, queue depths 1-128, refresh
    on and off, both intake shapes and recorded commands.  Each engine
    runs its case twice, so the second run starts from the warm bank
    and refresh state the first left behind.
    """

    @pytest.mark.parametrize("index", range(N_HOMOGENEOUS))
    def test_case_bit_identical(self, index):
        case = engine_case(index)
        kernel = KernelEngine(case.config, case.policy)
        general = SchedulingEngine(case.config, case.policy)
        for _ in range(2):
            expected = general.run(as_workload(case.stream()), case.op)
            result = kernel.run(as_workload(case.stream()), case.op)
            _assert_identical(expected, result)
            assert result.stats.kernel_fallback is not _kernelc.available()
            _assert_same_refresh_state(general, kernel)


class TestNativeRefresh:
    """The compiled loop applies refresh events without calling ``due``."""

    @pytest.mark.skipif(not _kernelc.available(),
                        reason="needs the compiled segment loop")
    @pytest.mark.parametrize("config_name", ("DDR3-800", "LPDDR4-2133"))
    def test_phase_never_asks_the_scheduler(self, config_name, monkeypatch):
        """One all-bank and one per-bank configuration."""
        config = get_config(config_name)
        mapping = _mapping(config, "row-major")
        general = SchedulingEngine(config, RECORDING_POLICY)
        expected = general.run(as_workload(mapping.write_addresses_array()),
                               OP_WRITE)
        assert expected.stats.refreshes > 0

        def due(self, now_ps):
            raise AssertionError("the native route called RefreshScheduler.due")

        monkeypatch.setattr(RefreshScheduler, "due", due)
        kernel = KernelEngine(config, RECORDING_POLICY)
        result = kernel.run(as_workload(mapping.write_addresses_array()),
                            OP_WRITE)
        assert not result.stats.kernel_fallback
        _assert_identical(expected, result)
        _assert_same_refresh_state(general, kernel)


class TestController:
    """The controller schedules through the kernel, bit-identically."""

    def test_run_phase_matches_general_engine(self, ddr4):
        mapping = _mapping(ddr4, "optimized")
        stats = MemoryController(ddr4, ControllerConfig()).run_phase(
            mapping.read_addresses_array(), OP_READ).stats
        general = SchedulingEngine(ddr4, ControllerConfig()).run(
            as_workload(mapping.read_addresses_array()), OP_READ).stats
        assert stats == general

    def test_warm_state_alternation(self, ddr4):
        """Two phases on one controller == two on one general engine.

        The kernel shares the per-bank timestamp table with its general
        engine by reference, so rows the write phase leaves open must be
        visible to — and identically charged by — the read phase.
        """
        mapping = _mapping(ddr4, "optimized")
        controller = MemoryController(ddr4, ControllerConfig())
        write = controller.run_phase(mapping.write_addresses_array(),
                                     OP_WRITE).stats
        read = controller.run_phase(mapping.read_addresses_array(),
                                    OP_READ).stats

        engine = SchedulingEngine(ddr4, ControllerConfig())
        write_ref = engine.run(as_workload(mapping.write_addresses_array()),
                               OP_WRITE).stats
        read_ref = engine.run(as_workload(mapping.read_addresses_array()),
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
        kernel = MemoryController(tiny_config).run_phase(MixedSource(requests))
        assert kernel.stats == general.stats


class TestTraceReplay:
    """Kernel-produced schedules satisfy the independent JEDEC oracle."""

    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=PAIR_IDS)
    def test_read_phase_replay_is_clean(self, config_name, mapping_name):
        config = get_config(config_name)
        mapping = _mapping(config, mapping_name)
        result = simulate_phase_result(config, mapping, OP_READ,
                                       RECORDING_POLICY)
        assert result.commands, "recording policy produced no commands"
        violations = check_phase_commands(config, result.commands)
        assert violations == [], violations[:5]

    def test_write_phase_replay_is_clean(self, ddr4):
        mapping = _mapping(ddr4, "row-major")
        result = simulate_phase_result(ddr4, mapping, OP_WRITE,
                                       RECORDING_POLICY)
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
            as_workload(mapping.write_addresses_array()), op=OP_WRITE)

    def test_no_toolchain_delegates_with_flag(self, ddr4, monkeypatch):
        monkeypatch.setattr(_kernelc, "available", lambda: False)
        engine = KernelEngine(ddr4, ControllerConfig())
        assert not engine.native
        mapping = _mapping(ddr4, "row-major", n=16)
        result = engine.run(as_workload(mapping.write_addresses_array()),
                            op=OP_WRITE)
        assert result.stats.kernel_fallback
        general = SchedulingEngine(ddr4, ControllerConfig()).run(
            as_workload(mapping.write_addresses_array()), op=OP_WRITE)
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
            as_workload(mapping.read_addresses_array()), op=OP_READ,
            cas_times=True)
        assert result.stats.kernel_fallback
        _assert_cas_times(result)

    def test_cas_times_off_by_default(self, ddr4):
        assert self._phase(ddr4, ControllerConfig()).cas_times is None
