"""Refresh scheduling: policy objects and controller integration."""

from dataclasses import replace

import pytest

from repro.dram.commands import CommandType
from repro.dram.controller import OP_READ, ControllerConfig
from repro.dram.engine import SchedulingEngine, TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.presets import get_config
from repro.dram.refresh import RefreshScheduler


class TestScheduler:
    def test_disabled_never_fires(self, tiny_config):
        scheduler = RefreshScheduler(tiny_config, enabled=False)
        assert scheduler.next_deadline_ps is None
        assert scheduler.due(10**12) is None

    def test_first_deadline_is_trefi(self, tiny_config):
        scheduler = RefreshScheduler(tiny_config)
        assert scheduler.next_deadline_ps == tiny_config.timing.trefi

    def test_not_due_early(self, tiny_config):
        scheduler = RefreshScheduler(tiny_config)
        assert scheduler.due(tiny_config.timing.trefi - 1) is None

    def test_due_consumes_deadline(self, tiny_config):
        scheduler = RefreshScheduler(tiny_config)
        trefi = tiny_config.timing.trefi
        event = scheduler.due(trefi)
        assert event is not None
        assert event.deadline_ps == trefi
        assert scheduler.next_deadline_ps == 2 * trefi

    def test_all_bank_event_covers_all_banks(self, tiny_config):
        scheduler = RefreshScheduler(tiny_config)
        event = scheduler.due(tiny_config.timing.trefi)
        assert event.banks == list(range(tiny_config.geometry.banks))
        assert event.duration_ps == tiny_config.timing.trfc

    def test_per_bank_round_robin(self):
        config = get_config("LPDDR4-2133")
        scheduler = RefreshScheduler(config)
        banks = []
        for k in range(1, config.geometry.banks + 2):
            event = scheduler.due(k * config.timing.trefi)
            banks.append(event.banks[0])
            assert event.duration_ps == config.timing.trfc_pb
        assert banks[: config.geometry.banks] == list(range(config.geometry.banks))
        assert banks[config.geometry.banks] == 0  # wraps around

    def test_timing_surface(self, tiny_config):
        scheduler = RefreshScheduler(tiny_config)
        assert scheduler.interval_ps == tiny_config.timing.trefi
        assert scheduler.duration_ps == tiny_config.timing.trfc
        assert scheduler.next_bank == 0

    def test_overhead_bound(self, tiny_config):
        scheduler = RefreshScheduler(tiny_config)
        expected = tiny_config.timing.trfc / tiny_config.timing.trefi
        assert scheduler.overhead_bound() == pytest.approx(expected)
        assert RefreshScheduler(tiny_config, enabled=False).overhead_bound() == 0.0


class TestControllerIntegration:
    def _long_stream(self, config, count=4000):
        banks = config.geometry.banks
        cols = config.geometry.bursts_per_row
        return [((i % banks), (i // (banks * cols)) % config.geometry.rows,
                 (i // banks) % cols) for i in range(count)]

    def test_refreshes_issued_on_long_phase(self, tiny_config):
        requests = self._long_stream(tiny_config)
        policy = ControllerConfig(record_commands=True)
        result = KernelEngine(tiny_config, policy).run(
            TupleSource(requests), OP_READ)
        assert result.stats.refreshes > 0
        refs = [c for c in result.commands if c.command is CommandType.REF_ALL]
        assert len(refs) == result.stats.refreshes

    def test_refresh_spacing_close_to_trefi(self, tiny_config):
        requests = self._long_stream(tiny_config, 8000)
        policy = ControllerConfig(record_commands=True)
        result = KernelEngine(tiny_config, policy).run(
            TupleSource(requests), OP_READ)
        refs = sorted(c.time_ps for c in result.commands
                      if c.command is CommandType.REF_ALL)
        assert len(refs) >= 2
        for first, second in zip(refs, refs[1:]):
            assert second - first >= 0.9 * tiny_config.timing.trefi

    def test_disabling_refresh_improves_utilization(self, tiny_config):
        # Pure page-hit stream: refresh is the only source of overhead,
        # so disabling it must strictly help.
        banks = tiny_config.geometry.banks
        cols = tiny_config.geometry.bursts_per_row
        requests = [(i % banks, 0, (i // banks) % cols) for i in range(6000)]
        on = KernelEngine(
            tiny_config, ControllerConfig(refresh_enabled=True)
        ).run(TupleSource(list(requests)), OP_READ).stats
        off = KernelEngine(
            tiny_config, ControllerConfig(refresh_enabled=False)
        ).run(TupleSource(list(requests)), OP_READ).stats
        assert off.refreshes == 0
        assert on.refreshes > 0
        assert off.utilization > on.utilization

    def test_per_bank_refresh_cheaper_than_all_bank(self):
        """Per-bank refresh hides behind other banks' traffic."""
        config = get_config("LPDDR4-2133")
        banks = config.geometry.banks
        cols = config.geometry.bursts_per_row
        requests = [(i % banks, 0, (i // banks) % cols) for i in range(20000)]
        stats = KernelEngine(config, ControllerConfig()).run(
            TupleSource(requests), OP_READ
        ).stats
        assert stats.refreshes > 0
        # Page-hit streaming with hidden refresh: utilization stays high.
        assert stats.utilization > 0.95


class TestZeroInterval:
    """``TimingParams`` accepts ``trefi = 0``, but with refresh on every
    deadline is due forever: both engines hung in their refresh loop."""

    @staticmethod
    def _config():
        config = get_config("DDR4-3200")
        return replace(config, timing=replace(config.timing, trefi=0))

    def test_both_engines_reject_it_at_construction(self):
        config = self._config()
        with pytest.raises(ValueError, match="trefi"):
            KernelEngine(config, ControllerConfig())
        with pytest.raises(ValueError, match="trefi"):
            SchedulingEngine(config, ControllerConfig())

    def test_phase_runs_with_refresh_disabled(self):
        config = self._config()
        policy = ControllerConfig(refresh_enabled=False)
        requests = [(0, 0, 0), (1, 0, 0)]
        kernel = KernelEngine(config, policy).run(
            TupleSource(requests), OP_READ)
        general = SchedulingEngine(config, policy).run(
            TupleSource(requests), OP_READ)
        assert kernel.stats.requests == general.stats.requests == 2
        assert kernel.stats == general.stats
        assert kernel.stats.refreshes == 0
