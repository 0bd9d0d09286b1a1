"""Refresh scheduling: policy objects and controller integration."""

import pytest

from repro.dram.commands import CommandType
from repro.dram.controller import OP_READ, ControllerConfig, MemoryController
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

    @pytest.mark.parametrize("config_name", ("DDR4-3200", "LPDDR4-2133"))
    @pytest.mark.parametrize("events", (0, 1, 5, 17))
    def test_skip_matches_firing_due_calls(self, config_name, events):
        """Both refresh modes; 17 events wrap the 8-bank round robin twice."""
        config = get_config(config_name)
        skipped = RefreshScheduler(config)
        stepped = RefreshScheduler(config)
        skipped.due(config.timing.trefi)
        stepped.due(config.timing.trefi)
        for _ in range(events):
            assert stepped.due(stepped.next_deadline_ps) is not None
        skipped.skip(events)
        assert skipped.next_deadline_ps == stepped.next_deadline_ps
        assert skipped.next_bank == stepped.next_bank
        event = skipped.due(skipped.next_deadline_ps)
        assert event == stepped.due(stepped.next_deadline_ps)

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
        result = MemoryController(tiny_config, policy).run_phase(requests, OP_READ)
        assert result.stats.refreshes > 0
        refs = [c for c in result.commands if c.command is CommandType.REF_ALL]
        assert len(refs) == result.stats.refreshes

    def test_refresh_spacing_close_to_trefi(self, tiny_config):
        requests = self._long_stream(tiny_config, 8000)
        policy = ControllerConfig(record_commands=True)
        result = MemoryController(tiny_config, policy).run_phase(requests, OP_READ)
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
        on = MemoryController(
            tiny_config, ControllerConfig(refresh_enabled=True)
        ).run_phase(list(requests), OP_READ).stats
        off = MemoryController(
            tiny_config, ControllerConfig(refresh_enabled=False)
        ).run_phase(list(requests), OP_READ).stats
        assert off.refreshes == 0
        assert on.refreshes > 0
        assert off.utilization > on.utilization

    def test_per_bank_refresh_cheaper_than_all_bank(self):
        """Per-bank refresh hides behind other banks' traffic."""
        config = get_config("LPDDR4-2133")
        banks = config.geometry.banks
        cols = config.geometry.bursts_per_row
        requests = [(i % banks, 0, (i // banks) % cols) for i in range(20000)]
        stats = MemoryController(config, ControllerConfig()).run_phase(
            requests, OP_READ
        ).stats
        assert stats.refreshes > 0
        # Page-hit streaming with hidden refresh: utilization stays high.
        assert stats.utilization > 0.95
