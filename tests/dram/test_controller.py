"""Memory-controller scheduling: hand-checked timing scenarios.

Uses the tiny 4-bank configuration so expected command times can be
verified against the JEDEC parameters directly.
"""

import pytest

from repro.dram.commands import CommandType
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine


def _commands_of(result, kind):
    return [c for c in result.commands if c.command is kind]


@pytest.fixture
def policy():
    return ControllerConfig(refresh_enabled=False, record_commands=True)


class TestBasicProtocol:
    def test_rejects_bad_op(self, tiny_config, policy):
        with pytest.raises(ValueError):
            KernelEngine(tiny_config, policy).run(TupleSource([(0, 0, 0)]), "RMW")

    def test_empty_phase(self, tiny_config, policy):
        stats = KernelEngine(tiny_config, policy).run(TupleSource([]), OP_READ).stats
        assert stats.requests == 0
        assert stats.utilization == 0.0

    def test_single_read_command_chain(self, tiny_config, policy):
        result = KernelEngine(tiny_config, policy).run(TupleSource([(0, 3, 2)]), OP_READ)
        acts = _commands_of(result, CommandType.ACT)
        reads = _commands_of(result, CommandType.RD)
        assert len(acts) == 1 and len(reads) == 1
        assert acts[0].time_ps == 0
        # CAS exactly tRCD after ACT when nothing else constrains.
        assert reads[0].time_ps == tiny_config.timing.trcd
        assert result.stats.page_empties == 1

    def test_single_write_uses_cwl(self, tiny_config, policy):
        result = KernelEngine(tiny_config, policy).run(TupleSource([(0, 0, 0)]), OP_WRITE)
        stats = result.stats
        timing = tiny_config.timing
        expected_end = timing.trcd + timing.cwl + tiny_config.burst_duration_ps
        assert stats.makespan_ps == expected_end

    def test_page_hit_reuses_row(self, tiny_config, policy):
        result = KernelEngine(tiny_config, policy).run(
            TupleSource([(0, 5, 0), (0, 5, 1)]), OP_READ
        )
        assert result.stats.page_hits == 1
        assert result.stats.activates == 1
        reads = _commands_of(result, CommandType.RD)
        # Same bank group back-to-back: spaced by tCCD_L.
        assert reads[1].time_ps - reads[0].time_ps == tiny_config.timing.tccd_l

    def test_page_miss_pre_act_chain(self, tiny_config, policy):
        timing = tiny_config.timing
        result = KernelEngine(tiny_config, policy).run(
            TupleSource([(0, 1, 0), (0, 2, 0)]), OP_READ
        )
        assert result.stats.page_misses == 1
        pre = _commands_of(result, CommandType.PRE)[0]
        acts = _commands_of(result, CommandType.ACT)
        reads = _commands_of(result, CommandType.RD)
        # PRE no earlier than read + tRTP, ACT = PRE + tRP, CAS = ACT + tRCD.
        assert pre.time_ps >= reads[0].time_ps + timing.trtp
        assert acts[1].time_ps >= pre.time_ps + timing.trp
        assert reads[1].time_ps >= acts[1].time_ps + timing.trcd

    def test_write_recovery_delays_precharge(self, tiny_config, policy):
        timing = tiny_config.timing
        result = KernelEngine(tiny_config, policy).run(
            TupleSource([(0, 1, 0), (0, 2, 0)]), OP_WRITE
        )
        writes = _commands_of(result, CommandType.WR)
        pre = _commands_of(result, CommandType.PRE)[0]
        data_end = writes[0].time_ps + timing.cwl + tiny_config.burst_duration_ps
        assert pre.time_ps >= data_end + timing.twr


class TestBankParallelism:
    def test_cross_group_cas_at_tccd_s(self, tiny_config, policy):
        """Banks 0 and 1 are different groups: tCCD_S spacing."""
        result = KernelEngine(tiny_config, policy).run(
            TupleSource([(0, 0, 0), (1, 0, 0)]), OP_READ
        )
        reads = _commands_of(result, CommandType.RD)
        spacing = reads[1].time_ps - reads[0].time_ps
        assert spacing == max(tiny_config.timing.tccd_s, tiny_config.burst_duration_ps)

    def test_same_group_cas_at_tccd_l(self, tiny_config, policy):
        """Banks 0 and 2 share group 0: tCCD_L spacing."""
        result = KernelEngine(tiny_config, policy).run(
            TupleSource([(0, 0, 0), (2, 0, 0)]), OP_READ
        )
        reads = _commands_of(result, CommandType.RD)
        assert reads[1].time_ps - reads[0].time_ps >= tiny_config.timing.tccd_l

    def test_trrd_spaces_activates(self, tiny_config, policy):
        result = KernelEngine(tiny_config, policy).run(
            TupleSource([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]), OP_READ
        )
        acts = sorted(c.time_ps for c in _commands_of(result, CommandType.ACT))
        for first, second in zip(acts, acts[1:]):
            assert second - first >= tiny_config.timing.trrd_s

    def test_tfaw_limits_fifth_activate(self, tiny_config, policy):
        """Five different rows on four banks: the 5th ACT waits for tFAW."""
        requests = [(b, 0, 0) for b in range(4)] + [(0, 1, 0)]
        result = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ)
        acts = sorted(c.time_ps for c in _commands_of(result, CommandType.ACT))
        assert len(acts) == 5
        assert acts[4] - acts[0] >= tiny_config.timing.tfaw

    def test_act_overlaps_other_banks_data(self, tiny_config, policy):
        """The miss chain of bank 2 runs under bank 0/1 transfers."""
        requests = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 0, 1), (1, 0, 1), (2, 1, 1)]
        result = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ)
        acts = _commands_of(result, CommandType.ACT)
        reads = _commands_of(result, CommandType.RD)
        act2 = [a for a in acts if a.bank == 2][0]
        # bank 2's ACT must issue before the earlier banks' reads finish.
        assert act2.time_ps < max(r.time_ps for r in reads)


class TestUtilization:
    def test_seamless_hits_reach_full_utilization(self, tiny_config, policy):
        """Alternating bank groups with open rows: tCCD_S == burst."""
        requests = [(b, 0, c) for _ in range(40) for c in range(8) for b in range(2)]
        stats = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ).stats
        assert stats.utilization > 0.95

    def test_same_bank_row_thrash_is_slow(self, tiny_config, policy):
        """Alternating rows on one bank: every access pays a full tRC."""
        requests = [(0, i % 2, 0) for i in range(16)]
        stats = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ).stats
        assert stats.page_misses == 15
        assert stats.utilization < 0.2

    def test_utilization_bounded(self, tiny_config, policy):
        requests = [(i % 4, i % 7, i % 8) for i in range(64)]
        stats = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ).stats
        assert 0.0 < stats.utilization <= 1.0

    def test_data_time_is_exact(self, tiny_config, policy):
        requests = [(i % 4, 0, i % 8) for i in range(32)]
        stats = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ).stats
        assert stats.data_time_ps == 32 * tiny_config.burst_duration_ps


class TestAccounting:
    def test_classification_sums(self, tiny_config, policy):
        requests = [(i % 4, (i // 4) % 3, i % 8) for i in range(60)]
        stats = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ).stats
        assert stats.requests == 60
        assert stats.page_hits + stats.page_misses + stats.page_empties >= 60
        assert stats.activates == stats.page_misses + stats.page_empties

    def test_command_counts_match_lists(self, tiny_config, policy):
        requests = [(i % 4, i % 5, i % 8) for i in range(40)]
        result = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ)
        for kind in (CommandType.ACT, CommandType.PRE, CommandType.RD):
            assert result.stats.command_counts[kind.value] == len(
                _commands_of(result, kind)
            )

    def test_no_recording_by_default(self, tiny_config):
        policy = ControllerConfig(refresh_enabled=False)
        result = KernelEngine(tiny_config, policy).run(TupleSource([(0, 0, 0)]), OP_READ)
        assert result.commands == []


class TestPolicyValidation:
    def test_rejects_bad_queue_depth(self):
        with pytest.raises(ValueError):
            ControllerConfig(queue_depth=0)

    def test_rejects_bad_per_bank_depth(self):
        with pytest.raises(ValueError):
            ControllerConfig(per_bank_depth=0)

    def test_intake_order_preserved_per_bank(self, tiny_config, policy):
        """Per-bank service is strictly in order."""
        requests = [(0, 0, c) for c in range(8)]
        result = KernelEngine(tiny_config, policy).run(TupleSource(requests), OP_READ)
        reads = _commands_of(result, CommandType.RD)
        assert [r.column for r in reads] == list(range(8))

    def test_deterministic(self, tiny_config, policy):
        requests = [(i % 4, i % 3, i % 8) for i in range(50)]
        first = KernelEngine(tiny_config, policy).run(TupleSource(list(requests)), OP_READ)
        second = KernelEngine(tiny_config, policy).run(TupleSource(list(requests)), OP_READ)
        assert first.stats == second.stats
