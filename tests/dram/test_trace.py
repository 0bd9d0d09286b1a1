"""Trace serialization and the independent JEDEC replay checker."""

import io

import pytest

from repro.dram.commands import CommandType, ScheduledCommand
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.trace import TraceChecker, check_phase_commands, read_trace, write_trace
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping


class TestSerialization:
    def test_roundtrip(self):
        commands = [
            ScheduledCommand(0, CommandType.ACT, bank=1, row=5),
            ScheduledCommand(13750, CommandType.RD, bank=1, row=5, column=3, request_id=0),
            ScheduledCommand(50000, CommandType.REF_ALL),
        ]
        buffer = io.StringIO()
        assert write_trace(commands, buffer) == 3
        buffer.seek(0)
        assert read_trace(buffer) == commands

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="not a repro DRAM trace"):
            read_trace(io.StringIO("garbage\n"))

    def test_rejects_malformed_line(self):
        stream = io.StringIO("# repro-dram-trace-v1\n1 RD 0 0\n")
        with pytest.raises(ValueError, match="expected 6 fields"):
            read_trace(stream)

    def test_skips_comments_and_blanks(self):
        stream = io.StringIO("# repro-dram-trace-v1\n\n# note\n0 ACT 0 1 -1 -1\n")
        commands = read_trace(stream)
        assert len(commands) == 1
        assert commands[0].command is CommandType.ACT


class TestCheckerCatchesViolations:
    def test_trcd_violation(self, tiny_config):
        timing = tiny_config.timing
        commands = [
            ScheduledCommand(0, CommandType.ACT, bank=0, row=0),
            ScheduledCommand(timing.trcd - 1, CommandType.RD, bank=0, row=0, column=0),
        ]
        violations = check_phase_commands(tiny_config, commands)
        assert any(v.rule == "tRCD" for v in violations)

    def test_cas_on_closed_bank(self, tiny_config):
        commands = [ScheduledCommand(100, CommandType.RD, bank=0, row=0, column=0)]
        violations = check_phase_commands(tiny_config, commands)
        assert any("precharged" in v.detail for v in violations)

    def test_act_on_open_bank(self, tiny_config):
        commands = [
            ScheduledCommand(0, CommandType.ACT, bank=0, row=0),
            ScheduledCommand(10**6, CommandType.ACT, bank=0, row=1),
        ]
        violations = check_phase_commands(tiny_config, commands)
        assert any("ACT on open bank" in v.detail for v in violations)

    def test_trrd_violation(self, tiny_config):
        commands = [
            ScheduledCommand(0, CommandType.ACT, bank=0, row=0),
            ScheduledCommand(tiny_config.timing.trrd_s - 100, CommandType.ACT, bank=1, row=0),
        ]
        violations = check_phase_commands(tiny_config, commands)
        assert any(v.rule == "tRRD" for v in violations)

    def test_tfaw_violation(self, tiny_config):
        timing = tiny_config.timing
        step = timing.trrd_l  # legal pairwise, but 5 in < tFAW
        commands = [
            ScheduledCommand(k * step, CommandType.ACT, bank=k % 4, row=k // 4)
            for k in range(5)
        ]
        # Make per-bank protocol legal: 5th ACT hits bank 0 again -> close it first.
        commands[4] = ScheduledCommand(4 * step, CommandType.ACT, bank=0, row=1)
        commands.insert(4, ScheduledCommand(
            max(timing.tras, 3 * step + timing.trrd_l), CommandType.PRE, bank=0))
        violations = check_phase_commands(tiny_config, commands)
        assert any(v.rule == "tFAW" for v in violations)

    def test_tras_violation(self, tiny_config):
        commands = [
            ScheduledCommand(0, CommandType.ACT, bank=0, row=0),
            ScheduledCommand(tiny_config.timing.tras - 1, CommandType.PRE, bank=0),
        ]
        violations = check_phase_commands(tiny_config, commands)
        assert any(v.rule == "tRAS/tWR/tRTP" for v in violations)

    def test_refresh_with_open_bank(self, tiny_config):
        commands = [
            ScheduledCommand(0, CommandType.ACT, bank=0, row=0),
            ScheduledCommand(10**6, CommandType.REF_ALL),
        ]
        violations = check_phase_commands(tiny_config, commands)
        assert any(v.rule == "REFab" for v in violations)

    def test_clean_sequence_passes(self, tiny_config):
        timing = tiny_config.timing
        commands = [
            ScheduledCommand(0, CommandType.ACT, bank=0, row=0),
            ScheduledCommand(timing.trcd, CommandType.RD, bank=0, row=0, column=0),
            ScheduledCommand(timing.trcd + timing.tccd_l, CommandType.RD,
                             bank=0, row=0, column=1),
        ]
        assert check_phase_commands(tiny_config, commands) == []


class TestControllerIsClean:
    """The event-driven scheduler must satisfy the independent oracle."""

    @pytest.mark.parametrize("op", [OP_READ, OP_WRITE])
    def test_optimized_mapping_trace_clean(self, any_config, op):
        space = TriangularIndexSpace(64)
        mapping = OptimizedMapping(space, any_config.geometry)
        policy = ControllerConfig(record_commands=True)
        sequence = mapping.write_addresses() if op == OP_WRITE else mapping.read_addresses()
        result = KernelEngine(any_config, policy).run(TupleSource(sequence), op)
        violations = TraceChecker(any_config).check(result.commands)
        assert violations == [], violations[:3]

    @pytest.mark.parametrize("op", [OP_READ, OP_WRITE])
    def test_row_major_mapping_trace_clean(self, any_config, op):
        space = TriangularIndexSpace(64)
        mapping = RowMajorMapping(space, any_config.geometry)
        policy = ControllerConfig(record_commands=True)
        sequence = mapping.write_addresses() if op == OP_WRITE else mapping.read_addresses()
        result = KernelEngine(any_config, policy).run(TupleSource(sequence), op)
        violations = TraceChecker(any_config).check(result.commands)
        assert violations == [], violations[:3]

    def test_trace_roundtrips_through_file(self, tmp_path, tiny_config):
        space = TriangularIndexSpace(16)
        mapping = OptimizedMapping(space, tiny_config.geometry)
        policy = ControllerConfig(record_commands=True)
        result = KernelEngine(tiny_config, policy).run(
            TupleSource(mapping.write_addresses()), OP_WRITE
        )
        path = tmp_path / "phase.trace"
        with open(path, "w") as stream:
            write_trace(result.commands, stream)
        with open(path) as stream:
            recovered = read_trace(stream)
        assert recovered == result.commands
