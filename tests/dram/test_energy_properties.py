"""Property/fuzz tests for the energy model's refresh and background terms.

Covers the contract points that the differential battery does not pin
directly:

* per-bank vs all-bank refresh modes charge different per-command
  energies (REFpb/REFsb is cheaper than a rank-wide REFab) across all
  grades, and both modes stay exactly consistent with their command
  recounts;
* refresh disabled implies exactly zero refresh energy;
* background energy strictly increases with makespan;
* energy accounting is invariant under ``record_commands`` on/off.
"""

import random
from dataclasses import replace

from oracles.energy import energy_from_commands_reference
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.energy import (
    energy_from_tally,
    energy_params_for,
    refresh_command_energy_pj,
)
from repro.dram.engine import TupleSource
from repro.dram.kernel import KernelEngine
from repro.dram.mixed import run_mixed_phase
from repro.dram.presets import REFRESH_ALL_BANK, REFRESH_PER_BANK
from repro.dram.stats import EnergyTally


def _stream(rng, n_banks, count=400, rows=64):
    return [(rng.randrange(n_banks), rng.randrange(rows), rng.randrange(16))
            for _ in range(count)]


def _run(config, requests, **policy_kwargs):
    policy = ControllerConfig(**policy_kwargs)
    return KernelEngine(config, policy).run(TupleSource(iter(requests)),
                                            OP_READ)


class TestRefreshEnergy:
    def test_disabled_refresh_zero_energy(self, any_config):
        rng = random.Random(101)
        result = _run(any_config, _stream(rng, any_config.geometry.banks),
                      refresh_enabled=False)
        tally = result.stats.energy_tally
        assert tally.ref == 0
        assert energy_from_tally(any_config, tally).refresh_nj == 0.0

    def test_per_bank_command_cheaper_than_all_bank(self, any_config):
        """Across all grades: REFpb/REFsb < REFab, per command."""
        params = energy_params_for(any_config)
        if any_config.refresh_mode == REFRESH_PER_BANK:
            all_bank = replace(any_config, refresh_mode=REFRESH_ALL_BANK)
            assert (refresh_command_energy_pj(params, any_config)
                    < refresh_command_energy_pj(params, all_bank))
        else:
            # Native all-bank grades (DDR3/DDR4) have no per-bank mode;
            # the native value applies unchanged.
            assert refresh_command_energy_pj(params, any_config) == params.e_ref_pj

    def test_both_modes_match_their_command_recount(self, any_config):
        """Fuzz: the same stream under each legal refresh mode stays
        exactly consistent between tally and recorded commands."""
        rng = random.Random(202)
        requests = _stream(rng, any_config.geometry.banks, count=600, rows=8)
        modes = [any_config]
        if any_config.refresh_mode == REFRESH_PER_BANK:
            modes.append(replace(any_config, refresh_mode=REFRESH_ALL_BANK))
        per_command = {}
        for config in modes:
            result = _run(config, requests, record_commands=True)
            tally = result.stats.energy_tally
            report = energy_from_tally(config, tally)
            assert report == energy_from_commands_reference(
                config, result.commands)
            if tally.ref:
                per_command[config.refresh_mode] = report.refresh_nj / tally.ref
        if len(per_command) == 2:
            assert per_command[REFRESH_PER_BANK] < per_command[REFRESH_ALL_BANK]

    def test_refresh_energy_linear_in_command_count(self, any_config):
        params = energy_params_for(any_config)
        one = energy_from_tally(any_config, EnergyTally(ref=1), params)
        ten = energy_from_tally(any_config, EnergyTally(ref=10), params)
        assert ten.refresh_nj == 10 * one.refresh_nj
        assert one.refresh_nj > 0


class TestBackgroundEnergy:
    def test_strictly_increases_with_makespan(self, any_config):
        spans = [0, 1, 1000, 10**6, 10**9, 10**12]
        reports = [energy_from_tally(any_config, EnergyTally(makespan_ps=m))
                   for m in spans]
        for earlier, later in zip(reports, reports[1:]):
            assert later.background_nj > earlier.background_nj

    def test_longer_stream_accrues_more_background(self, ddr4):
        rng = random.Random(303)
        short = _run(ddr4, _stream(rng, ddr4.geometry.banks, count=100))
        rng = random.Random(303)
        long = _run(ddr4, _stream(rng, ddr4.geometry.banks, count=800))
        short_report = energy_from_tally(ddr4, short.stats.energy_tally)
        long_report = energy_from_tally(ddr4, long.stats.energy_tally)
        assert long.stats.makespan_ps > short.stats.makespan_ps
        assert long_report.background_nj > short_report.background_nj


class TestRecordingInvariance:
    def test_homogeneous_energy_invariant_under_recording(self, any_config):
        rng = random.Random(404)
        requests = _stream(rng, any_config.geometry.banks)
        quiet = _run(any_config, requests, record_commands=False)
        loud = _run(any_config, requests, record_commands=True)
        assert quiet.stats.energy_tally == loud.stats.energy_tally
        assert (energy_from_tally(any_config, quiet.stats.energy_tally)
                == energy_from_tally(any_config, loud.stats.energy_tally))

    def test_mixed_energy_invariant_under_recording(self, any_config):
        rng = random.Random(505)
        requests = [(rng.random() < 0.5, b, r, c)
                    for b, r, c in _stream(rng, any_config.geometry.banks)]
        quiet = run_mixed_phase(any_config, list(requests), ControllerConfig())
        loud = run_mixed_phase(any_config, list(requests),
                               ControllerConfig(record_commands=True))
        assert quiet.stats.energy_tally == loud.stats.energy_tally

    def test_write_phase_tally_charges_write_energy(self, ddr4):
        rng = random.Random(606)
        requests = _stream(rng, ddr4.geometry.banks, count=64)
        result = KernelEngine(ddr4, ControllerConfig()).run(
            TupleSource(iter(requests)), OP_WRITE)
        tally = result.stats.energy_tally
        assert tally.rd == 0
        assert tally.wr == len(requests)
