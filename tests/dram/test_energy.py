"""Command-level energy model."""

from dataclasses import replace

import pytest

from repro.dram.energy import (
    EnergyParams,
    combine_interleaver_reports,
    energy_from_stats,
    energy_from_tally,
    energy_params_for,
)
from repro.dram.presets import TABLE1_CONFIG_NAMES, get_config
from repro.dram.simulator import simulate_interleaver
from repro.dram.stats import EnergyTally, PhaseStats
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping


def _stats(requests=1000, activates=50, refreshes=2, makespan_ps=10**9):
    return PhaseStats(requests=requests, activates=activates,
                      refreshes=refreshes, makespan_ps=makespan_ps,
                      data_time_ps=requests * 2500)


def _tally(requests=1000, activates=50, refreshes=2, makespan_ps=10**9,
           op="RD"):
    """The tally of a homogeneous phase of ``requests`` bursts."""
    is_read = op == "RD"
    return EnergyTally(act_pre=activates, rd=requests if is_read else 0,
                       wr=0 if is_read else requests, ref=refreshes,
                       makespan_ps=makespan_ps)


class TestParams:
    def test_all_families_covered(self, any_config):
        params = energy_params_for(any_config)
        assert params.e_act_pre_pj > 0

    def test_unknown_family_raises(self, tiny_config):
        with pytest.raises(KeyError, match="TINY"):
            energy_params_for(tiny_config)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyParams(-1, 1, 1, 1, 1)

    def test_lpddr_cheaper_than_ddr(self):
        ddr4 = energy_params_for(get_config("DDR4-3200"))
        lp4 = energy_params_for(get_config("LPDDR4-4266"))
        assert lp4.e_rd_pj < ddr4.e_rd_pj
        assert lp4.p_background_mw < ddr4.p_background_mw

    def test_every_table1_grade_has_its_own_preset(self):
        """The two grades of each family resolve to distinct presets:
        the faster grade pays less per access but more background."""
        by_family = {}
        for name in TABLE1_CONFIG_NAMES:
            by_family.setdefault(get_config(name).family, []).append(name)
        for slow_name, fast_name in by_family.values():
            slow = energy_params_for(get_config(slow_name))
            fast = energy_params_for(get_config(fast_name))
            assert slow != fast
            assert fast.e_rd_pj < slow.e_rd_pj
            assert fast.p_background_mw > slow.p_background_mw

    def test_unknown_grade_falls_back_to_family(self):
        custom = replace(get_config("DDR4-3200"), name="DDR4-9999")
        params = energy_params_for(custom)
        assert params == energy_params_for(replace(custom, name="DDR4-0000"))
        assert params != energy_params_for(get_config("DDR4-3200"))

    def test_rejects_negative_all_bank_refresh(self):
        with pytest.raises(ValueError):
            EnergyParams(1, 1, 1, 1, 1, e_ref_ab_pj=-1)


class TestPhaseEnergy:
    """One phase's report from its command tally."""

    def test_breakdown_sums(self):
        config = get_config("DDR4-3200")
        report = energy_from_tally(config, _tally())
        assert report.total_nj == pytest.approx(
            report.activation_nj + report.burst_nj
            + report.refresh_nj + report.background_nj
        )

    def test_linear_in_commands(self):
        config = get_config("DDR4-3200")
        single = energy_from_tally(config, _tally(activates=1, requests=0,
                                                  refreshes=0, makespan_ps=0))
        double = energy_from_tally(config, _tally(activates=2, requests=0,
                                                  refreshes=0, makespan_ps=0))
        assert double.activation_nj == pytest.approx(2 * single.activation_nj)

    def test_write_and_read_burst_energies_differ(self):
        config = get_config("DDR4-3200")
        rd = energy_from_tally(config, _tally(activates=0, refreshes=0))
        wr = energy_from_tally(config, _tally(activates=0, refreshes=0,
                                              op="WR"))
        assert wr.burst_nj != rd.burst_nj

    def test_pj_per_bit(self):
        config = get_config("DDR4-3200")
        report = energy_from_tally(config, _tally())
        bits = _tally().rd * config.geometry.burst_bytes * 8
        assert report.pj_per_bit == pytest.approx(report.total_nj * 1000 / bits)

    def test_empty_phase_zero_per_bit(self):
        config = get_config("DDR4-3200")
        report = energy_from_tally(config, EnergyTally())
        assert report.pj_per_bit == 0.0
        assert report.activation_share == 0.0

    def test_custom_params_override(self):
        config = get_config("DDR4-3200")
        params = EnergyParams(1000.0, 0.0, 0.0, 0.0, 0.0)
        report = energy_from_tally(config, _tally(activates=10), params)
        assert report.total_nj == pytest.approx(10.0)

    def test_avg_power_over_makespan(self):
        config = get_config("DDR4-3200")
        report = energy_from_tally(config, _tally(makespan_ps=10**6))
        # nJ over ps: total_nj / makespan_ps * 1e6 mW.
        assert report.avg_power_mw == pytest.approx(report.total_nj)
        assert energy_from_tally(config, EnergyTally()).avg_power_mw == 0.0


class TestEnergyFromStats:
    def test_reads_the_tally(self):
        config = get_config("DDR4-3200")
        tally = EnergyTally(act_pre=50, rd=1000, wr=0, ref=2,
                            makespan_ps=10**9)
        stats = replace(_stats(), energy_tally=tally)
        assert energy_from_stats(config, stats) == energy_from_tally(config,
                                                                     tally)

    def test_missing_tally_is_named(self):
        with pytest.raises(ValueError, match="no energy tally"):
            energy_from_stats(get_config("DDR4-3200"), _stats())


class TestMappingComparison:
    """The energy argument: row thrashing costs activation energy."""

    @pytest.fixture(scope="class")
    def energies(self):
        config = get_config("LPDDR4-4266")
        space = TriangularIndexSpace(256)
        out = {}
        for mapping in (RowMajorMapping(space, config.geometry),
                        OptimizedMapping(space, config.geometry)):
            result = simulate_interleaver(config, mapping)
            out[mapping.name] = combine_interleaver_reports(
                energy_from_stats(config, result.write),
                energy_from_stats(config, result.read))
        return out

    def test_row_major_pays_more_activation_energy(self, energies):
        assert (energies["row-major"].activation_nj
                > 1.3 * energies["optimized"].activation_nj)

    def test_row_major_higher_energy_per_bit(self, energies):
        assert energies["row-major"].pj_per_bit > energies["optimized"].pj_per_bit

    def test_combined_counts_payload_once(self, energies):
        report = energies["optimized"]
        # payload bytes = one frame of bursts (written once, read once)
        space = TriangularIndexSpace(256)
        config = get_config("LPDDR4-4266")
        assert report.payload_bytes == space.num_elements * config.geometry.burst_bytes


class TestCombineReports:
    def test_components_add_and_payload_counted_once(self):
        config = get_config("DDR4-3200")
        write = energy_from_tally(config, _tally(makespan_ps=10**6, op="WR"))
        read = energy_from_tally(config, _tally(makespan_ps=3 * 10**6))
        combined = combine_interleaver_reports(write, read)
        assert combined.total_nj == pytest.approx(write.total_nj + read.total_nj)
        assert combined.payload_bytes == write.payload_bytes
        assert combined.makespan_ps == write.makespan_ps + read.makespan_ps
