"""Throughput and provisioning analysis."""

import pytest

from repro.dram.presets import get_config
from repro.dram.stats import PhaseStats
from repro.dram.simulator import InterleaverSimResult
from repro.dram.energy import EnergyReport
from repro.system.throughput import (
    EnergyProvisioningPoint,
    ProvisioningChoice,
    ThroughputReport,
    energy_pareto,
    provision,
    required_channels,
    throughput_report,
)


def _result(config_name, mapping_name, write_util, read_util):
    def stats(util):
        return PhaseStats(requests=1000, data_time_ps=int(util * 1_000_000),
                          makespan_ps=1_000_000)

    return InterleaverSimResult(
        config_name=config_name,
        mapping_name=mapping_name,
        write=stats(write_util),
        read=stats(read_util),
    )


class TestReport:
    def test_sustained_is_half_peak_times_min(self):
        config = get_config("DDR4-3200")  # 204.8 Gbit/s peak
        report = throughput_report(config, _result("DDR4-3200", "optimized", 0.9, 0.8))
        assert report.min_utilization == pytest.approx(0.8)
        assert report.peak_bandwidth_gbit == pytest.approx(204.8)
        assert report.sustained_gbit == pytest.approx(0.8 * 204.8 / 2)

    def test_efficiency(self):
        config = get_config("DDR4-3200")
        report = throughput_report(config, _result("DDR4-3200", "optimized", 0.9, 0.8))
        assert report.efficiency == pytest.approx(0.8)


class TestRequiredChannels:
    def _report(self, sustained):
        return ThroughputReport(config_name="X", mapping_name="m",
                                min_utilization=0.5, peak_bandwidth_gbit=100.0,
                                sustained_gbit=sustained)

    def test_exact_fit(self):
        assert required_channels(self._report(50.0), 100.0) == 2

    def test_rounds_up(self):
        assert required_channels(self._report(30.0), 100.0) == 4

    def test_minimum_one(self):
        assert required_channels(self._report(500.0), 1.0) == 1

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            required_channels(self._report(50.0), 0.0)

    def test_rejects_zero_throughput(self):
        with pytest.raises(ValueError):
            required_channels(self._report(0.0), 100.0)


class TestProvision:
    def _reports(self):
        configs = [("A", 0.9, 100.0), ("B", 0.45, 200.0), ("C", 0.2, 400.0)]
        return [
            ThroughputReport(config_name=name, mapping_name="m",
                             min_utilization=util, peak_bandwidth_gbit=peak,
                             sustained_gbit=util * peak / 2)
            for name, util, peak in configs
        ]

    def test_cheapest_first(self):
        choices = provision(self._reports(), target_gbit=40.0)
        assert [c.report.config_name for c in choices][0] == "A"
        totals = [c.total_peak_gbit for c in choices]
        assert totals == sorted(totals)

    def test_max_channels_filters(self):
        choices = provision(self._reports(), target_gbit=500.0, max_channels=2)
        # A sustains 45 -> needs 12 channels: filtered out.
        assert all(c.channels <= 2 for c in choices)

    def test_oversizing_factor(self):
        choice = ProvisioningChoice(
            target_gbit=100.0,
            report=ThroughputReport("X", "m", 0.5, 200.0, 50.0),
            channels=2,
        )
        # bought 400 peak for 2x100 minimum -> factor 2
        assert choice.oversizing_factor == pytest.approx(2.0)

    def test_optimized_mapping_needs_less_hardware(self):
        """The paper's provisioning argument in miniature."""
        config = get_config("LPDDR4-4266")
        row_major = throughput_report(config, _result(config.name, "row-major", 0.98, 0.36))
        optimized = throughput_report(config, _result(config.name, "optimized", 0.95, 0.95))
        target = 100.0
        assert required_channels(optimized, target) < required_channels(row_major, target)


class TestRequiredChannelsRounding:
    """Ceiling behavior right at the channel-count boundaries."""

    def _report(self, sustained):
        return ThroughputReport(config_name="X", mapping_name="m",
                                min_utilization=0.5, peak_bandwidth_gbit=100.0,
                                sustained_gbit=sustained)

    def test_just_above_boundary_adds_a_channel(self):
        assert required_channels(self._report(50.0), 100.0 + 1e-6) == 3

    def test_just_below_boundary_stays(self):
        assert required_channels(self._report(50.0), 100.0 - 1e-6) == 2

    def test_tiny_target_still_needs_one_channel(self):
        assert required_channels(self._report(50.0), 1e-9) == 1

    def test_large_ratio_exact(self):
        assert required_channels(self._report(0.5), 500.0) == 1000

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            required_channels(self._report(50.0), -5.0)


class TestProvisionEdgeCases:
    def _report(self, name, sustained, peak=100.0):
        return ThroughputReport(config_name=name, mapping_name="m",
                                min_utilization=sustained / peak * 2,
                                peak_bandwidth_gbit=peak,
                                sustained_gbit=sustained)

    def test_zero_utilization_reports_skipped(self):
        """A configuration that sustains nothing can never satisfy the
        target; provision must drop it rather than divide by zero."""
        reports = [self._report("dead", 0.0), self._report("alive", 50.0)]
        choices = provision(reports, target_gbit=100.0)
        assert [c.report.config_name for c in choices] == ["alive"]

    def test_all_zero_reports_yield_no_choices(self):
        assert provision([self._report("dead", 0.0)], target_gbit=10.0) == []

    def test_non_positive_target_rejected(self):
        with pytest.raises(ValueError, match="target_gbit must be positive"):
            provision([self._report("fit", 50.0)], target_gbit=0.0)

    def test_ideal_device_oversizing_factor_is_one(self):
        """A perfect device (sustained = peak/2) bought exactly at the
        target has zero bandwidth tax."""
        choices = provision([self._report("ideal", 50.0)], target_gbit=50.0)
        assert choices[0].channels == 1
        assert choices[0].oversizing_factor == pytest.approx(1.0)

    def test_oversizing_grows_with_rounding_waste(self):
        """Needing 1.01 channels buys 2: the factor reflects the waste."""
        choices = provision([self._report("waste", 50.0)], target_gbit=50.5)
        assert choices[0].channels == 2
        assert choices[0].oversizing_factor == pytest.approx(200.0 / 101.0)

    def test_max_channels_boundary_inclusive(self):
        choices = provision([self._report("fit", 50.0)], target_gbit=100.0,
                            max_channels=2)
        assert len(choices) == 1 and choices[0].channels == 2

    def test_max_channels_boundary_exclusive(self):
        choices = provision([self._report("fit", 50.0)], target_gbit=101.0,
                            max_channels=2)
        assert choices == []

    def test_equal_cost_prefers_headroom(self):
        """Tie on bought bandwidth and channel count: the configuration
        sustaining more (more headroom) ranks first."""
        slow = self._report("slow", 40.0)
        fast = self._report("fast", 60.0)
        choices = provision([slow, fast], target_gbit=30.0)
        assert choices[0].report.config_name == "fast"
        assert choices[0].total_peak_gbit == choices[1].total_peak_gbit


def _pareto_report(name, mapping, sustained):
    return ThroughputReport(config_name=name, mapping_name=mapping,
                            min_utilization=0.5,
                            peak_bandwidth_gbit=2 * sustained,
                            sustained_gbit=sustained)


def _pareto_energy(power_mw, pj_per_bit=10.0):
    """A report whose avg_power_mw property equals ``power_mw``.

    total_nj / makespan_ps * 1e6 = power_mw when makespan is 1e6 ps and
    the only component equals ``power_mw`` nJ; payload scales pJ/bit.
    """
    payload_bits = power_mw * 1000.0 / pj_per_bit
    return EnergyReport(activation_nj=power_mw, burst_nj=0.0, refresh_nj=0.0,
                        background_nj=0.0,
                        payload_bytes=max(1, round(payload_bits / 8)),
                        makespan_ps=10**6)


class TestEnergyPareto:
    def test_spans_channel_counts(self):
        points = energy_pareto(
            [(_pareto_report("a", "optimized", 10.0), _pareto_energy(100.0))],
            max_channels=3)
        assert [p.channels for p in points] == [1, 2, 3]
        assert [p.sustained_gbit for p in points] == pytest.approx([10.0, 20.0, 30.0])
        assert [p.power_mw for p in points] == pytest.approx([100.0, 200.0, 300.0])
        # A single cell dominates nothing of itself: all on the frontier.
        assert all(p.on_frontier for p in points)

    def test_dominated_points_off_frontier(self):
        """A grade delivering less bandwidth for more power never makes
        the frontier."""
        cheap = (_pareto_report("cheap", "optimized", 20.0), _pareto_energy(50.0))
        waste = (_pareto_report("waste", "row-major", 10.0), _pareto_energy(80.0))
        points = energy_pareto([cheap, waste], max_channels=2)
        by_cell = {(p.report.config_name, p.channels): p for p in points}
        assert by_cell[("cheap", 1)].on_frontier
        assert by_cell[("cheap", 2)].on_frontier
        # waste x1 (10 Gbit/s @ 80 mW) is beaten by cheap x1 (20 @ 50).
        assert not by_cell[("waste", 1)].on_frontier
        assert not by_cell[("waste", 2)].on_frontier

    def test_sorted_by_bandwidth_then_power(self):
        points = energy_pareto(
            [(_pareto_report("a", "optimized", 10.0), _pareto_energy(100.0)),
             (_pareto_report("b", "row-major", 15.0), _pareto_energy(60.0))],
            max_channels=2)
        ranks = [(p.sustained_gbit, p.power_mw) for p in points]
        assert ranks == sorted(ranks)

    def test_zero_sustained_cells_skipped(self):
        points = energy_pareto(
            [(_pareto_report("dead", "row-major", 0.0), _pareto_energy(10.0))])
        assert points == []

    def test_pj_per_bit_channel_invariant(self):
        points = energy_pareto(
            [(_pareto_report("a", "optimized", 10.0),
              _pareto_energy(100.0, pj_per_bit=12.5))],
            max_channels=4)
        for point in points:
            assert point.pj_per_bit == pytest.approx(12.5)

    def test_rejects_bad_max_channels(self):
        with pytest.raises(ValueError):
            energy_pareto([], max_channels=0)

    def test_total_peak_scales_with_channels(self):
        [one, two] = energy_pareto(
            [(_pareto_report("a", "optimized", 10.0), _pareto_energy(5.0))],
            max_channels=2)
        assert two.total_peak_gbit == pytest.approx(2 * one.total_peak_gbit)
        assert isinstance(one, EnergyProvisioningPoint)
