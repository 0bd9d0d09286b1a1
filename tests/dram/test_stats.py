"""PhaseStats arithmetic."""

import pytest

from repro.dram.stats import PhaseStats, min_phase_utilization


def _stats(**overrides):
    values = dict(
        requests=100,
        page_hits=70,
        page_misses=25,
        page_empties=5,
        activates=30,
        precharges=25,
        refreshes=2,
        data_time_ps=250_000,
        makespan_ps=312_500,
    )
    values.update(overrides)
    return PhaseStats(**values)


class TestDerivedRates:
    def test_utilization(self):
        assert _stats().utilization == pytest.approx(0.8)

    def test_utilization_empty(self):
        assert PhaseStats().utilization == 0.0

    def test_hit_rate(self):
        assert _stats().hit_rate == pytest.approx(0.7)

    def test_miss_rate(self):
        assert _stats().miss_rate == pytest.approx(0.25)

    def test_rates_zero_without_requests(self):
        empty = PhaseStats()
        assert empty.hit_rate == 0.0 and empty.miss_rate == 0.0


class TestMinPhase:
    def test_min_picks_lower(self):
        write = _stats(data_time_ps=240_000)   # 76.8 %
        read = _stats(data_time_ps=280_000)    # 89.6 %
        assert min_phase_utilization(write, read) == write.utilization

    def test_symmetric(self):
        a, b = _stats(), _stats(data_time_ps=100_000)
        assert min_phase_utilization(a, b) == min_phase_utilization(b, a)
