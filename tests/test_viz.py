"""Fig. 1 style rendering and campaign charts."""

import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.geometry import Geometry
from repro.interleaver.triangular import RectangularIndexSpace, TriangularIndexSpace
from repro.interleaver.two_stage import TwoStageConfig
from repro.mapping.optimized import OptimizedMapping
from repro.system.campaign import CampaignSummary
from repro.viz import (
    render_banks,
    render_campaign_gains,
    render_columns,
    render_e2e_latency,
    render_energy_pareto,
    render_figure1,
    render_full,
    render_grid,
    side_by_side,
    utilization_bar,
)


@pytest.fixture
def fig_geometry():
    """Two banks, small pages: the scale of the paper's Fig. 1."""
    return Geometry(bank_groups=2, banks_per_group=1, rows=64, columns=32,
                    bus_width_bits=64, burst_length=8)


@pytest.fixture
def fig_mapping(fig_geometry):
    return OptimizedMapping(RectangularIndexSpace(8, 8), fig_geometry)


class TestRenderGrid:
    def test_triangle_leaves_blanks(self):
        space = TriangularIndexSpace(3)
        text = render_grid(space, lambda i, j: "X")
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].count("X") == 3
        assert lines[2].count("X") == 1

    def test_labels_applied(self):
        space = RectangularIndexSpace(2, 2)
        text = render_grid(space, lambda i, j: f"{i}{j}")
        assert "00 01" in text
        assert "10 11" in text


class TestFigurePanels:
    def test_banks_diagonal(self, fig_mapping):
        """Fig. 1a: the first row alternates B0 B1, the second starts B1."""
        lines = render_banks(fig_mapping).splitlines()
        assert lines[0].split()[:4] == ["B0", "B1", "B0", "B1"]
        assert lines[1].split()[:4] == ["B1", "B0", "B1", "B0"]

    def test_columns_panel_has_column_labels(self, fig_geometry):
        mapping = OptimizedMapping(RectangularIndexSpace(8, 8), fig_geometry,
                                   enable_offset=False)
        text = render_columns(mapping)
        assert "C0" in text

    def test_full_panel_has_bcr_labels(self, fig_mapping):
        text = render_full(fig_mapping)
        assert "B0C0R0" in text

    def test_figure1_contains_four_panels(self, fig_geometry):
        text = render_figure1(RectangularIndexSpace(8, 8), fig_geometry)
        for tag in ("(a)", "(b)", "(c)", "(d)"):
            assert tag in text

    def test_offset_changes_panel_d(self, fig_geometry):
        space = RectangularIndexSpace(8, 8)
        base = render_full(OptimizedMapping(space, fig_geometry, enable_offset=False))
        shifted = render_full(OptimizedMapping(space, fig_geometry))
        assert base != shifted


def _summary(fade_symbols, gain_failed_base, gain_failed_int, n=32):
    return CampaignSummary(
        channel=GilbertElliottParams(p_g2b=0.004 / 0.996 / fade_symbols,
                                     p_b2g=1.0 / fade_symbols, p_bad=0.7),
        interleaver=TwoStageConfig(triangle_n=n, symbols_per_element=4,
                                   codeword_symbols=24),
        code=CodewordConfig(n_symbols=24, t_correctable=2),
        cells=3,
        frames=300,
        codewords=26400,
        failed_interleaved=gain_failed_int,
        failed_baseline=gain_failed_base,
        max_errors_interleaved=5,
        max_burst=120,
    )


class TestCampaignGains:
    def test_rows_sorted_by_fade_duration(self):
        text = render_campaign_gains([_summary(90.0, 40, 10),
                                      _summary(40.0, 40, 10)])
        lines = text.splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[1].split()[0] == "40"
        assert lines[2].split()[0] == "90"

    def test_gain_bar_scales_with_gain(self):
        text = render_campaign_gains([_summary(40.0, 100, 10),
                                      _summary(60.0, 100, 50)], width=20)
        lines = text.splitlines()
        assert lines[1].count("#") > lines[2].count("#")  # 10x vs 2x gain
        assert "10.0x" in lines[1]

    def test_sub_unity_gains_do_not_stretch_the_axis(self):
        # A saturation row (gain < 1, empty bar) must not compress the
        # positive rows: the 10x row still spans the full width.
        text = render_campaign_gains([_summary(40.0, 100, 10),
                                      _summary(60.0, 50, 100)], width=10)
        lines = text.splitlines()
        assert "#" * 10 in lines[1]   # 10x row: full bar
        assert "#" not in lines[2]    # 0.5x row: empty bar

    def test_infinite_gain_fills_bar(self):
        text = render_campaign_gains([_summary(40.0, 25, 0)], width=12)
        assert "#" * 12 in text
        assert "inf" in text

    def test_empty_summaries(self):
        assert "no campaign" in render_campaign_gains([])

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            render_campaign_gains([_summary(40.0, 1, 1)], width=0)


def _pareto_point(name, mapping, channels, sustained, power, frontier):
    from repro.dram.energy import EnergyReport
    from repro.system.throughput import EnergyProvisioningPoint, ThroughputReport

    report = ThroughputReport(config_name=name, mapping_name=mapping,
                              min_utilization=0.5,
                              peak_bandwidth_gbit=2 * sustained,
                              sustained_gbit=sustained)
    return EnergyProvisioningPoint(report=report, channels=channels,
                                   pj_per_bit=10.0, channel_power_mw=power,
                                   on_frontier=frontier)


class TestEnergyPareto:
    def test_marks_frontier_and_scales_bars(self):
        points = [
            _pareto_point("DDR3-800", "row-major", 1, 20.0, 500.0, False),
            _pareto_point("LPDDR4-2133", "optimized", 2, 25.0, 125.0, True),
        ]
        text = render_energy_pareto(points, width=10)
        lines = text.splitlines()
        assert len(lines) == 4  # header + 2 rows + legend
        assert lines[1].startswith("  DDR3-800")     # dominated: unmarked
        assert lines[2].startswith("* LPDDR4-2133")  # frontier: starred
        assert "#" * 10 in lines[1]                  # max power: full bar
        assert lines[2].count("#") == 5              # half the power
        assert "Pareto frontier" in lines[-1]

    def test_empty_points(self):
        assert "no provisioning points" in render_energy_pareto([])

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            render_energy_pareto([_pareto_point("a", "b", 1, 1.0, 1.0, True)],
                                 width=0)


class TestRenderE2ELatency:
    @pytest.fixture
    def e2e_rows(self):
        from repro.channel.gilbert_elliott import coherence_params
        from repro.system.e2e import E2ECell, run_e2e
        from repro.system.sweep import E2ERow

        rows = []
        for mapping in ("row-major", "optimized"):
            cell = E2ECell(
                channel=coherence_params(60.0, 0.004, p_bad=0.7),
                interleaver=TwoStageConfig(triangle_n=15,
                                           symbols_per_element=4,
                                           codeword_symbols=24),
                code=CodewordConfig(n_symbols=24, t_correctable=2),
                config_name="LPDDR4-4266", mapping=mapping,
                seed=5, frames=4)
            rows.append(E2ERow(config_name=cell.config_name,
                               mapping_name=mapping, result=run_e2e(cell)))
        return rows

    def test_two_lines_per_row(self, e2e_rows):
        text = render_e2e_latency(e2e_rows, width=12)
        lines = text.splitlines()
        assert len(lines) == 2 + 2 * len(e2e_rows)  # header + phases + legend
        assert "write" in lines[1] and "read" in lines[2]
        assert "p99us" in lines[0]

    def test_bars_share_the_scale(self, e2e_rows):
        width = 20
        text = render_e2e_latency(e2e_rows, width=width)
        bars = [line.split()[3] for line in text.splitlines()[1:-1]]
        assert all(len(bar) == width for bar in bars)
        # The worst p99 line fills the bar to the right edge.
        assert any(not bar.endswith("-") for bar in bars)

    def test_empty_rows(self):
        assert "no e2e rows" in render_e2e_latency([])

    def test_rejects_bad_width(self, e2e_rows):
        with pytest.raises(ValueError):
            render_e2e_latency(e2e_rows, width=0)


class TestHelpers:
    def test_utilization_bar_full(self):
        assert utilization_bar(1.0, width=10) == "##########"

    def test_utilization_bar_half(self):
        bar = utilization_bar(0.5, width=10)
        assert bar.count("#") == 5 and len(bar) == 10

    def test_utilization_bar_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            utilization_bar(1.5)

    def test_side_by_side(self):
        joined = side_by_side(["a\nb", "xx"], gap=2)
        lines = joined.splitlines()
        assert lines[0] == "a  xx"
        assert lines[1] == "b"
