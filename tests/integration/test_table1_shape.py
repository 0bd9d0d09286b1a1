"""Integration: the reproduction must preserve the *shape* of Table I.

These run the real simulator on a scaled-down interleaver (N=256,
~33 k bursts per phase), so thresholds are the DESIGN.md acceptance
bands, not the paper's absolute numbers.  The full-scale regeneration
lives in benchmarks/.
"""

import pytest

from repro.dram.controller import ControllerConfig
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_interleaver
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping


@pytest.fixture(scope="module")
def results():
    """Simulate all ten configs once, both mappings (module-scoped)."""
    space = TriangularIndexSpace(256)
    out = {}
    for name in ("DDR3-800", "DDR3-1600", "DDR4-1600", "DDR4-3200",
                 "DDR5-3200", "DDR5-6400", "LPDDR4-2133", "LPDDR4-4266",
                 "LPDDR5-4267", "LPDDR5-8533"):
        config = get_config(name)
        out[name] = {
            "row-major": simulate_interleaver(
                config, RowMajorMapping(space, config.geometry)),
            "optimized": simulate_interleaver(
                config, OptimizedMapping(space, config.geometry)),
        }
    return out


class TestRowMajorShape:
    def test_write_phase_high_everywhere(self, results):
        for name, pair in results.items():
            assert pair["row-major"].write_utilization > 0.80, name

    def test_read_collapses_on_fast_lpddr4(self, results):
        assert results["LPDDR4-4266"]["row-major"].read_utilization < 0.50

    @pytest.mark.parametrize("slow,fast", [
        ("DDR3-800", "DDR3-1600"),
        ("LPDDR4-2133", "LPDDR4-4266"),
        ("LPDDR5-4267", "LPDDR5-8533"),
        ("DDR4-1600", "DDR4-3200"),
    ])
    def test_read_degrades_with_speed_grade(self, results, slow, fast):
        assert (results[fast]["row-major"].read_utilization
                < results[slow]["row-major"].read_utilization)

    def test_read_is_the_limiting_phase(self, results):
        for name in ("DDR3-1600", "DDR4-3200", "LPDDR4-4266", "LPDDR5-8533"):
            result = results[name]["row-major"]
            assert result.read_utilization < result.write_utilization, name


class TestOptimizedShape:
    def test_min_phase_beats_row_major_everywhere(self, results):
        # At N=256 the row-major read is optimistic (column strides
        # still fit inside one page span on the roomiest devices), so a
        # small tolerance is allowed; at paper scale the optimized
        # mapping wins outright on every configuration (see
        # benchmarks/bench_table1.py).
        for name, pair in results.items():
            assert (pair["optimized"].min_utilization
                    >= pair["row-major"].min_utilization - 0.06), name

    def test_large_gain_on_fast_grades(self, results):
        for name in ("DDR3-1600", "DDR4-3200", "LPDDR4-4266", "LPDDR5-8533"):
            gain = (results[name]["optimized"].min_utilization
                    / results[name]["row-major"].min_utilization)
            assert gain > 1.3, name

    def test_balanced_phases(self, results):
        """The optimized mapping removes the write/read asymmetry."""
        for name, pair in results.items():
            result = pair["optimized"]
            spread = abs(result.write_utilization - result.read_utilization)
            assert spread < 0.15, name

    def test_high_utilization_on_no_bank_group_standards(self, results):
        for name in ("DDR3-800", "DDR3-1600", "LPDDR4-2133"):
            assert results[name]["optimized"].min_utilization > 0.90, name

    def test_ddr5_near_peak(self, results):
        for name in ("DDR5-3200", "DDR5-6400"):
            assert results[name]["optimized"].min_utilization > 0.93, name


class TestRefreshDisabled:
    """Paper: >99 % consistently when refresh is off (here: strictly
    better than refresh-on and >= 90 % even at small scale)."""

    @pytest.mark.parametrize("name", ["DDR3-1600", "DDR4-3200", "LPDDR4-4266"])
    def test_refresh_off_improves(self, name, results):
        config = get_config(name)
        space = TriangularIndexSpace(256)
        mapping = OptimizedMapping(space, config.geometry)
        off = simulate_interleaver(config, mapping,
                                   ControllerConfig(refresh_enabled=False))
        on = results[name]["optimized"]
        assert off.min_utilization >= on.min_utilization
        assert off.write.refreshes == 0
