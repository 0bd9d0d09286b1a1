"""E4 — "Results for other interleaver dimensions ... differ only
slightly" (paper Sec. III).

Sweeps the triangle dimension over nearly an order of magnitude on one
all-bank-refresh and one per-bank-refresh configuration and records the
spread of the optimized mapping's utilization.
"""

import pytest

from repro.system.sweep import sweep_sizes

SIZES = (256, 384, 512)


@pytest.mark.paper_artifact("size insensitivity")
@pytest.mark.parametrize("config_name", ["DDR4-3200", "LPDDR4-4266"])
def test_optimized_utilization_stable_across_sizes(benchmark, config_name):
    points = benchmark.pedantic(sweep_sizes, args=(config_name, SIZES),
                                rounds=1, iterations=1)
    optimized = [p for p in points if p.mapping_name == "optimized"]
    values = [p.min_utilization for p in optimized]
    spread = max(values) - min(values)
    for point in optimized:
        benchmark.extra_info[f"n{point.n}_min_pct"] = round(
            point.min_utilization * 100, 2)
    benchmark.extra_info["spread_pct"] = round(spread * 100, 2)
    # "differ only slightly": within a few points over this size range.
    assert spread < 0.06


@pytest.mark.paper_artifact("size trend (row-major)")
def test_row_major_read_worsens_with_size(benchmark):
    """Unlike the optimized mapping, the baseline read *degrades* as the
    triangle grows (column strides leave the page span)."""
    points = benchmark.pedantic(sweep_sizes, args=("DDR4-3200", (64, 512)),
                                rounds=1, iterations=1)
    row_major = {p.n: p for p in points if p.mapping_name == "row-major"}
    benchmark.extra_info["n64_read_pct"] = round(row_major[64].read_utilization * 100, 2)
    benchmark.extra_info["n512_read_pct"] = round(row_major[512].read_utilization * 100, 2)
    assert row_major[512].read_utilization < row_major[64].read_utilization
