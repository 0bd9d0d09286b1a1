#!/usr/bin/env python
"""DRAM provisioning for a 100 Gbit/s interleaver (paper Sec. I).

Because interleaver throughput is set by min(write, read) utilization,
the row-major mapping forces a designer to buy much more raw DRAM
bandwidth than the link needs.  This example sizes the memory system
for a 100 Gbit/s optical downlink with both mappings on every Table I
configuration and prints the raw bandwidth each option costs.

Run:  python examples/capacity_planning.py  (about a minute)
"""

from repro import (
    OptimizedMapping,
    RowMajorMapping,
    TABLE1_CONFIG_NAMES,
    TriangularIndexSpace,
    get_config,
    provision,
    simulate_interleaver,
    throughput_report,
)

TARGET_GBIT = 100.0


def main() -> None:
    """Size the memory for both mappings on every configuration and print it."""
    space = TriangularIndexSpace(256)
    reports = []
    print(f"Sizing for a {TARGET_GBIT:.0f} Gbit/s interleaver "
          f"(every symbol crosses DRAM twice)\n")
    print(f"{'configuration':14s} {'mapping':10s} {'min util':>9s} "
          f"{'sustained':>10s} {'channels':>9s} {'raw bought':>11s}")
    for name in TABLE1_CONFIG_NAMES:
        config = get_config(name)
        for mapping in (RowMajorMapping(space, config.geometry),
                        OptimizedMapping(space, config.geometry)):
            result = simulate_interleaver(config, mapping)
            report = throughput_report(config, result)
            reports.append(report)
            choice = provision([report], TARGET_GBIT)[0]
            print(f"{name:14s} {report.mapping_name:10s} "
                  f"{report.min_utilization:9.1%} "
                  f"{report.sustained_gbit:8.1f}Gb "
                  f"{choice.channels:9d} "
                  f"{choice.total_peak_gbit:9.0f}Gb")

    print("\nCheapest overall options:")
    for choice in provision(reports, TARGET_GBIT)[:5]:
        report = choice.report
        print(f"  {report.config_name:14s} {report.mapping_name:10s} "
              f"{choice.channels} channel(s), {choice.total_peak_gbit:.0f} Gbit/s raw "
              f"({choice.oversizing_factor:.2f}x the theoretical minimum)")
    print("\nWherever the row-major read phase collapses (DDR4, LPDDR4, LPDDR5")
    print("fast grades), the optimized mapping halves the raw bandwidth bill;")
    print("that over-provisioning tax is what the paper eliminates.")


if __name__ == "__main__":
    main()
