"""Integration: data path + DRAM path + system analysis together."""

import numpy as np
import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_interleaver
from repro.interleaver.triangular import TriangularIndexSpace
from repro.interleaver.two_stage import TwoStageConfig, TwoStageInterleaver
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping
from repro.system.downlink import OpticalDownlink
from repro.system.throughput import provision, required_channels, throughput_report


class TestDataPathMatchesDramPath:
    """The DRAM mapping must realize exactly the permutation the
    functional interleaver applies: reading addresses in column order
    returns elements in the order the triangular interleaver emits."""

    def test_addresses_realize_the_permutation(self, ddr4):
        n = 32
        space = TriangularIndexSpace(n)
        mapping = OptimizedMapping(space, ddr4.geometry)

        # "Write" element ids row-wise into a dict keyed by address.
        memory = {}
        for element_id, (i, j) in enumerate(space.write_order()):
            memory[mapping.address_tuple(i, j)] = element_id

        # "Read" them back column-wise.
        read_back = [memory[mapping.address_tuple(i, j)]
                     for i, j in space.read_order()]

        # Compare with the functional triangular permutation.
        from repro.interleaver.block import TriangularInterleaver
        functional = TriangularInterleaver(n)
        expected = functional.interleave(np.arange(space.num_elements))
        assert read_back == expected.tolist()

    def test_row_major_realizes_same_permutation(self, ddr4):
        n = 24
        space = TriangularIndexSpace(n)
        mapping = RowMajorMapping(space, ddr4.geometry)
        memory = {}
        for element_id, (i, j) in enumerate(space.write_order()):
            memory[mapping.address_tuple(i, j)] = element_id
        read_back = [memory[mapping.address_tuple(i, j)]
                     for i, j in space.read_order()]
        from repro.interleaver.block import TriangularInterleaver
        expected = TriangularInterleaver(n).interleave(np.arange(space.num_elements))
        assert read_back == expected.tolist()


class TestSystemStory:
    """The paper's argument end to end on one configuration."""

    def test_lpddr4_story(self):
        config = get_config("LPDDR4-4266")
        space = TriangularIndexSpace(192)
        row_major = simulate_interleaver(config, RowMajorMapping(space, config.geometry))
        optimized = simulate_interleaver(
            config, OptimizedMapping(space, config.geometry))

        # 1. The baseline read phase collapses; the optimized one does not.
        assert row_major.read_utilization < 0.55
        assert optimized.min_utilization > 0.80

        # 2. Provisioning a 20 Gbit/s link needs fewer optimized channels.
        target = 20.0
        rm_channels = required_channels(throughput_report(config, row_major), target)
        opt_channels = required_channels(throughput_report(config, optimized), target)
        assert opt_channels < rm_channels

        # 3. provision() ranks the optimized mapping first.
        choices = provision(
            [throughput_report(config, row_major),
             throughput_report(config, optimized)],
            target_gbit=target,
        )
        assert choices[0].report.mapping_name == "optimized"

    def test_downlink_needs_the_interleaver(self):
        downlink = OpticalDownlink(
            TwoStageConfig(triangle_n=48, symbols_per_element=4,
                           codeword_symbols=24),
            CodewordConfig(n_symbols=24, t_correctable=2),
            GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                                 p_bad=0.7),
            rng=np.random.default_rng(99),
        )
        result = downlink.run(frames=30)
        assert result.baseline.failed > 3 * result.interleaved.failed


@pytest.mark.slow
class TestLargerScale:
    """Closer-to-paper scale spot check (a few seconds)."""

    def test_ddr4_3200_read_collapse_at_scale(self):
        config = get_config("DDR4-3200")
        space = TriangularIndexSpace(768)
        row_major = simulate_interleaver(config, RowMajorMapping(space, config.geometry))
        optimized = simulate_interleaver(
            config, OptimizedMapping(space, config.geometry))
        assert row_major.read_utilization < 0.55      # paper: 43.5 %
        assert row_major.write_utilization > 0.90     # paper: 91.8 %
        assert optimized.min_utilization > 0.80       # paper: 91.9 %
