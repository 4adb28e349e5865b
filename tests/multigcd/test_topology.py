"""Tests for the two-tier (Frontier node) interconnect topology."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.stats import bfs_levels_reference, pick_sources
from repro.multigcd import (
    INFINITY_FABRIC,
    SLINGSHOT,
    Grid2dBFS,
    MultiGcdBFS,
    TwoTierInterconnect,
)
from repro.multigcd.topology import FRONTIER_NODE_GCDS


class TestTwoTier:
    def test_intra_node_traffic_priced_at_fast_tier(self):
        t = TwoTierInterconnect(gcds_per_node=8)
        m = np.zeros((8, 8))
        m[0, 7] = m[7, 0] = 1e8  # same node
        assert t.alltoall_ms(m) == pytest.approx(INFINITY_FABRIC.alltoall_ms(m))

    def test_inter_node_traffic_priced_at_slow_tier(self):
        t = TwoTierInterconnect(gcds_per_node=8)
        m = np.zeros((16, 16))
        m[0, 8] = m[8, 0] = 1e8  # across nodes
        assert t.alltoall_ms(m) == pytest.approx(SLINGSHOT.alltoall_ms(m))

    def test_mixed_traffic_max_of_phases(self):
        t = TwoTierInterconnect(gcds_per_node=2)
        m = np.zeros((4, 4))
        m[0, 1] = 1e8   # intra
        m[0, 2] = 1e8   # inter
        intra_only = np.zeros((4, 4)); intra_only[0, 1] = 1e8
        inter_only = np.zeros((4, 4)); inter_only[0, 2] = 1e8
        expected = max(
            t.intra.alltoall_ms(intra_only), t.inter.alltoall_ms(inter_only)
        )
        assert t.alltoall_ms(m) == pytest.approx(expected)

    def test_single_part_free(self):
        assert TwoTierInterconnect().alltoall_ms(np.zeros((1, 1))) == 0.0

    def test_validation(self):
        with pytest.raises(PartitionError):
            TwoTierInterconnect(gcds_per_node=0)
        with pytest.raises(PartitionError):
            TwoTierInterconnect().alltoall_ms(np.zeros((2, 3)))

    def test_frontier_constant(self):
        assert FRONTIER_NODE_GCDS == 8


class TestMultiNodeBFS:
    def test_correctness_across_two_nodes(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        engine = MultiGcdBFS(
            small_rmat, 16, interconnect=TwoTierInterconnect()
        )
        result = engine.run_batch([source])
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(small_rmat, source)
        )

    def test_crossing_nodes_costs_more(self, social_graph):
        """16 GCDs on two nodes pay more communication time than 16
        GCDs sharing one (hypothetical) node."""
        source = int(pick_sources(social_graph, 1, seed=0)[0])
        two_nodes = MultiGcdBFS(
            social_graph, 16,
            interconnect=TwoTierInterconnect(gcds_per_node=8),
        ).run_batch([source])
        one_node = MultiGcdBFS(
            social_graph, 16,
            interconnect=TwoTierInterconnect(gcds_per_node=16),
        ).run_batch([source])
        assert two_nodes.comm_ms > one_node.comm_ms
        assert np.array_equal(two_nodes.levels, one_node.levels)

    @pytest.mark.parametrize("engine", [MultiGcdBFS, Grid2dBFS], ids=["1d", "4x4"])
    def test_codec_on_two_tiers_prices_like_one(self, small_rmat, engine):
        """The codec's format pick is a byte comparison, so it needs
        nothing from the interconnect: on two tiers a 16-GCD pod with
        the codec on answers like the oracle and ships the bytes it
        ships on Infinity Fabric alone; only the exchange time moves."""
        sources = pick_sources(small_rmat, 2, seed=1)
        tiers = engine(
            small_rmat, 16, interconnect=TwoTierInterconnect(), codec=True
        ).run_batch(sources)
        fabric = engine(
            small_rmat, 16, interconnect=INFINITY_FABRIC, codec=True
        ).run_batch(sources)
        for s in sources.tolist():
            assert np.array_equal(tiers.levels_of(s), bfs_levels_reference(small_rmat, s))
        assert tiers.bytes_exchanged == fabric.bytes_exchanged
        assert tiers.level_comm_bytes == fabric.level_comm_bytes
        assert tiers.level_formats == fabric.level_formats
        assert sum(f["bitmap"] for f in tiers.level_formats) > 0
        assert tiers.compute_ms == fabric.compute_ms
