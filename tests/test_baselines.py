"""Baseline system tests: fusion pass and the three conventional executors."""

import pytest

from repro.baselines import CudnnBaseline, TorchScriptBaseline, XlaBaseline, fuse_graph
from repro.baselines.tiled import slab_tiles, spatial_tiles, adaptive_tiles

from testlib import residual_graph, small_chain_graph


class TestFusion:
    def test_conv_absorbs_pointwise_chain(self):
        g = small_chain_graph()
        groups = fuse_graph(g)
        by_primary = {grp.primary.name: grp for grp in groups}
        cbr = by_primary["c1/conv"]
        assert [n.name for n in cbr.fused] == ["c1/bn", "c1/relu"]

    def test_residual_add_absorbed(self):
        g = residual_graph()
        groups = fuse_graph(g)
        fused_names = {n.name for grp in groups for n in grp.fused}
        assert "b1/add" in fused_names

    def test_every_node_in_exactly_one_group(self):
        g = residual_graph()
        groups = fuse_graph(g)
        names = [n.name for grp in groups for n in grp.nodes]
        expected = [n.name for n in g.nodes if not n.is_input]
        assert sorted(names) == sorted(expected)

    def test_disabled_fusion_is_one_group_per_node(self):
        g = small_chain_graph()
        groups = fuse_graph(g, enabled=False)
        assert all(not grp.fused for grp in groups)

    def test_branch_point_not_absorbed(self):
        """A node with two consumers ends its group."""
        g = residual_graph()
        groups = fuse_graph(g)
        for grp in groups:
            for node in grp.nodes[:-1]:
                assert len(g.consumers(node)) == 1


class TestTiles:
    def test_spatial_cover(self):
        tiles = list(spatial_tiles((10, 7), (4, 4)))
        assert len(tiles) == 3 * 2
        covered = sum(t.size for t in tiles)
        assert covered == 70

    def test_slabs(self):
        slabs = list(slab_tiles((100, 20), 8))
        assert sum(s.size for s in slabs) == 2000
        assert len(slabs) <= 8

    def test_adaptive_shrinks(self):
        tiles = list(adaptive_tiles((32, 32), 32, num_sms=108))
        assert len(tiles) >= 2 * 108 or len(tiles) == 64  # bottomed at 4


@pytest.mark.parametrize("cls", [CudnnBaseline, TorchScriptBaseline, XlaBaseline])
class TestBaselineExecution:
    def test_profile_mode(self, cls):
        res = cls(small_chain_graph(size=32)).run()
        assert res.metrics.total_time > 0
        assert res.metrics.memory.dram_txns > 0


class TestBaselineCharacter:
    def test_xla_fewer_syncs_than_cudnn(self):
        """XLA amortizes barriers over group clusters."""
        g1 = small_chain_graph(size=32)
        g2 = small_chain_graph(size=32)
        c = CudnnBaseline(g1).run()
        x = XlaBaseline(g2).run()
        # Same graph, same groups; the sync cadence differs -> XLA's "other"
        # overhead cannot exceed cuDNN's.
        assert x.metrics.time.total <= c.metrics.time.total + 1e-9

    def test_unfused_writes_more_activation_traffic(self):
        from repro.baselines.conventional import ConventionalExecutor

        g1 = small_chain_graph(size=48)
        fused = ConventionalExecutor(g1, fuse=True).run()
        g2 = small_chain_graph(size=48)
        unfused = ConventionalExecutor(g2, fuse=False).run()
        assert unfused.metrics.memory.l1_txns > fused.metrics.memory.l1_txns
