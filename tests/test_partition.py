"""Graph partitioning tests (section 3.3.1)."""


import pytest

from repro.core.partition import merged_footprint_bytes, partition_graph
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.spec import A100, GPUSpec

from testlib import residual_graph, small_chain_graph


def all_partition_nodes(views):
    ids = []
    for v in views:
        ids.extend(v.node_ids)
    return ids


class TestStructure:
    def test_covers_every_non_input_node_once(self):
        g = small_chain_graph()
        views = partition_graph(g)
        ids = all_partition_nodes(views)
        expected = [n.node_id for n in g.nodes if not n.is_input]
        assert sorted(ids) == expected

    def test_views_are_contiguous_id_ranges(self):
        g = residual_graph()
        for v in partition_graph(g):
            ids = list(v.node_ids)
            assert ids == list(range(ids[0], ids[-1] + 1))

    def test_global_ops_isolated(self):
        g = small_chain_graph()
        views = partition_graph(g)
        for v in views:
            if any(g.node(i).op.is_global for i in v.node_ids):
                assert len(v) == 1

    def test_reduction_closes_subgraph(self):
        g = small_chain_graph()
        for v in partition_graph(g):
            members = [g.node(i) for i in v.node_ids]
            reductions = [n for n in members if n.op.is_reduction]
            if reductions:
                assert members[-1] is reductions[-1]

    def test_resolution_change_closes(self):
        """Strided convs and deconvs end their subgraphs."""
        b = GraphBuilder("updown", TensorSpec(1, 4, (32, 32)))
        b.conv(8, 3, padding=1, name="c1")
        b.conv(8, 3, stride=2, padding=1, name="down")
        b.conv(8, 3, padding=1, name="c2")
        b.deconv(8, 4, stride=2, padding=1, name="up")
        b.conv(8, 3, padding=1, name="c3")
        g = b.finish()
        views = partition_graph(g)
        closers = {g.node("down").node_id, g.node("up").node_id}
        for v in views:
            inner = set(v.node_ids[:-1])
            assert not (inner & closers), "resolution change must be last in its subgraph"


class TestBudget:
    def test_small_budget_forces_splits(self):
        g = residual_graph(size=64)
        small = GPUSpec(l2_bytes=256 * 1024)
        views_small = partition_graph(g, spec=small)
        views_big = partition_graph(g, spec=A100)
        assert len(views_small) >= len(views_big)

    def test_footprint_accounts_entries(self):
        g = small_chain_graph()
        with_entries = merged_footprint_bytes(g, [2, 3], [1])
        without = merged_footprint_bytes(g, [2, 3], [])
        assert with_entries > without


class TestSchedules:
    def proxy(self, layers=6):
        b = GraphBuilder("p", TensorSpec(1, 4, (32, 32)))
        for i in range(layers):
            b.conv(4, 3, padding=0, bias=False, name=f"conv{i}")
        return b.finish()

    @pytest.mark.parametrize("schedule,expected", [
        ((2, 2, 2), [2, 2, 2]),
        ((3, 3), [3, 3]),
        ((4, 2), [4, 2]),
        ((6,), [6]),
    ])
    def test_exact_layer_schedules(self, schedule, expected):
        g = self.proxy(6)
        views = partition_graph(g, layer_schedule=schedule)
        assert [len(v) for v in views] == expected

    def test_schedule_cycles_last_entry(self):
        g = self.proxy(6)
        views = partition_graph(g, layer_schedule=(2,))
        assert [len(v) for v in views] == [2, 2, 2]
