"""Traversal, subgraph views and subgraph materialization."""

import numpy as np
import pytest

from repro.core import ReferenceExecutor
from repro.errors import GraphError
from repro.graph.traversal import (
    ancestors,
    descendants,
    materialize_subgraph,
    subgraph_view,
    topological_order,
)

from testlib import input_for, residual_graph, small_chain_graph


class TestOrders:
    def test_topological(self):
        g = small_chain_graph()
        order = topological_order(g)
        seen = set()
        for node in order:
            assert all(i in seen for i in node.inputs)
            seen.add(node.node_id)

    def test_ancestors_and_descendants(self):
        g = residual_graph()
        stem = g.node("stem/relu").node_id
        add = g.node("b1/add").node_id
        up = ancestors(g, [add])
        assert stem in up and add not in up
        assert all(i in up for i in g.node(add).inputs)
        down = descendants(g, [stem])
        assert add in down and stem not in down
        # The nodes strictly between two members: both walks meet there.
        between = descendants(g, [stem]) & ancestors(g, [add])
        assert {g.node(n).name for n in between} >= {"b1/conv1", "b1/conv2"}
        assert stem not in between and add not in between


class TestSubgraphView:
    def test_entries_and_exits(self):
        g = residual_graph()
        ids = [g.node(n).node_id for n in ("b1/conv1", "b1/bn1", "b1/relu1", "b1/conv2", "b1/bn2", "b1/add")]
        view = subgraph_view(g, ids)
        entry_names = {g.node(i).name for i in view.entry_ids}
        # The add's skip input and conv1's input are both the stem output.
        assert entry_names == {"stem/relu"}
        assert [g.node(i).name for i in view.exit_ids] == ["b1/add"]

    def test_depth(self):
        g = small_chain_graph()
        ids = [g.node(n).node_id for n in ("c1/conv", "c1/bn", "c1/relu")]
        assert subgraph_view(g, ids).depth == 3

    def test_contains(self):
        g = small_chain_graph()
        view = subgraph_view(g, [1, 2])
        assert 1 in view and 5 not in view

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            subgraph_view(small_chain_graph(), [])


class TestMaterialize:
    def test_standalone_equivalence(self):
        """A materialized subgraph computes the same values as in-situ."""
        g = residual_graph()
        g.init_weights()
        x = input_for(g)
        full = ReferenceExecutor(g).run_all(x)

        ids = [g.node(n).node_id for n in ("b1/conv1", "b1/bn1", "b1/relu1", "b1/conv2", "b1/bn2", "b1/add")]
        view = subgraph_view(g, ids)
        sub = materialize_subgraph(view)
        # Copy weights from the parent so numerics match.
        for nid in view.node_ids:
            sub.node(g.node(nid).name).weights = g.node(nid).weights
        feeds = {f"in/{g.node(i).name}": full[g.node(i).name] for i in view.entry_ids}
        out = ReferenceExecutor(sub).run(feeds)
        np.testing.assert_allclose(out["b1/add"], full["b1/add"], rtol=1e-5, atol=1e-5)

    def test_multi_exit(self):
        g = residual_graph()
        ids = [g.node("b2/conv1").node_id, g.node("b2/bn1").node_id]
        view = subgraph_view(g, ids)
        sub = materialize_subgraph(view)
        assert len(sub.output_nodes) == len(view.exit_ids)
