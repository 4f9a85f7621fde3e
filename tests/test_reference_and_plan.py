"""Reference executor, plan structures, and tensor-spec coverage."""

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, Strategy, SubgraphPlan
from repro.core.reference import ReferenceExecutor
from repro.errors import ExecutionError, ShapeError
from repro.graph.tensorspec import TensorSpec
from repro.graph.traversal import subgraph_view

from testlib import input_for, residual_graph, small_chain_graph


class TestTensorSpec:
    def test_shape_and_bytes(self):
        s = TensorSpec(2, 3, (4, 5))
        assert s.shape == (2, 3, 4, 5)
        assert s.num_elements == 120
        assert s.nbytes == 480

    def test_flat_spec(self):
        s = TensorSpec(1, 64)
        assert s.shape == (1, 64) and s.spatial_ndim == 0
        assert s.num_elements == 64

    def test_invalid(self):
        with pytest.raises(ShapeError):
            TensorSpec(0, 3, (4, 4))
        with pytest.raises(ShapeError):
            TensorSpec(1, 3, (0, 4))

    def test_alloc_helpers(self):
        s = TensorSpec(1, 2, (3, 3))
        assert s.zeros().shape == s.shape
        a = s.random(np.random.default_rng(0))
        assert a.dtype == np.float32 and a.shape == s.shape


class TestReferenceExecutor:
    def test_run_all_contains_every_node(self):
        g = small_chain_graph()
        values = ReferenceExecutor(g).run_all(input_for(g))
        assert set(values) == {n.name for n in g.nodes}

    def test_input_shape_validation(self):
        g = small_chain_graph()
        with pytest.raises(ExecutionError):
            ReferenceExecutor(g).run(np.zeros((1, 3, 7, 7), np.float32))

    def test_missing_named_input(self):
        g = small_chain_graph()
        with pytest.raises(ExecutionError):
            ReferenceExecutor(g).run({"wrong": input_for(g)})

    def test_named_input_accepted(self):
        g = small_chain_graph()
        x = input_for(g)
        a = ReferenceExecutor(g).run(x)
        b = ReferenceExecutor(g).run({"input": x})
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_softmax_output_is_distribution(self):
        g = small_chain_graph()
        out = ReferenceExecutor(g).run(input_for(g))["head/softmax"]
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_deterministic(self):
        g = small_chain_graph()
        x = input_for(g)
        a = ReferenceExecutor(g).run(x)["head/softmax"]
        b = ReferenceExecutor(g).run(x)["head/softmax"]
        np.testing.assert_array_equal(a, b)


class TestPlanStructures:
    def _plan(self):
        g = residual_graph()
        view = subgraph_view(g, [1, 2, 3])
        sub = SubgraphPlan(index=0, subgraph=view, strategy=Strategy.PADDED,
                           brick_shape=(4, 4), delta=0.12, rho=64.0)
        return ExecutionPlan(g, [sub])

    def test_describe(self):
        plan = self._plan()
        text = plan.subgraphs[0].describe()
        assert "padded" in text and "4x4" in text and "12.0%" in text

    def test_merged_count(self):
        plan = self._plan()
        assert plan.merged_count == 1
        assert plan.subgraphs[0].is_merged
        assert len(plan.subgraphs[0].subgraph) == 3

    def test_cudnn_not_merged(self):
        g = residual_graph()
        view = subgraph_view(g, [1])
        sub = SubgraphPlan(index=0, subgraph=view, strategy=Strategy.CUDNN)
        assert not sub.is_merged

    def test_summary_lists_all(self):
        plan = self._plan()
        assert "1 merged" in plan.summary()
