"""Visualization, GPU presets, batch support, and failure-injection tests."""

import numpy as np
import pytest

from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.graph.visualize import ascii_plan, to_dot
from repro.gpusim.spec import A100, A100_SMALL_L2, GENERIC_16SM, MI100, GPUSpec

from testlib import input_for, residual_graph, small_chain_graph


class TestVisualize:
    def test_dot_structure(self):
        g = small_chain_graph()
        dot = to_dot(g)
        assert dot.startswith("digraph")
        assert dot.count("->") == sum(len(n.inputs) for n in g.nodes)
        for node in g.nodes:
            assert node.name in dot

    def test_dot_with_plan_colors_merged(self):
        g = small_chain_graph(size=48)
        plan = BrickDLEngine(g).compile()
        dot = to_dot(g, plan)
        assert "#a6cee3" in dot or "#b2df8a" in dot  # at least one merged color

    def test_ascii_plan(self):
        g = small_chain_graph(size=48)
        plan = BrickDLEngine(g).compile()
        text = ascii_plan(g, plan)
        assert "subgraph 0" in text
        for node in g.nodes:
            if not node.is_input:
                assert node.name in text


class TestSpecs:
    def test_presets_distinct(self):
        assert MI100.l2_bytes < A100.l2_bytes
        assert MI100.num_sms != A100.num_sms
        assert A100_SMALL_L2.l2_bytes == 10 * 1024 * 1024
        assert GENERIC_16SM.num_sms == 16

    def test_with_l2_naming(self):
        s = A100.with_l2(20 * 1024 * 1024)
        assert "20MB" in s.name and s.l2_bytes == 20 * 1024 * 1024

    def test_engine_runs_on_other_specs(self):
        for spec in (MI100, GENERIC_16SM, A100_SMALL_L2):
            g = small_chain_graph(size=48)
            res = BrickDLEngine(g, spec=spec).run(inputs=None, functional=False)
            assert res.metrics.total_time > 0

    def test_smaller_l2_more_dram(self):
        """Layer-by-layer execution re-reads activations: with a tiny L2
        they stream from DRAM instead of hitting cache."""
        from repro.baselines import CudnnBaseline

        g1 = small_chain_graph(size=64)
        big = CudnnBaseline(g1, spec=A100).run()
        g2 = small_chain_graph(size=64)
        tiny = CudnnBaseline(g2, spec=A100.with_l2(128 * 1024)).run()
        assert tiny.metrics.memory.dram_txns > big.metrics.memory.dram_txns


class TestBatchSupport:
    @pytest.mark.parametrize("strategy", [Strategy.PADDED, Strategy.MEMOIZED])
    def test_batch_two_matches_reference(self, strategy):
        from repro.graph.builder import GraphBuilder
        from repro.graph.tensorspec import TensorSpec

        def make():
            b = GraphBuilder("b2", TensorSpec(2, 3, (24, 24)))
            b.conv_bn_relu(4, 3, prefix="c1")
            b.conv(4, 3, padding=1, name="c2")
            return b.finish()

        g = make()
        g.init_weights()
        x = np.random.default_rng(0).standard_normal((2, 3, 24, 24)).astype(np.float32)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(make(), strategy_override=strategy, brick_override=4,
                            layer_schedule=(4,)).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)

    def test_batch_samples_independent(self):
        """Each batch sample's result is independent of the others."""
        from repro.graph.builder import GraphBuilder
        from repro.graph.tensorspec import TensorSpec

        def make(batch):
            b = GraphBuilder("bi", TensorSpec(batch, 2, (16, 16)))
            b.conv(4, 3, padding=1, name="c")
            return b.finish()

        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2, 16, 16)).astype(np.float32)
        g2 = make(2)
        g2.init_weights(seed=9)
        both = ReferenceExecutor(g2).run(x)["c"]
        g1 = make(1)
        g1.init_weights(seed=9)
        single = ReferenceExecutor(g1).run(x[:1])["c"]
        np.testing.assert_allclose(both[:1], single, atol=1e-5)


class TestFailureInjection:
    def test_memoized_single_worker(self):
        """A one-SM device serializes everything but stays correct."""
        g = small_chain_graph(size=48)
        g.init_weights()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        one_sm = GPUSpec(num_sms=1)
        res = BrickDLEngine(small_chain_graph(size=48), spec=one_sm,
                            strategy_override=Strategy.MEMOIZED).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)

    def test_brick_bigger_than_layer(self):
        """Brick sizes exceeding activation extents are clipped, not fatal."""
        g = small_chain_graph(size=48)
        g.init_weights()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(small_chain_graph(size=48), strategy_override=Strategy.PADDED,
                            brick_override=64).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)

    def test_residual_with_forced_wavefront_everywhere(self):
        """Wavefront on branchy subgraphs silently falls back yet stays exact."""
        g = residual_graph()
        g.init_weights()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(residual_graph(), strategy_override=Strategy.WAVEFRONT,
                            brick_override=4).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)

    def test_deep_variants_build_and_plan(self):
        from repro.models import build

        for name in ("resnet101", "vgg19"):
            g = build(name, reduced=True)
            plan = BrickDLEngine(g).compile()
            assert len(plan.subgraphs) > 0
