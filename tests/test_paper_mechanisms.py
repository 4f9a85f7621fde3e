"""Tests that pin the paper's *mechanism* claims, figure by figure.

These are quantitative checks of the illustrative figures (1-6), not the
evaluation figures (7-11, which live in benchmarks/): redundant halo
computation, fusion's conv-chain limitation, merged execution's
synchronization structure, and mixed-precision memory behavior.
"""

import numpy as np

from repro.baselines import fuse_graph
from repro.bench.harness import run_brickdl
from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec

from testlib import input_for


def fig1_graph(length=64, channels=2):
    """The paper's Fig. 1: a subgraph with two 1-D convolutions."""
    b = GraphBuilder("fig1", TensorSpec(1, channels, (length,)))
    b.conv(channels, 3, padding=1, bias=False, name="conv1")
    b.conv(channels, 3, padding=1, bias=False, name="conv2")
    return b.finish()


class TestFig1RedundantComputation:
    """Fig. 1/2(c): padded execution recomputes halo regions; Fig. 1/5:
    memoized execution averts exactly that redundancy."""

    def _flops(self, strategy):
        row, _ = run_brickdl(fig1_graph(), strategy=strategy, brick=8,
                             layer_schedule=(2,))
        return row

    def test_padded_recomputes_memoized_does_not(self):
        padded = self._flops(Strategy.PADDED)
        memo = self._flops(Strategy.MEMOIZED)
        # Identical work modulo the halo pyramid: padded burns more flops.
        assert padded.compute > memo.compute
        # Memoized pays instead in atomics (two compulsory CAS per brick).
        assert memo.atomics_compulsory_count == 2 * memo.num_tasks or \
            memo.atomics_compulsory_count > 0

    def test_memoized_computes_each_brick_once(self):
        g = fig1_graph()
        g.init_weights()
        from repro.core.bricked import BrickedTensor
        from repro.core.handles import BrickedHandle
        from repro.core.memoized import MemoizedBrickExecutor
        from repro.graph.traversal import subgraph_view
        from repro.gpusim.device import Device

        x = input_for(g)
        view = subgraph_view(g, [1, 2])
        dev = Device()
        bt = BrickedTensor.from_dense(x, (8,))
        entry = BrickedHandle(spec=g.node(0).spec, grid=bt.grid,
                              buffer=dev.allocate("in", bt.nbytes), data=bt)
        ex = MemoizedBrickExecutor(view, (8,), dev, {0: entry}, {})
        ex.run()
        total_bricks = sum(h.grid.num_bricks for h in ex.memo.values())
        assert len(dev.tasks) == total_bricks  # exactly once, never thrice

    def test_merged_1d_exact(self):
        g = fig1_graph()
        g.init_weights()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        for strategy in (Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT):
            res = BrickDLEngine(fig1_graph(), strategy_override=strategy,
                                brick_override=8, layer_schedule=(2,)).run(x)
            np.testing.assert_allclose(res.outputs["conv2"], ref["conv2"], atol=1e-4)


class TestFig2FusionLimitation:
    """Section 2 / Fig. 2(b): operator fusion cannot fuse back-to-back
    convolutions -- only pointwise followers."""

    def test_conv_chain_not_fused(self):
        b = GraphBuilder("t", TensorSpec(1, 4, (16, 16)))
        b.conv(4, 3, padding=1, name="conv1")
        b.conv(4, 3, padding=1, name="conv2")
        g = b.finish()
        groups = fuse_graph(g)
        assert len(groups) == 2  # two kernels, not one

    def test_conv_pointwise_is_fused(self):
        b = GraphBuilder("t", TensorSpec(1, 4, (16, 16)))
        b.conv(4, 3, padding=1, name="conv")
        b.relu(name="relu")
        g = b.finish()
        assert len(fuse_graph(g)) == 1

    def test_merged_execution_does_merge_conv_chains(self):
        """The gap BrickDL fills: one merged subgraph spans both convs."""
        g = fig1_graph()
        plan = BrickDLEngine(g, brick_override=8, layer_schedule=(2,)).compile()
        merged = [s for s in plan.subgraphs if s.is_merged]
        assert len(merged) == 1 and len(merged[0].subgraph) == 2


class TestFig3Synchronization:
    """Fig. 3: per-operator sync for conventional execution vs one sync per
    merged subgraph."""

    def test_sync_counts(self):
        from repro.baselines import CudnnBaseline
        from repro.gpusim.device import Device

        g1 = fig1_graph(length=128)
        dev1 = Device()
        CudnnBaseline(g1).run(functional=False, device=dev1)
        g2 = fig1_graph(length=128)
        eng = BrickDLEngine(g2, strategy_override=Strategy.PADDED, brick_override=8,
                            layer_schedule=(2,))
        dev2 = Device()
        eng.run(inputs=None, functional=False, device=dev2)
        assert dev2._sync_count < dev1._sync_count


class TestMixedPrecision:
    """fp16 halves every activation byte count; the simulator's transaction
    counters must reflect it."""

    def _graph(self, dtype):
        b = GraphBuilder(f"p{np.dtype(dtype).name}", TensorSpec(1, 8, (48, 48), dtype=dtype))
        b.conv(8, 3, padding=1, name="c1")
        b.conv(8, 3, padding=1, name="c2")
        return b.finish()

    def test_fp16_functional(self):
        g = self._graph(np.float16)
        g.init_weights()
        x = np.random.default_rng(0).standard_normal((1, 8, 48, 48)).astype(np.float16)
        out = ReferenceExecutor(g).run(x)
        assert out["c2"].dtype == np.float16

    def test_fp16_halves_brick_bytes(self):
        from repro.core.bricked import BrickedTensor

        x32 = np.zeros((1, 8, 48, 48), np.float32)
        x16 = x32.astype(np.float16)
        assert BrickedTensor.from_dense(x16, (4, 4)).brick_nbytes * 2 == \
            BrickedTensor.from_dense(x32, (4, 4)).brick_nbytes

    def test_fp16_reduces_dram_traffic(self):
        res32 = BrickDLEngine(self._graph(np.float32), strategy_override=Strategy.MEMOIZED,
                              brick_override=4, layer_schedule=(2,)).run(
                              inputs=None, functional=False)
        res16 = BrickDLEngine(self._graph(np.float16), strategy_override=Strategy.MEMOIZED,
                              brick_override=4, layer_schedule=(2,)).run(
                              inputs=None, functional=False)
        ratio = res16.metrics.memory.dram_txns / res32.metrics.memory.dram_txns
        assert 0.35 < ratio < 0.75  # ~half the bytes, same weight structure
