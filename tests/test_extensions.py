"""Tests for the section-6 extension features: wavefront execution, the
empirical tuner, Morton brick ordering, the profiler report, and the CLI."""

import numpy as np
import pytest

from repro.bench.proxies import conv_chain_3d
from repro.core.brick import morton_map, morton_permutation
from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.core.tuner import tune_plan
from repro.core.wavefront import WavefrontBrickExecutor, is_chain_subgraph, skew_factor
from repro.errors import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.graph.traversal import subgraph_view

from testlib import input_for, residual_graph, small_chain_graph


def chain_2d(layers=3, size=24, c=4):
    b = GraphBuilder("chain", TensorSpec(1, c, (size, size)))
    for i in range(layers):
        b.conv(c, 3, padding=1, bias=False, name=f"conv{i}")
    return b.finish()


class TestWavefront:
    def test_chain_detection(self):
        g = chain_2d()
        assert is_chain_subgraph(subgraph_view(g, [1, 2, 3]))
        r = residual_graph()
        # A skip whose source is an *entry* is still a chain (always ready)...
        ids = [r.node(n).node_id for n in ("b1/conv1", "b1/bn1", "b1/relu1", "b1/conv2", "b1/bn2", "b1/add")]
        assert is_chain_subgraph(subgraph_view(r, ids))
        # ...but including the skip source makes it a genuine branch.
        ids = [r.node("stem/relu").node_id] + ids
        assert not is_chain_subgraph(subgraph_view(r, ids))

    def test_skew_factor_covers_halo(self):
        g = chain_2d()
        view = subgraph_view(g, [1, 2, 3])
        assert skew_factor(view, (4, 4)) >= 2  # 3x3 conv reaches 1 brick

    def test_pointwise_chain_skew_is_one(self):
        b = GraphBuilder("pw", TensorSpec(1, 2, (16, 16)))
        b.relu(name="r")
        b.batchnorm(name="bn")
        g = b.finish()
        view = subgraph_view(g, [1, 2])
        assert skew_factor(view, (4, 4)) == 1

    @pytest.mark.parametrize("make,sched", [
        (lambda: chain_2d(3, 24), (3,)),
        (lambda: conv_chain_3d(2, 12, channels=4, in_channels=2), (2,)),
    ])
    def test_matches_reference(self, make, sched):
        g = make()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(make(), strategy_override=Strategy.WAVEFRONT,
                            brick_override=4, layer_schedule=sched).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)

    def test_no_atomics_exactly_once(self):
        g = chain_2d(3, 24)
        res = BrickDLEngine(g, strategy_override=Strategy.WAVEFRONT,
                            brick_override=4, layer_schedule=(3,)).run(
                            inputs=None, functional=False)
        assert res.metrics.atomics.total == 0

    def test_branch_falls_back_to_memoized(self):
        """Forcing wavefront on a branchy graph must still be correct."""
        g = residual_graph()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(residual_graph(), strategy_override=Strategy.WAVEFRONT).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)

    def test_executor_rejects_branches_directly(self):
        r = residual_graph()
        ids = [r.node(n).node_id for n in ("stem/relu", "b1/conv1", "b1/bn1", "b1/relu1",
                                           "b1/conv2", "b1/bn2", "b1/add")]
        view = subgraph_view(r, ids)
        from repro.gpusim.device import Device

        with pytest.raises(ExecutionError):
            WavefrontBrickExecutor(subgraph=view, brick_shape=(4, 4), device=Device(),
                                   entries={}, weight_buffers={})

    def test_wave_count(self):
        g = chain_2d(2, 16)
        from repro.bench.harness import run_brickdl

        row, plan = run_brickdl(g, strategy=Strategy.WAVEFRONT, brick=4, layer_schedule=(2,))
        # 4x4 grid x 2 layers, plus the output from-bricks materialization.
        assert row.num_tasks == 2 * 16 + 1


class TestTuner:
    def test_tuned_plan_executes_correctly(self):
        g = small_chain_graph(size=48)
        plan, report = tune_plan(g, bricks=(4, 8))
        assert report.choices, "nothing was tuned"
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(g).run(x, plan=plan)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)

    def test_tuned_never_worse_than_model(self):
        g = small_chain_graph(size=48)
        _, report = tune_plan(g, bricks=(4, 8))
        for c in report.choices:
            assert c.time <= c.model_time + 1e-12

    def test_report_summary(self):
        g = small_chain_graph(size=48)
        _, report = tune_plan(g, bricks=(4,))
        text = report.summary()
        assert "agreement" in text and "subgraph" in text
        assert 0.0 <= report.strategy_agreement <= 1.0


class TestMortonOrder:
    def test_permutation_is_bijection(self):
        perm = morton_permutation((4, 6))
        assert sorted(perm) == list(range(24))

    def test_z_order_quads(self):
        bm = morton_map((4, 4))
        assert sorted(bm.physical(p) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]) == [0, 1, 2, 3]
        assert sorted(bm.physical(p) for p in [(2, 2), (2, 3), (3, 2), (3, 3)]) == [12, 13, 14, 15]

    def test_3d(self):
        perm = morton_permutation((2, 2, 2))
        assert sorted(perm) == list(range(8))

    def test_non_power_of_two(self):
        bm = morton_map((3, 5))
        assert bm.num_bricks == 15
        for pos, phys in bm:
            assert bm.logical(phys) == pos


class TestReportAndCli:
    def test_profile_report_fields(self):
        from repro.gpusim.report import profile_report
        from repro.gpusim.spec import A100

        res = BrickDLEngine(small_chain_graph(size=48)).run(inputs=None, functional=False)
        text = profile_report(res.metrics, A100, title="test")
        for needle in ("DRAM", "L2", "atomic", "compute", "total"):
            assert needle in text

    def test_cli_microbench(self, capsys):
        from repro.cli import main

        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "87.45" in out and "6.7" in out

    def test_cli_plan(self, capsys):
        from repro.cli import main

        assert main(["plan", "vgg16", "--reduced"]) == 0
        assert "ExecutionPlan" in capsys.readouterr().out

    def test_cli_run(self, capsys):
        from repro.cli import main

        assert main(["run", "vgg16", "--reduced"]) == 0
        assert "profile" in capsys.readouterr().out

    def test_cli_bad_figure(self, capsys):
        from repro.cli import main

        assert main(["fig", "3"]) == 2
