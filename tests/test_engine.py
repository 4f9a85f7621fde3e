"""BrickDL engine tests: compilation decisions and end-to-end execution."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.errors import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.models import zoo

from testlib import input_for, random_dag, residual_graph, small_chain_graph


class TestCompile:
    def test_plan_covers_graph(self):
        g = small_chain_graph()
        plan = BrickDLEngine(g).compile()
        ids = [i for s in plan.subgraphs for i in s.subgraph.node_ids]
        assert sorted(ids) == [n.node_id for n in g.nodes if not n.is_input]

    def test_global_ops_use_cudnn(self):
        g = small_chain_graph()
        plan = BrickDLEngine(g).compile()
        for s in plan.subgraphs:
            if any(g.node(i).op.is_global for i in s.subgraph.node_ids):
                assert s.strategy is Strategy.CUDNN

    def test_tiny_layers_fall_back(self):
        g = small_chain_graph(size=24)  # post-pool layers are tiny
        plan = BrickDLEngine(g).compile()
        assert all(s.strategy is Strategy.CUDNN for s in plan.subgraphs)

    def test_large_image_gets_merged_subgraphs(self):
        g = small_chain_graph(size=48)
        plan = BrickDLEngine(g).compile()
        assert plan.merged_count >= 1

    def test_strategy_override(self):
        g = small_chain_graph(size=48)
        plan = BrickDLEngine(g, strategy_override=Strategy.PADDED).compile()
        for s in plan.subgraphs:
            assert s.strategy in (Strategy.PADDED, Strategy.CUDNN)

    def test_brick_override(self):
        g = small_chain_graph(size=64)
        plan = BrickDLEngine(g, brick_override=8).compile()
        merged = [s for s in plan.subgraphs if s.is_merged]
        assert merged and all(max(s.brick_shape) == 8 for s in merged)

    def test_plan_summary_renders(self):
        plan = BrickDLEngine(small_chain_graph(size=48)).compile()
        text = plan.summary()
        assert "subgraph" in text and "ExecutionPlan" in text


class TestRun:
    @pytest.mark.parametrize("strategy", [None, Strategy.PADDED, Strategy.MEMOIZED])
    def test_matches_reference_chain(self, strategy):
        g = small_chain_graph(size=48)
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(small_chain_graph(size=48), strategy_override=strategy).run(x)
        for name, expected in ref.items():
            np.testing.assert_allclose(res.outputs[name], expected, atol=1e-4, rtol=1e-3)

    @pytest.mark.parametrize("strategy", [Strategy.PADDED, Strategy.MEMOIZED])
    def test_matches_reference_residual(self, strategy):
        g = residual_graph(size=32)
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(residual_graph(size=32), strategy_override=strategy).run(x)
        for name, expected in ref.items():
            np.testing.assert_allclose(res.outputs[name], expected, atol=1e-4, rtol=1e-3)

    def test_profile_mode_needs_no_inputs(self):
        g = small_chain_graph(size=48)
        res = BrickDLEngine(g).run(inputs=None, functional=False)
        assert res.outputs is None
        assert res.metrics.num_tasks > 0
        assert res.metrics.total_time > 0

    def test_profile_and_functional_same_traffic(self):
        g1 = small_chain_graph(size=48)
        r1 = BrickDLEngine(g1).run(inputs=None, functional=False)
        g2 = small_chain_graph(size=48)
        r2 = BrickDLEngine(g2).run(input_for(g2), functional=True)
        assert r1.metrics.memory.dram_txns == r2.metrics.memory.dram_txns
        assert r1.metrics.num_tasks == r2.metrics.num_tasks

    def test_functional_requires_inputs(self):
        g = small_chain_graph(size=48)
        with pytest.raises(ExecutionError):
            BrickDLEngine(g).run(inputs=None, functional=True)

    def test_input_shape_checked(self):
        g = small_chain_graph(size=48)
        with pytest.raises(ExecutionError):
            BrickDLEngine(g).run(np.zeros((1, 3, 8, 8), np.float32))

    def test_layer_schedule_forces_merges(self):
        b = GraphBuilder("p", TensorSpec(1, 4, (32, 32)))
        for i in range(4):
            b.conv(4, 3, padding=0, bias=False, name=f"conv{i}")
        g = b.finish()
        eng = BrickDLEngine(g, strategy_override=Strategy.PADDED, brick_override=4,
                            layer_schedule=(2, 2))
        plan = eng.compile()
        assert [len(s.subgraph) for s in plan.subgraphs] == [2, 2]
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = eng.run(x)
        for name, expected in ref.items():
            np.testing.assert_allclose(res.outputs[name], expected, atol=1e-4, rtol=1e-3)

    def test_memoized_emits_atomics_padded_does_not(self):
        g = small_chain_graph(size=48)
        rm = BrickDLEngine(g, strategy_override=Strategy.MEMOIZED).run(
            inputs=None, functional=False)
        rp = BrickDLEngine(small_chain_graph(size=48), strategy_override=Strategy.PADDED).run(
            inputs=None, functional=False)
        assert rm.metrics.atomics.compulsory > 0
        assert rp.metrics.atomics.compulsory == 0

    def test_external_device_reused(self):
        g = small_chain_graph(size=48)
        dev = Device(A100)
        res = BrickDLEngine(g).run(inputs=None, functional=False, device=dev)
        assert res.metrics.num_tasks == len(dev.tasks)


class TestAttribution:
    def test_per_subgraph_covers_totals(self):
        from testlib import small_chain_graph

        g = small_chain_graph(size=64)
        res = BrickDLEngine(g).run(inputs=None, functional=False)
        assert len(res.per_subgraph) == len(res.plan.subgraphs)
        assert sum(d["num_tasks"] for d in res.per_subgraph) == res.metrics.num_tasks
        assert sum(d["flops"] for d in res.per_subgraph) == pytest.approx(res.metrics.total_flops)
        # Counter growth is attributed without double counting (flush-time
        # write-backs land after the last snapshot, so <= total).
        assert sum(d["dram_txns"] for d in res.per_subgraph) <= res.metrics.memory.dram_txns

    def test_attribution_table_renders(self):
        from testlib import small_chain_graph

        g = small_chain_graph(size=64)
        res = BrickDLEngine(g).run(inputs=None, functional=False)
        table = res.attribution_table()
        assert "per-subgraph attribution" in table and "memoized" in table

    def test_cli_per_subgraph(self, capsys):
        from repro.cli import main

        assert main(["run", "vgg16", "--reduced", "--per-subgraph"]) == 0
        assert "attribution" in capsys.readouterr().out


def test_values_pass_stays_under_60_own_calls_per_task():
    """The values-pass twin of the benchmark's ``core.py_calls_per_task``:
    ``values()`` of batch-2 reduced mobilenet_v1 under the profiler hook,
    counting calls into ``src/repro`` only (NumPy's own Python helpers differ
    between versions), per task the counted run of the same plan submits
    (37 today)."""
    import cProfile
    import os

    import repro

    graph = zoo.build("mobilenet_v1", reduced=True, batch=2)
    graph.init_weights()
    engine = BrickDLEngine(graph)
    plan = engine.compile()
    x = np.random.default_rng(0).standard_normal(graph.input_nodes[0].spec.shape).astype(np.float32)
    num_tasks = engine.run(functional=False, plan=plan).metrics.num_tasks
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        engine.values(x, plan)
    finally:
        profiler.disable()
    own = os.path.dirname(repro.__file__) + os.sep
    calls = sum(entry.callcount for entry in profiler.getstats()
                if getattr(entry.code, "co_filename", "").startswith(own))
    per_task = calls / num_tasks
    assert per_task <= 60, (
        f"{per_task:.0f} calls into src/repro per counted task (budget 60): per-brick Python is "
        "back on the values path -- the usual culprits are Region algebra "
        "(graph/regions.py) and per-brick loops in core/bricked.py")


@pytest.mark.parametrize("strategy", [Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT])
def test_kernel_below_stride_deconv_is_refused_before_the_first_task(strategy):
    """A transposed conv with kernel < stride has output positions no input
    feeds; the brick-local kernel step cannot place them (it used to die
    mid-run in ``store_brick`` with a ``LayoutError``).  Functional merged
    execution refuses the subgraph up front and names the node; profile mode
    and the effect analysis handle the same plan."""
    from repro.analysis import analyze_effects

    b = GraphBuilder("holes", TensorSpec(1, 4, (8, 8)))
    b.conv(4, 3, padding=1, name="conv")
    b.deconv(4, 1, stride=2, name="up")
    b.relu(name="act")
    graph = b.finish()
    engine = BrickDLEngine(graph, strategy_override=strategy, brick_override=4)
    plan = engine.compile()
    device = Device(A100)
    with pytest.raises(ExecutionError, match=r"'up'.*kernel \(1, 1\) < stride \(2, 2\).*profile mode"):
        engine.run(input_for(graph), plan=plan, device=device)
    assert not device.tasks
    with pytest.raises(ExecutionError, match=r"'up'.*kernel \(1, 1\) < stride \(2, 2\).*profile mode"):
        engine.values(input_for(graph), plan)
    assert engine.run(functional=False, plan=plan).metrics.num_tasks > 0
    assert analyze_effects(plan).ok


# ---------------------------------------------------------------------------
# values(): the one producer of outputs, checked against what it must equal
# ---------------------------------------------------------------------------

def _assert_values_equal_functional_runs(engine, seed=7):
    """Batch-2 ``values()`` equals the single-shot functional run of each
    sample bit for bit (what a served batch promises), and is within the
    conformance tolerance of the reference executor."""
    batched = engine.for_batch(2)
    x = np.concatenate([input_for(engine.graph, seed), input_for(engine.graph, seed + 1)])
    got = batched.values(x, batched.compile())
    plan = engine.compile()
    for i in range(2):
        single = engine.run(x[i:i + 1], functional=True, plan=plan).outputs
        assert got.keys() == single.keys()
        for name in single:
            assert np.array_equal(got[name][i:i + 1], single[name]), (name, i)
    for name, want in ReferenceExecutor(batched.graph).run(x).items():
        np.testing.assert_allclose(got[name], want, atol=1e-4, rtol=1e-4, err_msg=name)


@pytest.mark.parametrize("strategy", [None, Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT],
                         ids=lambda s: s.value if s else "planned")
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_values_equal_functional_run_on_the_zoo(model, strategy):
    _assert_values_equal_functional_runs(
        BrickDLEngine(zoo.build(model, reduced=True), strategy_override=strategy))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_dag(), st.sampled_from([None, Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT]))
def test_values_equal_functional_run_on_random_dags(graph, strategy):
    _assert_values_equal_functional_runs(BrickDLEngine(graph, strategy_override=strategy, brick_override=8))


def test_values_builds_no_device_task_or_schedule(monkeypatch):
    from repro.core.memoized import MemoizedBrickExecutor
    from repro.gpusim import trace

    engine = BrickDLEngine(zoo.build("mobilenet_v1", reduced=True, batch=2))
    plan = engine.compile()
    assert {s.strategy for s in plan.subgraphs} >= {Strategy.MEMOIZED, Strategy.CUDNN}
    x = input_for(engine.graph)
    want = engine.run(x, plan=plan).outputs
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{owner.__name__}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(Device, "__init__"), (Device, "submit"), (trace.Task, "__init__"),
                        (MemoizedBrickExecutor, "run"), (MemoizedBrickExecutor, "_step")]:
        counting(owner, name)
    got = engine.values(x, plan)
    assert calls == []
    assert all(np.array_equal(got[k], want[k]) for k in want)
    engine.run(x, plan=plan)   # the counters do see a simulated run
    assert {"Device.__init__", "Device.submit", "Task.__init__", "MemoizedBrickExecutor.run",
            "MemoizedBrickExecutor._step"} <= set(calls)
