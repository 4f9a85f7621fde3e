"""BrickDL engine tests: compilation decisions and end-to-end execution."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bricked import gather_dense
from repro.core.bricktask import BrickTasks, brick_box
from repro.core.engine import BrickDLEngine
from repro.core.geometry import SubgraphGeometry, patch_geometry
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.errors import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.models import zoo

from testlib import input_for, kernel_step, random_dag, residual_graph, small_chain_graph


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


def _warm_mobilenet_values(batch, strategy):
    """Reduced mobilenet_v1 at ``batch`` under ``strategy`` (None: planned),
    its plan and an input, one ``values()`` already run (weights drawn,
    geometry tables built)."""
    graph = zoo.build("mobilenet_v1", reduced=True, batch=batch)
    graph.init_weights()
    engine = BrickDLEngine(graph, strategy_override=strategy)
    plan = engine.compile()
    x = np.random.default_rng(0).standard_normal(graph.input_nodes[0].spec.shape).astype(np.float32)
    engine.values(x, plan)
    return engine, plan, x


def test_values_pass_stays_under_7_own_calls_per_task():
    """The values-pass twin of the benchmark's ``core.py_calls_per_task``:
    ``values()`` of batch-2 reduced mobilenet_v1 under the profiler hook,
    counting calls into ``src/repro`` only (NumPy's own Python helpers differ
    between versions), per task the counted run of the same plan submits
    (6.5 today; 14.3 when every conv brick gathered its patch and made its
    own kernel call, 37 when every member ran brick by brick into a bricked
    tensor)."""
    import cProfile
    import os

    import repro

    engine, plan, x = _warm_mobilenet_values(2, None)
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
    assert per_task <= 7.1, (
        f"{per_task:.1f} calls into src/repro per counted task (budget 7.1): per-item Python is "
        "back on the values path -- the usual culprits are elementwise members run brick by "
        "brick (kernels.BY_TENSOR), per-sample calls in bricktask._fill_by_class, Region "
        "algebra (graph/regions.py) and per-brick loops in core/bricked.py")


_PLANNED_AND_PADDED = pytest.mark.parametrize("strategy", [None, Strategy.PADDED],
                                              ids=lambda s: s.value if s else "planned")


@_PLANNED_AND_PADDED
def test_values_pass_makes_at_most_150_kernel_calls_per_batch(strategy, monkeypatch):
    """Kernel calls (``apply_node_local`` + ``apply_node_full``, every alias
    patched, recursion included) of one warm batch-8 ``values()`` of reduced
    mobilenet_v1, planned and all padded: a conv member's bricks of equal
    geometry share stacked calls (about 1,740 when every brick and sample
    made its own, and when padded walked every exit brick's closure)."""
    import sys

    from repro.kernels import dispatch

    engine, plan, x = _warm_mobilenet_values(8, strategy)
    calls = []
    for name in ("apply_node_local", "apply_node_full"):
        real = getattr(dispatch, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(_real)
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    engine.values(x, plan)
    assert 0 < len(calls) <= 150, f"{len(calls)} kernel calls per batch-8 values() (budget 150)"


@_PLANNED_AND_PADDED
def test_values_pass_peak_memory_stays_under_2_1_mb(strategy):
    """tracemalloc peak of one warm batch-8 ``values()`` of reduced
    mobilenet_v1, planned and all padded: 1.9 MB today, 3.3 MB if members
    outlive their last consumer, 5.0 MB when every member was a bricked
    tensor, 6.4 MB when a conv class ran as one stack (no
    ``kernels.STACKABLE`` bound).  The benchmark keeps every response, so a
    values pass that holds dead arrays shows up in ``serve_closed``'s
    ``peak_rss_mb``; here it fails first."""
    import tracemalloc

    engine, plan, x = _warm_mobilenet_values(8, strategy)
    tracemalloc.start()
    try:
        engine.values(x, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1e6, f"values() peaked at {peak / 1e6:.2f} MB (budget 2.1 MB)"


@pytest.mark.parametrize("strategy, budget", [(Strategy.MEMOIZED, 140), (Strategy.PADDED, 170)],
                         ids=["memoized", "padded"])
def test_counted_run_stays_under_170_own_calls_per_task(strategy, budget):
    """The counted-run twin of the values budget: ``engine.run(functional=
    False)`` of reduced resnet50 under the profiler hook, calls into
    ``src/repro`` only, per task (memoized 128 and padded 156 today; the
    round-robin scheduler with per-dependency token calls made 141 and 160).
    Fallback tiles and layout conversions are most of the reduced model's
    tasks, so the budgets sit about 10 % above today's counts."""
    import cProfile
    import os

    import repro

    engine = BrickDLEngine(zoo.build("resnet50", reduced=True), strategy_override=strategy)
    plan = engine.compile()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        num_tasks = engine.run(functional=False, plan=plan).metrics.num_tasks
    finally:
        profiler.disable()
    own = os.path.dirname(repro.__file__) + os.sep
    calls = sum(entry.callcount for entry in profiler.getstats()
                if getattr(entry.code, "co_filename", "").startswith(own))
    per_task = calls / num_tasks
    assert per_task <= budget, (
        f"{per_task:.0f} calls into src/repro per task (budget {budget}): per-brick calls are back "
        "on the counted path -- the usual culprits are the memoized scheduler taking every turn "
        "(core/memoized.py) and per-row or per-token calls in core/bricktask.py's emitters")


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


def _per_brick_values(subgraph, brick_shape, strategy, entries, screen=None, subgraph_index=None):
    """Oracle for ``subgraph_values``: every member brick by brick and sample
    by sample, one ``kernel_step`` each on a patch gathered from its
    producers' dense arrays, screened as it is computed."""
    graph = subgraph.graph
    geom = SubgraphGeometry(subgraph, brick_shape)
    prefix = {"padded": "padded", "memoized": "memo", "wavefront": "wave"}[strategy]
    dense = dict(entries)
    for nid in subgraph.node_ids:
        node = graph.node(nid)
        out = np.empty(node.spec.shape, node.spec.dtype)
        for gpos in itertools.product(*map(range, geom.grid(nid).grid_shape)):
            rows = geom.rows(nid, gpos)
            shape, needs, offsets = patch_geometry(rows, len(node.inputs))
            for n in range(node.spec.batch):
                out[n][brick_box(rows)] = value = kernel_step(
                    node, shape, needs, offsets,
                    lambda pred, need, fill, n=n: gather_dense(dense[pred][n], need, fill))
                if screen is not None:
                    screen(nid, value, subgraph_index, gpos, n, f"{prefix}/{node.name}/{gpos}")
        dense[nid] = out
    return {eid: dense[eid] for eid in subgraph.exit_ids}


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("strategy", [Strategy.MEMOIZED, Strategy.WAVEFRONT, Strategy.PADDED],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_values_equal_the_per_brick_kernel_steps(model, strategy, batch, monkeypatch):
    """The class-stacked values pass (stacked convs, whole-tensor elementwise
    members, overhanging boundary bricks in classes of their own) gives the
    bytes of one ``kernel_step`` per (brick, sample), and ``screen`` sees the
    same (node, subgraph, brick, sample, label) sequence with the same bytes."""
    engine = BrickDLEngine(zoo.build(model, reduced=True, batch=batch), strategy_override=strategy)
    plan = engine.compile()
    x = np.random.default_rng(batch).standard_normal(engine.graph.input_nodes[0].spec.shape)
    x = x.astype(np.float32)

    def screened():
        seen = []
        out = engine.values(x, plan, screen=lambda nid, value, *where: seen.append(
            (nid, *where, value.shape, hashlib.sha256(np.ascontiguousarray(value)).hexdigest())))
        return out, seen

    got, got_seen = screened()
    monkeypatch.setattr("repro.core.engine.subgraph_values", _per_brick_values)
    want, want_seen = screened()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    assert got_seen == want_seen


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
                        (BrickTasks, "__post_init__"), (MemoizedBrickExecutor, "run"),
                        (MemoizedBrickExecutor, "schedule")]:
        counting(owner, name)
    got = engine.values(x, plan)
    assert calls == []
    assert all(np.array_equal(got[k], want[k]) for k in want)
    engine.run(x, plan=plan)   # the counters do see a simulated run
    assert {"Device.__init__", "Device.submit", "Task.__init__", "BrickTasks.__post_init__",
            "MemoizedBrickExecutor.run", "MemoizedBrickExecutor.schedule"} <= set(calls)
