"""BrickDL engine tests: compilation decisions and end-to-end execution."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bricktask import BrickTasks
from repro.core.engine import BrickDLEngine, _executor_cls
from repro.core.plan import Strategy, adapt_sectors
from repro.core.reference import ReferenceExecutor
from repro.errors import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.ops import ConvTranspose, FusedOp
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.models import zoo

from testlib import dense_entries, input_for, per_brick_values, random_dag, residual_graph, small_chain_graph


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


def test_bare_run_counts_without_inputs():
    """``functional`` follows ``inputs``: a bare run counts, computes nothing."""
    bare = BrickDLEngine(small_chain_graph(size=48)).run()
    counted = BrickDLEngine(small_chain_graph(size=48)).run(inputs=None, functional=False)
    assert bare.outputs is None
    assert bare.metrics == counted.metrics
    assert bare.metrics.num_tasks > 0


def test_bare_run_counts_what_the_cli_counts():
    """With no device, ``run`` counts on the plan's sector-adapted spec, the
    device ``repro run`` / ``profile`` and the harness report, so a bare
    run's ``l2_txns`` are theirs too (the spec's own sector moves them)."""
    engine = BrickDLEngine(zoo.build("mobilenet_v1", reduced=True))
    plan = engine.compile()
    bare = engine.run()
    adapted = engine.run(device=Device(adapt_sectors(A100, plan)), plan=plan)
    assert dataclasses.asdict(bare.metrics) == dataclasses.asdict(adapted.metrics)
    assert bare.spec == adapt_sectors(A100, plan) == adapted.spec


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


def test_values_pass_stays_under_0_42_own_calls_per_task():
    """The values-pass twin of the benchmark's ``core.py_calls_per_task``:
    ``values()`` of batch-2 reduced mobilenet_v1 under the profiler hook,
    counting calls into ``src/repro`` only (NumPy's own Python helpers differ
    between versions), per task the counted run of the same plan submits
    (0.379 today, one sweep with one whole-tensor call per member; 0.505
    when merged and fallback entries had loops of their own; 0.579 when
    convs with ``C / groups > 1`` ran one sample at a time, 6.5 with
    per-class conv stacks, 14.3 when every conv brick gathered its patch and
    made its own kernel call, 37 when every member ran brick by brick into a
    bricked tensor).  The budget sits about 10 % above today's count."""
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
    assert per_task <= 0.42, (
        f"{per_task:.3f} calls into src/repro per counted task (budget 0.42): per-item Python is "
        "back on the values path -- the usual culprits are per-brick or per-sample loops in "
        "BrickDLEngine.values (each member should be one apply_node_full call), more ops "
        "split per sample in kernels.dispatch.apply_node_full, geometry rows or Region algebra "
        "(core/geometry.py, graph/regions.py) built without a screen")


_PLANNED_AND_PADDED = pytest.mark.parametrize("strategy", [None, Strategy.PADDED],
                                              ids=lambda s: s.value if s else "planned")


@_PLANNED_AND_PADDED
def test_values_pass_makes_at_most_35_kernel_calls_per_batch(strategy, monkeypatch):
    """Kernel calls (``apply_node_local`` + ``apply_node_full``, every alias
    patched, recursion included) of one warm batch-8 ``values()`` of reduced
    mobilenet_v1, planned and all padded: one batch-wide ``apply_node_full``
    per member and fused stage, 31 today under both (79 when ``Conv`` with
    ``C / groups > 1``, ``ConvTranspose`` and ``Dense`` ran one sample at a
    time, 111 when depthwise convs were split per sample too, 127 with
    per-class conv stacks, about 1,740 when every brick and sample made its
    own call, and when padded walked every exit brick's closure).  The
    budget sits about 10 % above today's count."""
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
    assert 0 < len(calls) <= 35, (
        f"{len(calls)} kernel calls per batch-8 values() (budget 35): per-item calls are back on "
        "the values path -- kernels.dispatch.apply_node_full should run every op as one "
        "batch-wide call")


@_PLANNED_AND_PADDED
def test_values_pass_peak_memory_stays_under_2_1_mb(strategy):
    """tracemalloc peak of one warm batch-8 ``values()`` of reduced
    mobilenet_v1, planned and all padded: 1.57 MB today (1.71 MB when entry
    arrays lived until their whole consumer subgraph had run), 3.3 MB if
    members outlive their last consumer (``values()`` drops every array after
    its last consumer).  Every conv runs batch-wide: a conv
    with ``C / groups > 1`` copies one im2col array for the whole batch, a
    depthwise conv's only temporaries are a padded input and one
    output-sized scratch.  The benchmark
    keeps every response, so a values pass that holds dead arrays shows up
    in ``serve_closed``'s ``peak_rss_mb``; here it fails first."""
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
def test_kernel_below_stride_deconv_values_equal_the_reference(strategy):
    """A transposed conv with kernel < stride has output positions no input
    feeds (only its bias lands there), which a brick-local kernel call cannot
    place.  The values pass runs every member over the whole tensor, so the
    merged subgraph holding it computes: ``values()`` and a functional run
    give the reference's bytes, and profile mode and the effect analysis
    handle the same plan."""
    from repro.analysis import analyze_effects

    b = GraphBuilder("holes", TensorSpec(1, 4, (8, 8)))
    b.conv(4, 3, padding=1, name="conv")
    b.deconv(4, 1, stride=2, name="up")
    b.relu(name="act")
    graph = b.finish()
    engine = BrickDLEngine(graph, strategy_override=strategy, brick_override=4)
    plan = engine.compile()
    up = graph.node("up").node_id
    assert any(s.strategy is strategy and up in s.subgraph.node_ids for s in plan.subgraphs)
    x = input_for(graph)
    want = ReferenceExecutor(graph).run(x)
    for got in (engine.values(x, plan), engine.run(x, plan=plan).outputs):
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
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


_FORCED_AND_PLANNED = (None, Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT)


def _assert_values_equal_the_reference(graph, x, strategies=_FORCED_AND_PLANNED, **engine_args):
    want = ReferenceExecutor(graph).run(x)
    for strategy in strategies:
        got = BrickDLEngine(graph, strategy_override=strategy, **engine_args).values(x)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), (strategy, name)


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_values_equal_the_reference_bit_for_bit(model, batch):
    """``values()`` is the layer-by-layer sweep with dead arrays dropped: under
    the planned strategy and forced padded, memoized and wavefront it gives
    ``ReferenceExecutor``'s bytes."""
    graph = zoo.build(model, reduced=True, batch=batch)
    x = np.random.default_rng(batch).standard_normal(graph.input_nodes[0].spec.shape)
    _assert_values_equal_the_reference(graph, x.astype(np.float32))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_dag(), st.sampled_from(_FORCED_AND_PLANNED))
def test_values_equal_the_reference_on_random_dags(graph, strategy):
    _assert_values_equal_the_reference(graph, input_for(graph), [strategy], brick_override=8)


def _screened(values, *args, **kwargs):
    """``values(*args, screen=...)`` and the (node, subgraph, brick, sample,
    label, shape, sha256) rows its ``screen`` saw."""
    seen = []
    out = values(*args, **kwargs, screen=lambda nid, value, *where: seen.append(
        (nid, *where, value.shape, hashlib.sha256(np.ascontiguousarray(value)).hexdigest())))
    return out, seen


# Merged subgraphs, by their ConvTranspose member, whose per-brick kernel steps
# round differently from the whole-tensor sweep: a transposed conv's product
# over a brick's patch is no slice of the whole map's (4e-8 apart here).
_PER_BRICK_INEXACT = {"deepcam": {"dec2/deconv"}}


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("strategy", [Strategy.MEMOIZED, Strategy.WAVEFRONT, Strategy.PADDED],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_values_equal_the_per_brick_kernel_steps(model, strategy, batch):
    """The whole-tensor values pass gives the bytes of one ``kernel_step`` per
    (brick, sample) -- a brick's value does not depend on its blocking.  Each
    merged subgraph's ``screen`` rows from ``values()`` are the (node,
    subgraph, brick, sample, label) sequence and bytes of the per-brick
    oracle (``testlib.per_brick_values``) run on the reference's entry
    activations, and the oracle's exits are the reference's bytes.  A
    subgraph holding a member named in :data:`_PER_BRICK_INEXACT` (each a
    ConvTranspose) keeps the oracle's screen sequence and comes within 1e-6
    of its values."""
    engine = BrickDLEngine(zoo.build(model, reduced=True, batch=batch), strategy_override=strategy)
    graph, plan = engine.graph, engine.compile()
    x = np.random.default_rng(batch).standard_normal(graph.input_nodes[0].spec.shape)
    x = x.astype(np.float32)
    refs = ReferenceExecutor(graph).run_all(x)
    _, got_seen = _screened(engine.values, x, plan)
    inexact, excluded = _PER_BRICK_INEXACT.get(model, set()), set()
    for sub in filter(lambda sub: sub.is_merged, plan.subgraphs):
        want, want_seen = _screened(
            per_brick_values, sub.subgraph, sub.brick_shape, _executor_cls(sub).strategy,
            dense_entries(graph, sub.subgraph, refs), subgraph_index=sub.index)
        seen = [row for row in got_seen if row[1] == sub.index]
        named = {graph.node(nid).name for nid in sub.subgraph.node_ids} & inexact
        if named:
            for name in named:
                op = graph.node(name).op
                assert isinstance(op.primary if isinstance(op, FusedOp) else op, ConvTranspose), name
            excluded |= named
            assert [row[:-1] for row in seen] == [row[:-1] for row in want_seen]
            for eid in want:
                np.testing.assert_allclose(refs[graph.node(eid).name], want[eid], rtol=1e-6, atol=1e-6)
            continue
        for eid in want:
            assert refs[graph.node(eid).name].tobytes() == want[eid].tobytes(), (sub.index, eid)
        assert seen == want_seen, sub.index
    assert excluded == inexact


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
