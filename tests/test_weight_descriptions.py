"""Weights described, not drawn: the weight-free compile path.

The rewrite rules, ``clone_weights`` and the static translation validator
work on :class:`~repro.graph.ir.WeightDesc` descriptions; only
``Graph.init_weights`` draws.  Pinned here: (a) nothing is drawn anywhere
on the static compile path, (b) whenever arrays *are* drawn they are the
arrays an eager ``init_weights()`` would have produced, (c) every graph
sharing a description receives the same array objects, (d) attached arrays
mix with descriptions untouched, (e) identity pruning only trusts arrays.
"""

import sys
import threading

import numpy as np
import pytest

from repro.analysis import analyze_effects, lint_graph, validate_rewrite, verify_plan
from repro.core.engine import BrickDLEngine
from repro.core.perfmodel import DEFAULT_CONFIG
from repro.core.reference import ReferenceExecutor
from repro.gpusim.spec import A100
from repro.graph import ops as ops_module
from repro.graph.builder import GraphBuilder
from repro.graph.ir import WeightDesc, same_weights
from repro.graph.ops import Conv, FusedOp, OpSpec
from repro.graph.tensorspec import TensorSpec
from repro.graph.transforms import rebatch_graph
from repro.models import zoo
from repro.rewrite import (
    LayoutAwareCSE,
    PruneDeadNodes,
    PruneIdentityOps,
    RebatchRule,
    Rewrite,
    RuleRunner,
    default_batches,
)
from repro.rewrite.rules import _rebuild
from testlib import input_for, residual_graph, small_chain_graph


def _described(graph) -> bool:
    return any(isinstance(w, WeightDesc) for n in graph.nodes for w in n.weights.values())


@pytest.fixture
def no_draw(monkeypatch):
    """Any RNG construction or ``OpSpec.init_weights`` call fails the test."""
    def boom(*args, **kwargs):
        raise AssertionError("weights drawn on the static compile path")

    monkeypatch.setattr(np.random, "default_rng", boom)
    for cls in vars(ops_module).values():
        if isinstance(cls, type) and issubclass(cls, OpSpec) and "init_weights" in vars(cls):
            monkeypatch.setattr(cls, "init_weights", boom)


# -- (a) the no-draw gate ------------------------------------------------------
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_static_compile_path_draws_nothing(model, no_draw):
    graph = zoo.build(model, reduced=True)
    rewrite = RuleRunner(default_batches(), validate="static").run(graph)
    assert rewrite.ok, rewrite.summary()
    assert _described(rewrite.graph)  # the rules declared, nobody resolved
    engine = BrickDLEngine(rewrite.graph)
    plan = engine.compile()
    report = lint_graph(rewrite.graph)
    report.extend(verify_plan(plan, A100, DEFAULT_CONFIG))
    report.extend(analyze_effects(plan, A100, DEFAULT_CONFIG))
    assert not report.errors, [d.render() for d in report.errors]
    if model == "mobilenet_v1":
        result = engine.run(functional=False, plan=plan)
        assert result.metrics.num_tasks > 0
        assert _described(rewrite.graph)


# -- (b) value identity --------------------------------------------------------
@pytest.mark.parametrize("model", ["resnet50", "mobilenet_v1", "deepcam"])
def test_rewrite_then_init_equals_init_then_rewrite(model):
    eager = zoo.build(model, reduced=True)
    eager.init_weights()
    eager_out = RuleRunner(default_batches(), validate="static").run(eager).graph

    lazy = zoo.build(model, reduced=True)
    lazy_out = RuleRunner(default_batches(), validate="static").run(lazy).graph
    assert _described(lazy_out)
    lazy_out.init_weights()
    assert not _described(lazy_out)

    if model != "deepcam":  # conv+BN folds: the fused-host join is exercised
        assert any(isinstance(n.op, FusedOp) and isinstance(n.op.primary, Conv)
                   and len(n.weights) > 2 for n in lazy_out.nodes)
    assert [n.name for n in eager_out.nodes] == [n.name for n in lazy_out.nodes]
    for a, b in zip(eager_out.nodes, lazy_out.nodes):
        assert list(a.weights) == list(b.weights), a.name
        for key, array in a.weights.items():
            assert array.dtype == b.weights[key].dtype
            assert np.array_equal(array, b.weights[key]), (a.name, key)

    x = input_for(eager)
    unrewritten = ReferenceExecutor(eager).run(x)
    for run in (lambda g: ReferenceExecutor(g).run(x),
                lambda g: BrickDLEngine(g).run(x).outputs):
        out_eager, out_lazy = run(eager_out), run(lazy_out)
        assert out_eager.keys() == out_lazy.keys() == unrewritten.keys()
        for name in out_eager:
            assert np.array_equal(out_eager[name], out_lazy[name]), name
    for name, expected in unrewritten.items():
        assert np.array_equal(expected, ReferenceExecutor(lazy_out).run(x)[name]), name


def test_source_graph_resolves_to_the_rewritten_graphs_arrays():
    g = residual_graph()
    out = RuleRunner(default_batches(), validate="static").run(g).graph
    out.init_weights()
    g.init_weights()  # resolves the same draw: same objects, not copies
    by_id = {id(w) for n in out.nodes for w in n.weights.values()}
    assert by_id == {id(w) for n in g.nodes for w in n.weights.values()}


@pytest.mark.parametrize("make", [small_chain_graph, residual_graph])
def test_full_validation_still_passes_from_an_undrawn_graph(make):
    report = RuleRunner(default_batches(), validate="full").run(make())
    assert report.ok and report.steps, report.summary()


def test_init_weights_values_unchanged_by_describing_first():
    a, b = small_chain_graph(), small_chain_graph()
    a.init_weights(seed=7)
    b.describe_weights(seed=7)
    b.init_weights(seed=99)  # idempotent: the declared seed wins
    for na, nb in zip(a.nodes, b.nodes):
        assert same_weights(na.weights, nb.weights), na.name
    assert a.weight_bytes() == sum(w.nbytes for n in a.nodes for w in n.weights.values())


# -- (c) sharing ---------------------------------------------------------------
@pytest.mark.parametrize("resolve_first", ["source", "clone"])
def test_rebatched_clone_shares_array_objects(resolve_first):
    g = residual_graph()
    g.describe_weights()
    clone = rebatch_graph(g, 2)
    first, second = (g, clone) if resolve_first == "source" else (clone, g)
    first.init_weights()
    # A resolved and an unresolved view of one description count as shared.
    assert validate_rewrite(g, RebatchRule(2).apply(g), RebatchRule(2)).ok
    second.init_weights()
    for node in g.nodes:
        twin = clone.node(node.name)
        assert twin.weights is not node.weights
        assert twin.weights.keys() == node.weights.keys()
        for key, array in node.weights.items():
            assert isinstance(array, np.ndarray) and twin.weights[key] is array


def test_concurrent_resolution_hands_every_thread_the_same_arrays():
    g = small_chain_graph()
    g.describe_weights()
    clones = [rebatch_graph(g, batch) for batch in range(2, 10)]
    start = threading.Barrier(len(clones))

    def resolve(clone):
        start.wait(timeout=10)
        clone.init_weights()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=resolve, args=(c,)) for c in clones]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    g.init_weights()
    for clone in clones:
        for node in g.nodes:
            assert same_weights(node.weights, clone.node(node.name).weights, shared=True)


def test_sharing_and_value_mutants_rejected_on_described_graphs():
    g = residual_graph()
    g.describe_weights()

    class CopyingRebatch(RebatchRule):
        def apply(self, graph):
            rw = super().apply(graph)
            rw.graph.init_weights()
            for node in rw.graph.nodes:
                node.weights = {k: v.copy() for k, v in node.weights.items()}
            return rw

    report = validate_rewrite(g, CopyingRebatch(2).apply(g), CopyingRebatch(2))
    assert "rewrite.weights-not-shared" in {d.code for d in report.errors}

    class Redescribing(PruneDeadNodes):
        """Swaps two same-shaped convs' descriptions: other positions of
        the stream, i.e. different values."""

        def apply(self, graph):
            rw = Rewrite(self.name, _rebuild(graph))
            a, b = rw.graph.node("b1/conv1"), rw.graph.node("b1/conv2")
            a.weights, b.weights = b.weights, a.weights
            return rw

    report = validate_rewrite(g, Redescribing().apply(g), Redescribing())
    assert "rewrite.weights-changed" in {d.code for d in report.errors}

    class Perturbing(PruneDeadNodes):
        def apply(self, graph):
            rw = Rewrite(self.name, _rebuild(graph))
            node = rw.graph.node("b1/conv1")
            node.weights = {k: v.resolve() + 1 for k, v in node.weights.items()}
            return rw

    report = validate_rewrite(g, Perturbing().apply(g), Perturbing())
    assert "rewrite.weights-changed" in {d.code for d in report.errors}


def test_same_weights_primitive(no_draw):
    g = small_chain_graph()
    g.describe_weights()
    a, b = g.node("c1/bn").weights, g.node("c2/bn").weights
    assert {k: v.shape for k, v in a.items()} == {k: v.shape for k, v in b.items()}
    assert same_weights(a, dict(a)) and same_weights(a, dict(a), shared=True)
    assert not same_weights(a, b)  # different positions: unequal, undrawn
    assert not same_weights(a, {"scale": a["scale"]})
    ones = {"w": np.ones(3, np.float32)}
    assert same_weights(ones, {"w": np.ones(3, np.float32)})
    assert not same_weights(ones, {"w": np.ones(3, np.float32)}, shared=True)
    assert same_weights(ones, dict(ones), shared=True)


# -- (d) attached arrays next to descriptions ----------------------------------
def _twin_graph(second: np.ndarray):
    b = GraphBuilder("twins", TensorSpec(1, 3, (8, 8)))
    root = b.current
    op = Conv(out_channels=4, kernel=(3, 3), padding=1, bias=False)
    a = b.graph.add(op, [root], name="a")
    c = b.graph.add(op, [root], name="c")
    a.weights = {"weight": np.ones((4, 3, 3, 3), np.float32)}
    c.weights = {"weight": second}
    b.conv(4, 3, padding=1, src=b.add(a, c, name="sum"), name="seeded")
    return b.finish()


def test_cse_merges_equal_but_distinct_attached_arrays(no_draw):
    g = _twin_graph(np.ones((4, 3, 3, 3), np.float32))
    attached = g.node("a").weights["weight"]
    rewrite = LayoutAwareCSE().apply(g)
    assert [r.name for r in rewrite.removed] == ["c"]
    assert validate_rewrite(g, rewrite, LayoutAwareCSE()).ok
    assert rewrite.graph.node("a").weights["weight"] is attached
    assert isinstance(rewrite.graph.node("seeded").weights["weight"], WeightDesc)


def test_attached_arrays_untouched_and_unequal_ones_not_merged():
    g = _twin_graph(np.zeros((4, 3, 3, 3), np.float32))
    kept = {name: g.node(name).weights["weight"] for name in ("a", "c")}
    assert LayoutAwareCSE().apply(g) is None
    g.init_weights()
    for name, array in kept.items():
        assert g.node(name).weights["weight"] is array
    fresh = _twin_graph(np.zeros((4, 3, 3, 3), np.float32))
    fresh.init_weights()  # eager draw of the one seeded node: same values
    assert same_weights(g.node("seeded").weights, fresh.node("seeded").weights)


# -- (e) identity pruning only trusts arrays -----------------------------------
def test_described_batchnorm_is_not_an_identity_but_a_user_set_one_is():
    def graph():
        b = GraphBuilder("pw", TensorSpec(1, 4, (8, 8)))
        b.conv(4, 3, padding=1, name="conv")
        b.batchnorm(name="bn")
        b.relu(name="relu")
        return b.finish()

    g = graph()
    g.describe_weights()
    assert PruneIdentityOps().apply(g) is None

    g = graph()
    g.node("bn").weights = {"scale": np.ones(4, np.float32),
                            "shift": np.zeros(4, np.float32)}
    g.describe_weights()  # the conv stays described
    rewrite = PruneIdentityOps().apply(g)
    assert [r.name for r in rewrite.removed] == ["bn"]
    assert validate_rewrite(g, rewrite, PruneIdentityOps()).ok
