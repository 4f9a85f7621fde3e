"""The rewrite framework and its translation-validation pass.

Covers the seed rules' behavior (including the bit-identity contract the
FusedOp design buys), the runner, the rebatch weight-sharing regression,
one injected-unsound mutant per seed rule that the validator must provably
reject, the resnet50 acceptance scenario (node count down, outputs
bit-identical, manifests recorded with the DRAM-traffic delta), and a
hypothesis property: random rule sequences on the random-DAG corpus keep
reference outputs bit-identical and survive serialize round-trips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import validate_rewrite
from repro.core.reference import ReferenceExecutor
from repro.errors import ReproError, RewriteError
from repro.graph.builder import GraphBuilder
from repro.graph.ops import Conv, FusedOp
from repro.graph.serialize import graph_from_dict, graph_to_dict, load_graph, save_graph
from repro.graph.tensorspec import TensorSpec
from repro.graph.transforms import rebatch_graph
from repro.rewrite import (
    FixedPoint,
    FoldConvBatchNorm,
    FusePointwiseChains,
    LayoutAwareCSE,
    Once,
    PruneDeadNodes,
    PruneIdentityOps,
    RebatchRule,
    RemovedNode,
    Rewrite,
    Rule,
    RuleBatch,
    RuleRunner,
    batches_from_names,
    default_batches,
)
from repro.rewrite.rules import RULES, _rebuild
from testlib import input_for, random_dag, residual_graph, small_chain_graph


def outputs_of(graph, feeds):
    return ReferenceExecutor(graph).run(feeds)


def assert_bit_identical(graph_a, graph_b, seed=0):
    feeds = {n.name: np.random.default_rng(seed).standard_normal(n.spec.shape)
             .astype(n.spec.dtype) for n in graph_a.input_nodes}
    out_a = outputs_of(graph_a, feeds)
    out_b = outputs_of(graph_b, feeds)
    assert out_a.keys() == out_b.keys()
    for name in out_a:
        assert np.array_equal(out_a[name], out_b[name]), name


# -- seed rules ---------------------------------------------------------------
class TestSeedRules:
    def test_fold_conv_bn_builds_fused_host(self):
        g = small_chain_graph()
        g.init_weights()
        rw = FoldConvBatchNorm().apply(g)
        assert rw is not None
        assert rw.graph is not g and len(rw.graph) < len(g)
        hosts = [n for n in rw.graph.nodes if isinstance(n.op, FusedOp)]
        assert hosts and all(isinstance(h.op.primary, Conv) for h in hosts)
        # The host keeps the BN node's name; the conv is declared fused into it.
        for removed in rw.removed:
            assert removed.reason == "fused"
            assert removed.into in rw.fused
        assert_bit_identical(g, rw.graph)

    def test_fold_iterates_to_absorb_bn_chains(self):
        # conv -> bn -> bn: two fixed-point rounds fold both into one host.
        b = GraphBuilder("chain", TensorSpec(1, 3, (8, 8)))
        b.conv(4, 3, padding=1, name="conv")
        b.batchnorm(name="bn_a")
        b.batchnorm(name="bn_b")
        g = b.graph
        g.mark_output(b.current)
        g.init_weights()
        report = RuleRunner((RuleBatch("fuse", FixedPoint(4), (FoldConvBatchNorm(),)),),
                            validate="full").run(g)
        assert report.ok and report.rules_fired() == {"fold-conv-bn": 2}
        host = report.graph.node("bn_b")
        assert [s.kind for s in host.op.stages] == ["conv", "batchnorm", "batchnorm"]
        assert_bit_identical(g, report.graph)

    def test_fuse_pointwise_chain(self):
        # pool -> bn -> relu: the bn+relu run fuses, pool stays primary-free.
        b = GraphBuilder("pw", TensorSpec(1, 4, (8, 8)))
        b.maxpool(2, name="pool")
        b.batchnorm(name="bn")
        b.relu(name="relu")
        g = b.graph
        g.mark_output(b.current)
        g.init_weights()
        rw = FusePointwiseChains().apply(g)
        assert rw is not None and rw.fused == {"relu": ("bn", "relu")}
        host = rw.graph.node("relu")
        assert isinstance(host.op, FusedOp)
        assert [s.kind for s in host.op.stages] == ["batchnorm", "activation"]
        assert_bit_identical(g, rw.graph)

    def test_fuse_pointwise_respects_fanout_and_outputs(self):
        # bn has two consumers -> no sole-consumer run of length >= 2.
        b = GraphBuilder("fan", TensorSpec(1, 4, (8, 8)))
        bn = b.batchnorm(name="bn")
        r1 = b.relu(src=bn, name="r1")
        r2 = b.relu(src=bn, name="r2")
        g = b.graph
        out = b.add(r1, r2, name="out")
        g.mark_output(out)
        g.init_weights()
        assert FusePointwiseChains().apply(g) is None

    def test_prune_dead_nodes(self):
        b = GraphBuilder("dead", TensorSpec(1, 3, (8, 8)))
        live = b.conv(4, 3, padding=1, name="live")
        b.relu(src=live, name="dead_a")
        b.batchnorm(src=b.graph.node("dead_a"), name="dead_b")
        g = b.graph
        g.mark_output(live)
        rw = PruneDeadNodes().apply(g)
        assert rw is not None
        assert {r.name for r in rw.removed} == {"dead_a", "dead_b"}
        assert all(r.reason == "dead" for r in rw.removed)
        assert PruneDeadNodes().apply(rw.graph) is None

    def test_prune_identity_ops(self):
        b = GraphBuilder("ident", TensorSpec(1, 4, (8, 8)))
        b.conv(4, 3, padding=1, name="conv")
        b.maxpool(1, name="noop_pool")
        bn = b.batchnorm(name="noop_bn")
        b.relu(name="out")
        g = b.graph
        g.mark_output(b.current)
        g.init_weights()
        bn.weights["scale"][:] = 1.0
        bn.weights["shift"][:] = 0.0
        rw = PruneIdentityOps().apply(g)
        assert rw is not None
        assert {r.name for r in rw.removed} == {"noop_pool", "noop_bn"}
        report = validate_rewrite(g, rw, PruneIdentityOps(), differential=True)
        assert report.ok, [d.render() for d in report.errors]
        assert_bit_identical(g, rw.graph)

    def test_identity_rule_leaves_real_ops_alone(self):
        g = small_chain_graph()
        g.init_weights()  # random scale/shift: nothing is provably identity
        assert PruneIdentityOps().apply(g) is None

    def test_layout_aware_cse_merges_twins(self):
        b = GraphBuilder("cse", TensorSpec(1, 3, (8, 8)))
        src = b.current
        c1 = b.conv(4, 3, padding=1, src=src, name="twin_a")
        c2 = b.conv(4, 3, padding=1, src=src, name="twin_b")
        g = b.graph
        out = b.add(c1, c2, name="out")
        g.mark_output(out)
        g.init_weights()
        # Same op + inputs but different weights: must NOT merge.
        assert LayoutAwareCSE().apply(g) is None
        g.node("twin_b").weights = dict(g.node("twin_a").weights)
        rw = LayoutAwareCSE().apply(g)
        assert rw is not None
        assert rw.removed == (RemovedNode("twin_b", "merged", into="twin_a"),)
        report = validate_rewrite(g, rw, LayoutAwareCSE(), differential=True)
        assert report.ok, [d.render() for d in report.errors]
        assert_bit_identical(g, rw.graph)

    def test_rules_registry_covers_seed_rules(self):
        assert set(RULES) == {"fold-conv-bn", "fuse-pointwise", "prune-dead",
                              "prune-identity", "cse"}
        with pytest.raises(ReproError, match="unknown rewrite rule"):
            batches_from_names(["definitely-not-a-rule"])


# -- rebatch: the ported production rule --------------------------------------
class TestRebatchRule:
    def test_shared_weight_identity_regression(self):
        """The audited clone: fresh dicts per graph, *same* arrays."""
        g = small_chain_graph()
        g.init_weights()
        batched = rebatch_graph(g, 4)
        for node in g.nodes:
            if not node.weights:
                continue
            twin = batched.node(node.name)
            assert twin.weights is not node.weights  # the fixed bug: dict copied
            for key, array in node.weights.items():
                assert twin.weights[key] is array  # ...but arrays shared

    def test_noop_returns_none_and_wrapper_returns_same_graph(self):
        g = small_chain_graph()
        assert RebatchRule(1).apply(g) is None
        assert rebatch_graph(g, 1) is g
        with pytest.raises(ReproError):
            RebatchRule(0)

    def test_rebatch_validates_including_per_sample_differential(self):
        g = small_chain_graph(size=16)
        g.init_weights()
        rw = RebatchRule(3).apply(g)
        assert rw is not None and rw.batch == 3
        report = validate_rewrite(g, rw, RebatchRule(3), differential=True)
        assert report.ok, [d.render() for d in report.errors]
        assert all(n.spec.batch == 3 for n in rw.graph.input_nodes)


# -- the runner ---------------------------------------------------------------
def test_validation_cannot_be_switched_off():
    """Every rule application carries its verdict: there is no "off" level."""
    from repro.rewrite.runner import VALIDATE_LEVELS

    assert VALIDATE_LEVELS == ("static", "full")
    with pytest.raises(ReproError, match="validate"):
        RuleRunner(validate="off")
    report = RuleRunner(default_batches()).run(residual_graph())
    assert report.steps
    assert all(step.validation is not None for step in report.steps)


class TestRuleRunner:
    def test_default_pipeline_on_residual_graph(self):
        g = residual_graph()
        g.init_weights()
        report = RuleRunner(default_batches(), validate="full").run(g)
        assert report.ok, report.summary()
        assert report.nodes_after < report.nodes_before
        assert report.rules_fired().get("fold-conv-bn", 0) >= 1
        assert_bit_identical(g, report.graph)
        # Manifest block is JSON-shaped and self-consistent.
        doc = report.manifest_dict()
        assert doc["validated"] == "full" and doc["ok"]
        assert doc["nodes_after"] == len(report.graph)
        assert len(doc["steps"]) == len(report.steps)

    def test_runner_rejects_bad_validate_level(self):
        with pytest.raises(ReproError, match="validate"):
            RuleRunner(validate="paranoid")

    def test_engine_compile_optimize(self):
        from repro.core.engine import BrickDLEngine

        g = small_chain_graph()
        engine = BrickDLEngine(g)
        plan = engine.compile(optimize=True)
        assert engine.rewrite_report is not None and engine.rewrite_report.ok
        assert len(engine.graph) < len(g)
        assert plan.graph is engine.graph
        x = input_for(g)
        merged = engine.run(x, functional=True, plan=plan).outputs
        ref = ReferenceExecutor(g).run(x)
        for name in ref:
            np.testing.assert_allclose(merged[name], ref[name], atol=1e-4, rtol=1e-4)

    def test_engine_raises_on_unsound_rule(self):
        from repro.core.engine import BrickDLEngine

        class DropOutput(Rule):
            name = "drop-output"

            def apply(self, graph):
                bn = graph.node("c2/bn")
                return Rewrite(self.name, _rebuild(
                    graph, forward={bn.node_id: bn.inputs[0]}))

        g = small_chain_graph()
        g.init_weights()
        engine = BrickDLEngine(g)
        with pytest.raises(RewriteError, match="translation validation"):
            engine.compile(optimize=True,
                           rules=(RuleBatch("bad", Once(), (DropOutput(),)),))
        assert engine.graph is g  # the unsound rewrite was not adopted


# -- convexity has one prover: plan verify on the plan compile builds ---------
# The models CI's rewrite job validates.
REWRITE_ZOO = ("darknet53", "deepcam", "drn26", "inception_v4", "mobilenet_v1",
               "resnet101", "resnet50", "resnet3d34", "vgg16", "vgg19")


def _partition_never_called(*args, **kwargs):
    raise AssertionError("translation validation built a partition")


def test_validation_builds_no_partition(monkeypatch):
    import repro.core.partition as partition
    from repro.models import zoo

    monkeypatch.setattr(partition, "partition_graph", _partition_never_called)
    for graph in (residual_graph(), zoo.build("resnet50", reduced=True)):
        report = RuleRunner(default_batches()).run(graph)
        assert report.ok, report.summary()
        assert report.steps


def test_nonconvex_partition_fails_strict_compile_in_plan_verify(monkeypatch):
    """A partitioner that splits a chain around its middle must be caught by
    the strict compile's plan verify, not by rewrite validation."""
    import repro.core.partition as partition
    from repro.core.engine import BrickDLEngine
    from repro.errors import PlanError
    from repro.graph.traversal import subgraph_view

    real = partition.partition_graph

    def nonconvex(graph, *args, **kwargs):
        views = real(graph, *args, **kwargs)
        i = next(k for k, v in enumerate(views) if len(v) >= 3)
        ids = list(views[i].node_ids)
        return (views[:i] + [subgraph_view(graph, [ids[0], ids[-1]]),
                             subgraph_view(graph, ids[1:-1])] + views[i + 1:])

    monkeypatch.setattr(partition, "partition_graph", nonconvex)
    monkeypatch.setattr("repro.core.engine.partition_graph", nonconvex)
    with pytest.raises(PlanError, match="plan.convexity"):
        BrickDLEngine(residual_graph(), strict=True).compile(optimize=True)


@pytest.mark.parametrize("model", REWRITE_ZOO)
def test_rewritten_zoo_plans_pass_strict_compile(model):
    """Lint, plan verify and effects accept the plan of every rewritten zoo
    graph (a strict compile raises PlanError otherwise)."""
    from repro.core.engine import BrickDLEngine
    from repro.models import zoo

    report = RuleRunner(default_batches()).run(zoo.build(model, reduced=True))
    assert report.ok, report.summary()
    plan = BrickDLEngine(report.graph, strict=True).compile()
    assert plan.graph is report.graph


# -- injected-unsound mutants: one per seed rule ------------------------------
def _mutant_graph():
    g = residual_graph()
    g.init_weights()
    return g


def _codes(report):
    return {d.code for d in report.errors}


class TestMutantsAreRejected:
    def test_dead_mutant_dropping_live_node(self):
        # "prune-dead" mutant: declares a live BN dead and rewires around it.
        g = _mutant_graph()
        node = g.node("b1/bn1")

        class BadDead(PruneDeadNodes):
            def apply(self, graph):
                return Rewrite(self.name,
                               _rebuild(graph, forward={node.node_id: node.inputs[0]}),
                               removed=(RemovedNode(node.name, "dead"),))

        report = validate_rewrite(g, BadDead().apply(g), BadDead(), differential=True)
        assert not report.ok
        assert "rewrite.live-node-dropped" in _codes(report)
        assert "rewrite.differential" in _codes(report)

    def test_identity_mutant_removing_effectful_bn(self):
        # "prune-identity" mutant: removes a BN whose scale/shift are random.
        g = _mutant_graph()
        node = g.node("b1/bn2")

        class BadIdentity(PruneIdentityOps):
            def apply(self, graph):
                return Rewrite(
                    self.name,
                    _rebuild(graph, forward={node.node_id: node.inputs[0]}),
                    removed=(RemovedNode(node.name, "identity",
                                         into=graph.node(node.inputs[0]).name),))

        report = validate_rewrite(g, BadIdentity().apply(g), BadIdentity(),
                                  differential=True)
        assert not report.ok
        assert "rewrite.not-identity" in _codes(report)

    def test_cse_mutant_merging_nontwins(self):
        # "cse" mutant: merges the two convs of block 1, whose weights differ.
        g = _mutant_graph()
        a = g.node("b1/conv1")
        victim = g.node("b1/conv2")

        class BadCSE(LayoutAwareCSE):
            def apply(self, graph):
                return Rewrite(
                    self.name,
                    _rebuild(graph, forward={victim.node_id: a.node_id}),
                    removed=(RemovedNode(victim.name, "merged", into=a.name),))

        report = validate_rewrite(g, BadCSE().apply(g), BadCSE(), differential=True)
        assert not report.ok
        assert "rewrite.merge-mismatch" in _codes(report)

    def test_fold_mutant_corrupting_fused_weights(self):
        # "fold-conv-bn" mutant: the fusion is structurally right but the
        # host's epilogue weights are zeroed -- numerically a different model.
        g = _mutant_graph()

        class BadFold(FoldConvBatchNorm):
            def apply(self, graph):
                rw = super().apply(graph)
                host = rw.graph.node(next(iter(rw.fused)))
                for key in host.weights:
                    if key.startswith("fused"):
                        host.weights[key] = np.zeros_like(host.weights[key])
                return rw

        report = validate_rewrite(g, BadFold().apply(g), BadFold(), differential=True)
        assert not report.ok
        assert "rewrite.fused-weights" in _codes(report)
        assert "rewrite.differential" in _codes(report)

    def test_chain_mutant_reordering_stages(self):
        # "fuse-pointwise" mutant: fuses bn -> relu but executes relu -> bn.
        b = GraphBuilder("pw", TensorSpec(1, 4, (8, 8)))
        b.maxpool(2, name="pool")
        b.batchnorm(name="bn")
        b.relu(name="relu")
        g = b.graph
        g.mark_output(b.current)
        g.init_weights()

        class BadChain(FusePointwiseChains):
            def apply(self, graph):
                rw = super().apply(graph)
                host = rw.graph.node("relu")
                flipped = FusedOp(host.op.epilogue[0], (host.op.primary,))
                bn_weights = dict(host.weights)  # bn was stage 0: unprefixed
                host.op = flipped
                host.weights = flipped.join_weights([{}, bn_weights])
                return rw

        rw = BadChain().apply(g)
        report = validate_rewrite(g, rw, BadChain(), differential=True)
        assert not report.ok
        assert "rewrite.fused-chain" in _codes(report)

    def test_rebatch_mutant_copying_weights(self):
        # "rebatch" mutant: value-equal weight *copies* instead of shared
        # arrays -- silently doubles memory and voids the serving-layer
        # bit-identity argument, so the obligation is checked by identity.
        g = _mutant_graph()

        class BadRebatch(RebatchRule):
            def apply(self, graph):
                rw = super().apply(graph)
                for node in rw.graph.nodes:
                    node.weights = {k: v.copy() for k, v in node.weights.items()}
                return rw

        rw = BadRebatch(2).apply(g)
        report = validate_rewrite(g, rw, BadRebatch(2))
        assert not report.ok
        assert "rewrite.weights-not-shared" in _codes(report)
        # The honest rule passes the same check.
        good = RebatchRule(2).apply(g)
        assert validate_rewrite(g, good, RebatchRule(2)).ok


# -- serialization ------------------------------------------------------------
class TestFusedOpSerialization:
    def test_fused_graph_roundtrips_with_weights(self, tmp_path):
        g = small_chain_graph()
        g.init_weights()
        report = RuleRunner(default_batches(), validate="static").run(g)
        assert any(isinstance(n.op, FusedOp) for n in report.graph.nodes)
        path = tmp_path / "fused.json"
        save_graph(report.graph, path)
        loaded = load_graph(path)
        assert_bit_identical(report.graph, loaded)
        # Structure-only round-trip too (what the linter checks).
        rebuilt = graph_from_dict(graph_to_dict(report.graph))
        assert [n.op for n in rebuilt.nodes] == [n.op for n in report.graph.nodes]


# -- acceptance: resnet50 -----------------------------------------------------
class TestResnet50Acceptance:
    def test_fold_reduces_nodes_bit_identically_with_manifest_delta(self, tmp_path):
        from repro.bench.harness import record_bench_manifest

        from repro.models import zoo

        g = zoo.build("resnet50", reduced=True)
        report = RuleRunner(default_batches(), validate="full").run(g)
        assert report.ok, report.summary()
        assert report.nodes_after < report.nodes_before  # conv+BN folds
        assert report.rules_fired().get("fold-conv-bn", 0) >= 1
        # Bit-identical outputs (independently of the validator's own run).
        assert_bit_identical(g, report.graph)

        base, _ = record_bench_manifest("resnet50", out_dir=tmp_path,
                                        reduced=True, label="base")
        opt, _ = record_bench_manifest("resnet50", out_dir=tmp_path,
                                       reduced=True, label="rewritten",
                                       optimize=True)
        assert opt.rewrite and opt.rewrite["ok"]
        assert opt.rewrite["nodes_after"] < opt.rewrite["nodes_before"]
        # The recorded DRAM-traffic delta: fusion must never add traffic (at
        # reduced scale the fallback already groups conv+pointwise, so the
        # delta is ~0; the win shows up in task count and total time).
        delta = opt.metrics["memory"]["dram_txns"] - base.metrics["memory"]["dram_txns"]
        assert delta <= 0
        assert opt.metrics["num_tasks"] < base.metrics["num_tasks"]
        assert opt.metrics["time"]["total"] <= base.metrics["time"]["total"]
        assert not base.rewrite  # unoptimized manifest records no rewrite


# -- property: random rule sequences on the random-DAG corpus -----------------
RULE_NAMES = sorted(RULES)


class TestRewriteProperties:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag(),
           st.lists(st.sampled_from(RULE_NAMES), min_size=1, max_size=6))
    def test_random_rule_sequences_are_sound(self, graph, names):
        graph.init_weights()
        feeds = {n.name: np.random.default_rng(0).standard_normal(n.spec.shape)
                 .astype(n.spec.dtype) for n in graph.input_nodes}
        before = outputs_of(graph, feeds)
        batches = (RuleBatch("random", Once(),
                             tuple(RULES[name]() for name in names)),)
        report = RuleRunner(batches, validate="full").run(graph)
        assert report.ok, report.summary()
        after = outputs_of(report.graph, feeds)
        for name in before:
            assert np.array_equal(before[name], after[name]), name
        # Serialize round-trip stability of the rewritten graph.
        rebuilt = graph_from_dict(graph_to_dict(report.graph))
        for node, twin in zip(report.graph.nodes, rebuilt.nodes):
            assert node.name == twin.name and node.op == twin.op
            twin.weights = dict(node.weights)
        for name in before:
            assert np.array_equal(before[name],
                                  outputs_of(rebuilt, feeds)[name]), name
