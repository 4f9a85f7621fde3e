"""Static effect analysis: proofs, traffic-bound brackets, mutant rejection,
and the soundness property against the dynamic ground truth."""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import analyze_effects, check_manifest_bracket
from repro.analysis.effects import (
    EffectMutation,
    candidate_time_lower_bound,
    effect_prune,
)
from repro.bench.harness import adapt_sectors
from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.tuner import tune_plan
from repro.core.wavefront import is_chain_subgraph
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from testlib import input_for, random_dag, residual_graph, small_chain_graph

STRATEGIES = (None, Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT)


def _compiled(graph, strategy=None, brick=None):
    engine = BrickDLEngine(graph, strategy_override=strategy, brick_override=brick)
    return engine, engine.compile()


def _merged_sub(plan):
    return next(p for p in plan.subgraphs if p.is_merged)


# -- proofs ------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES,
                         ids=lambda s: s.value if s else "auto")
@pytest.mark.parametrize("build", [small_chain_graph, residual_graph],
                         ids=["chain", "residual"])
def test_proves_all_strategies(build, strategy):
    _, plan = _compiled(build(), strategy)
    report = analyze_effects(plan)
    assert report.ok, [d.render() for d in report.errors]
    assert report.proven
    proven = report.by_code("effects.proven")
    assert len(proven) == len(plan.subgraphs)
    assert all(s.race_free and s.write_exact and s.read_covered
               for s in report.subgraphs)


def test_analysis_never_touches_a_device(monkeypatch):
    """The tentpole contract: zero Device executions during analysis."""
    def boom(*args, **kwargs):
        raise AssertionError("effect analysis constructed a Device")

    monkeypatch.setattr(Device, "__init__", boom)
    for strategy in STRATEGIES:
        _, plan = _compiled(small_chain_graph(), strategy)
        report = analyze_effects(plan)
        assert report.proven


def test_strict_compile_consumes_effects():
    engine = BrickDLEngine(small_chain_graph(), strict=True)
    plan = engine.compile()  # raises PlanError if the effects pass fails
    assert plan.subgraphs


def test_plan_coverage_check():
    _, plan = _compiled(small_chain_graph())
    truncated = type(plan)(plan.graph, plan.subgraphs[:-1])
    report = analyze_effects(truncated)
    assert not report.ok
    assert report.by_code("effects.plan-coverage")


# -- traffic bounds ----------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES,
                         ids=lambda s: s.value if s else "auto")
@pytest.mark.parametrize("build", [small_chain_graph, residual_graph],
                         ids=["chain", "residual"])
def test_bounds_bracket_simulated_run(build, strategy):
    graph = build()
    engine, plan = _compiled(graph, strategy)
    report = analyze_effects(plan)
    metrics = engine.run(input_for(graph), functional=False).metrics
    mem = metrics.memory
    assert report.dram_read_lb <= mem.dram_read_txns <= report.dram_read_ub
    assert report.dram_write_lb <= mem.dram_write_txns <= report.dram_write_ub
    assert report.l2_lb <= mem.l2_txns <= report.l2_ub
    # The static task count models batch sample 0; at batch 1 that is every
    # task the device ran, the tail from-bricks conversions included.
    assert report.num_tasks == metrics.num_tasks


def test_manifest_bracket_pass_and_fail():
    _, plan = _compiled(small_chain_graph(), Strategy.PADDED)
    report = analyze_effects(plan)
    inside = SimpleNamespace(metrics={"memory": {
        "dram_read_txns": report.dram_read_lb,
        "dram_write_txns": report.dram_write_ub,
        "dram_txns": report.dram_read_lb + report.dram_write_ub,
    }})
    ok = check_manifest_bracket(report, inside)
    assert ok.ok and ok.by_code("effects.bracket-ok")
    outside = SimpleNamespace(metrics={"memory": {
        "dram_read_txns": report.dram_read_ub + 1,
        "dram_write_txns": report.dram_write_ub,
        "dram_txns": report.dram_read_ub + 1 + report.dram_write_ub,
    }})
    bad = check_manifest_bracket(report, outside)
    assert not bad.ok
    assert bad.by_code("effects.bracket")


# -- seeded mutants ----------------------------------------------------------


def _mutation_targets(plan):
    """(exit, member-pred-of-exit) of the first merged subgraph."""
    sub = _merged_sub(plan)
    exit_id = sub.subgraph.exit_ids[0]
    members = set(sub.subgraph.node_ids)
    pred = next(i for i in plan.graph.node(exit_id).inputs if i in members)
    return exit_id, pred


@pytest.mark.parametrize("strategy",
                         [Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT],
                         ids=lambda s: s.value)
def test_dropped_dependency_edge_rejected(strategy):
    _, plan = _compiled(small_chain_graph(), strategy)
    exit_id, pred = _mutation_targets(plan)
    report = analyze_effects(plan, mutation=EffectMutation(drop_dep_edge=(exit_id, pred)))
    assert not report.ok
    assert report.by_code("effects.read-coverage")


@pytest.mark.parametrize("strategy",
                         [Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT],
                         ids=lambda s: s.value)
def test_shrunken_halo_rejected(strategy):
    _, plan = _compiled(small_chain_graph(), strategy)
    report = analyze_effects(plan, mutation=EffectMutation(shrink_halo=1))
    assert not report.ok
    assert report.by_code("effects.read-coverage")


@pytest.mark.parametrize("strategy",
                         [Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT],
                         ids=lambda s: s.value)
def test_skipped_writer_brick_rejected(strategy):
    _, plan = _compiled(small_chain_graph(), strategy)
    exit_id, pred = _mutation_targets(plan)
    # An interior member's brick: consumers read data nothing wrote.
    interior = analyze_effects(plan, mutation=EffectMutation(skip_writer=(pred, 0)))
    assert not interior.ok
    assert interior.by_code("effects.race")
    # An exit brick: the declared output region is no longer covered.
    missing = analyze_effects(plan, mutation=EffectMutation(skip_writer=(exit_id, 0)))
    assert not missing.ok
    assert missing.by_code("effects.write-coverage")


# -- soundness vs the dynamic ground truth -----------------------------------


def _expand_access(access):
    """Byte intervals an access touches: reps expand into segment copies."""
    offsets = [access.offset]
    for count, stride in access.reps:
        offsets = [o + i * stride for o in offsets for i in range(count)]
    return [(o, o + access.nbytes) for o in offsets]


def _assert_contained(graph, strategy):
    engine = BrickDLEngine(graph, strategy_override=strategy)
    plan = engine.compile()
    report = analyze_effects(plan, collect_sets=True)
    assert report.ok, [d.render() for d in report.errors]
    device = Device(adapt_sectors(A100, plan))
    engine.run(inputs=None, functional=False, device=device, plan=plan)
    for task in device.tasks:
        for access in task.accesses:
            if access.on_chip or access.nbytes == 0:
                continue
            name = access.buffer.name
            effect = report.effect_sets.get(name)
            assert effect is not None, f"no static effects for buffer {name!r}"
            for lo, hi in _expand_access(access):
                assert effect.covers(lo, hi), (
                    f"dynamic access [{lo}, {hi}) of {name!r} (task "
                    f"{task.label!r}) escapes the static effect set")


@pytest.mark.parametrize("strategy", STRATEGIES,
                         ids=lambda s: s.value if s else "auto")
def test_effects_contain_dynamic_accesses(strategy):
    _assert_contained(small_chain_graph(), strategy)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_dag())
def test_effects_contain_dynamic_accesses_random_dags(graph):
    _assert_contained(graph, None)


# -- tuner pruning -----------------------------------------------------------


def test_prune_preserves_winner_and_skips_candidates():
    graph = residual_graph()
    _, unpruned = tune_plan(graph, prune=False)
    _, pruned = tune_plan(graph)
    assert pruned.pruned > 0
    assert unpruned.pruned == 0
    assert [(c.index, c.strategy, c.brick) for c in pruned.choices] == \
           [(c.index, c.strategy, c.brick) for c in unpruned.choices]
    assert "pruned without simulation" in pruned.summary()


def test_time_lower_bound_is_sound():
    from repro.core.tuner import _profile_subgraph
    from repro.core.perfmodel import DEFAULT_CONFIG

    _, plan = _compiled(small_chain_graph())
    sub = _merged_sub(plan)
    for strategy in (Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT):
        for brick in (4, 8):
            lb = candidate_time_lower_bound(sub, strategy, brick)
            measured = _profile_subgraph(sub, strategy, brick, A100, DEFAULT_CONFIG)
            if measured is None:
                assert lb is None or not is_chain_subgraph(sub.subgraph)
                continue
            assert lb is not None
            assert lb <= measured, (strategy, brick, lb, measured)
            # The hook fires iff lb >= incumbent: at best_time == lb it prunes
            # (ties never replace the incumbent), above measured it must not.
            assert effect_prune(sub, strategy, brick, A100, DEFAULT_CONFIG, lb)
            assert not effect_prune(sub, strategy, brick, A100, DEFAULT_CONFIG,
                                    measured + 1.0)


# -- distributed schedule ----------------------------------------------------


def test_distributed_halo_schedule_proven():
    from repro.graph.builder import GraphBuilder
    from repro.graph.tensorspec import TensorSpec

    b = GraphBuilder("dist", TensorSpec(1, 3, (32, 32)))
    b.conv_bn_relu(8, 3, prefix="c1")
    b.conv_bn_relu(8, 3, prefix="c2")
    graph = b.graph
    _, plan = _compiled(graph)
    report = analyze_effects(plan, num_ranks=4)
    assert report.ok
    assert report.by_code("effects.distributed")


def test_distributed_skip_on_global_head():
    _, plan = _compiled(small_chain_graph())
    report = analyze_effects(plan)
    assert report.by_code("effects.distributed-skip")
    assert not report.by_code("effects.distributed")


# -- plans that read before they write ------------------------------------------


def _split_around_middle(graph, views):
    """``views`` with the first group of 3+ members split into {first, last}
    and {the rest}: a non-convex pair that reads what the rest produces."""
    from repro.graph.traversal import subgraph_view

    i = next(k for k, v in enumerate(views) if len(v) >= 3)
    ids = list(views[i].node_ids)
    return i, (views[:i] + [subgraph_view(graph, [ids[0], ids[-1]]),
                            subgraph_view(graph, ids[1:-1])] + views[i + 1:])


def test_unproduced_entry_is_reported_not_raised():
    """A subgraph that reads an entry no earlier subgraph produced is an
    error diagnostic naming both; like a coverage error, it stops the
    analysis before any subgraph is modelled."""
    from dataclasses import replace

    from repro.core.plan import ExecutionPlan

    _, plan = _compiled(residual_graph())
    i, views = _split_around_middle(plan.graph, [s.subgraph for s in plan.subgraphs])
    bad = ExecutionPlan(plan.graph)
    template = plan.subgraphs[i]
    bad.subgraphs = [replace(template if k in (i, i + 1) else plan.subgraphs[k - (k > i)],
                             index=k, subgraph=view) for k, view in enumerate(views)]
    report = analyze_effects(bad)
    first = report.by_code("effects.unproduced-entry")[0]
    assert not report.ok
    assert first.subgraph_index == i
    assert f"subgraph {i} reads entry {views[i].entry_ids[-1]}" in first.message
    assert not report.subgraphs


def test_lint_effects_reports_an_unproduced_entry(monkeypatch, capsys):
    import repro.core.engine as engine_module
    from repro.cli import main

    real = engine_module.partition_graph
    monkeypatch.setattr(engine_module, "partition_graph",
                        lambda graph, *a, **k: _split_around_middle(graph, real(graph, *a, **k))[1])
    assert main(["lint", "mobilenet_v1", "--reduced", "--effects"]) != 0
    assert "effects.unproduced-entry" in capsys.readouterr().out
