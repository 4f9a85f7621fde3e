"""The effect analysis against something other than its old self.

``analysis/effects.py`` sums, counts and proves over brick grids from
per-axis rows.  ``oracle`` below walks the same schedules one brick at a
time with N-D ``Region`` algebra (``itertools.product`` over grid positions,
``geom.required`` / ``geom.needs`` / ``overlap_plan``) and must agree on
every padded and memoized subgraph: task count, flops and the DRAM read /
write upper bounds.  A second check needs no model at all: the static task
count and flops equal what the device runs.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.effects import EffectMutation, analyze_effects
from repro.core.bricked import BrickGrid, bricked_nbytes
from repro.core.engine import BrickDLEngine
from repro.core.geometry import SubgraphGeometry
from repro.core.plan import ExecutionPlan, Strategy, SubgraphPlan
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.graph.traversal import subgraph_view
from repro.models import zoo
from testlib import random_dag

LINE = 32


def _txns(nbytes):
    return -(-nbytes // LINE) if nbytes > 0 else 0


def _bricks(grid):
    return itertools.product(*map(range, grid.grid_shape))


class _Oracle:
    """Brick-by-brick (tasks, flops, DRAM read ub, DRAM write ub) of every
    padded / memoized subgraph of a plan, tracking boundary layouts."""

    def __init__(self, plan):
        self.graph = graph = plan.graph
        self.fmt = {n.node_id: None for n in graph.input_nodes}  # None = dense
        self.rows = {}
        for sub in plan.subgraphs:
            view, brick = sub.subgraph, tuple(sub.brick_shape)
            if not sub.is_merged:  # the fallback densifies what it reads and writes
                for nid in view.node_ids:
                    self.fmt.update(dict.fromkeys((*graph.node(nid).inputs, nid)))
                continue
            self.tasks, self.flops, self.ub, self.touched = 0, 0, {False: 0, True: 0}, set()
            self.geom = SubgraphGeometry(view, brick)
            self.batch = graph.node(view.node_ids[0]).spec.batch
            for eid in view.entry_ids:  # to-bricks conversions
                spec, layout = graph.node(eid).spec, self.fmt[eid]
                if layout is not None and layout != brick:
                    self.fmt[eid] = tuple(min(b, e) for b, e in zip(brick, spec.spatial))
                    self._access(bricked_nbytes(spec, layout), 1, False)
                    self._brick_access(eid, BrickGrid(spec.spatial, self.fmt[eid]).num_bricks, True)
                    self.tasks += 1
            (self._padded if sub.strategy is Strategy.PADDED else self._memoized)(view, brick)
            self.fmt.update(dict.fromkeys(view.exit_ids, brick))
            self.rows[sub.index] = (self.tasks, self.flops, self.ub[False], self.ub[True])

    def _access(self, seg, segs, write, mult=1):
        if seg > 0 and segs > 0:
            self.ub[write] += segs * (_txns(seg) + 1) * mult

    def _brick_access(self, nid, count, write, layout=None):
        spec = self.graph.node(nid).spec
        layout = layout or self.fmt[nid]
        self._access(spec.channels * math.prod(layout) * spec.itemsize, count, write, self.batch)

    def _entry_read(self, eid, region):
        spec, layout = self.graph.node(eid).spec, self.fmt[eid]
        if layout is not None:
            count = len(BrickGrid(spec.spatial, layout).overlap_plan(region))
            return self._brick_access(eid, count, False)
        clipped = region.clip(spec.spatial)
        if not clipped.is_empty():
            self._access(clipped[-1].length * spec.itemsize,
                         spec.channels * math.prod(iv.length for iv in clipped[:-1]),
                         False, self.batch)

    def _compute(self, nid, region):
        node = self.graph.node(nid)
        if nid not in self.touched:  # pinned weights: one DRAM first touch per subgraph
            self.touched.add(nid)
            self.ub[False] += _txns(node.op.weight_bytes(
                [self.graph.node(i).spec for i in node.inputs]))
        self.flops += self.geom.flops(nid, node.spec.channels * region.size)

    def _padded(self, view, brick):
        for exit_id in view.exit_ids:
            grid = BrickGrid(self.graph.node(exit_id).spec.spatial, brick)
            for gpos in _bricks(grid):
                required = self.geom.required(exit_id, grid.brick_region(gpos, clipped=True))
                for eid in view.entry_ids:
                    if eid in required:
                        self._entry_read(eid, required[eid])
                for nid in view.node_ids:
                    if nid in required:
                        region = required[nid].clip(self.graph.node(nid).spec.spatial)
                        if not region.is_empty():
                            self._compute(nid, region)
                self._brick_access(exit_id, 1, True, brick)
                self.tasks += 1

    def _memoized(self, view, brick):
        grids = {nid: BrickGrid(self.graph.node(nid).spec.spatial, brick)
                 for nid in view.node_ids}
        demanded = set()
        stack = [(eid, gpos) for eid in view.exit_ids for gpos in _bricks(grids[eid])]
        while stack:
            nid, gpos = key = stack.pop()
            if key in demanded:
                continue
            demanded.add(key)
            region = grids[nid].brick_region(gpos, clipped=True)
            needs, _ = self.geom.needs(nid, region)
            for need, pred in zip(needs, self.graph.node(nid).inputs):
                if pred in grids:
                    deps = grids[pred].overlap_plan(need)
                    self._brick_access(pred, len(deps), False, brick)
                    stack.extend((pred, dep) for dep in deps)
                else:
                    self._entry_read(pred, need)
            self._compute(nid, region)
            self._brick_access(nid, 1, True, brick)
            self.tasks += 1
        self.demanded = demanded


def oracle(plan):
    return _Oracle(plan).rows


def assert_matches_oracle(plan):
    report = analyze_effects(plan)
    assert report.proven, [d.render() for d in report.errors]
    rows = {s.index: (s.num_tasks, s.flops, s.dram_read_ub, s.dram_write_ub)
            for s in report.subgraphs if s.strategy in ("padded", "memoized")}
    assert rows == oracle(plan)
    return report


def _device_run(plan, **engine_kwargs):
    engine = BrickDLEngine(plan.graph, **engine_kwargs)
    result = engine.run(None, functional=False, plan=plan)
    return result.metrics, result.trace.records


# -- hypothesis: random DAGs ---------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_dag())
def test_random_dags_match_the_per_brick_oracle(graph):
    for strategy in (None, Strategy.PADDED, Strategy.MEMOIZED):
        assert_matches_oracle(BrickDLEngine(graph, strategy_override=strategy).compile())


# -- hand-built subgraphs ------------------------------------------------------


def test_demand_set_that_is_not_a_box():
    """Two consumers whose per-axis needs do not nest: one strides down the
    rows, the other along the columns, so their shared producer is demanded
    on its 8x8 brick grid minus the corner brick (7, 7)."""
    b = GraphBuilder("cross", TensorSpec(1, 4, (32, 32)))
    shared = b.conv(4, 3, padding=1, name="shared")
    rows = b.conv(4, 1, stride=(8, 1), src=shared, name="rows")
    cols = b.conv(4, 1, stride=(1, 8), src=shared, name="cols")
    graph = b.graph
    graph.mark_output(rows)
    graph.mark_output(cols)
    graph.validate()
    overrides = dict(strategy_override=Strategy.MEMOIZED, brick_override=4,
                     layer_schedule=(3,))
    plan = BrickDLEngine(graph, **overrides).compile()
    (sub,) = plan.subgraphs
    assert sub.strategy is Strategy.MEMOIZED and len(sub.subgraph) == 3

    demanded = _Oracle(plan).demanded
    every = set(itertools.product(range(8), range(8)))
    assert {g for nid, g in demanded if nid == shared.node_id} == every - {(7, 7)}

    report = assert_matches_oracle(plan)
    metrics, tasks = _device_run(plan, **overrides)
    memo = [t.node_id for t in tasks if t.label.startswith("memo/")]
    assert memo.count(shared.node_id) == 63  # not 64
    assert report.subgraphs[0].num_tasks == len(memo) == 63 + 8 + 8
    # Two bricked outputs: the run's two from-bricks tasks are counted too.
    assert report.num_tasks == metrics.num_tasks == len(memo) + 2
    assert report.total_flops == metrics.total_flops


def _upsample_plan(strategy, brick):
    """A kernel < stride transposed conv feeding a branch: on every other
    row of ``tall`` the need is empty on one axis only, so those bricks'
    closures do not compose per axis (PR 17's void rows)."""
    b = GraphBuilder("upsample", TensorSpec(1, 2, (4, 4)))
    x = b.current
    tall = b.deconv(2, (1, 3), stride=2, padding=(0, 1), src=x, name="tall")
    wide = b.deconv(2, (3, 1), stride=2, padding=(1, 0), src=x, name="wide")
    join = b.add(tall, wide, name="join")
    graph = b.finish()
    view = subgraph_view(graph, range(1, len(graph)))
    return ExecutionPlan(graph, [SubgraphPlan(0, view, strategy, brick)]), tall, join


def test_void_closure_rows_under_padded():
    for brick in ((1, 4), (4, 1), (1, 1)):
        for strategy in (Strategy.PADDED, Strategy.MEMOIZED):
            plan, _, join = _upsample_plan(strategy, brick)
            table = SubgraphGeometry(plan.subgraphs[0].subgraph, brick).closure_table(join.node_id)
            assert any(row.void for axis in table for row in axis)
            report = assert_matches_oracle(plan)
            metrics, _ = _device_run(plan)
            assert report.num_tasks == metrics.num_tasks
            assert report.total_flops == metrics.total_flops


@pytest.mark.parametrize("strategy", [Strategy.PADDED, Strategy.MEMOIZED],
                         ids=lambda s: s.value)
def test_ragged_extents_and_a_brick_larger_than_an_extent(strategy):
    """30 and 5 are not multiples of the brick, and 8 > 5."""
    b = GraphBuilder("ragged", TensorSpec(1, 3, (30, 5)))
    b.conv(4, 3, padding=1, name="c1")
    b.maxpool(2, name="pool")
    b.conv(4, 3, padding=1, name="c2")
    b.relu(name="out")
    graph = b.finish()
    view = subgraph_view(graph, range(1, len(graph)))
    for brick in ((8, 8), (4, 8), (7, 3)):
        plan = ExecutionPlan(graph, [SubgraphPlan(0, view, strategy, brick)])
        report = assert_matches_oracle(plan)
        metrics, _ = _device_run(plan)
        assert report.num_tasks == metrics.num_tasks
        assert report.total_flops == metrics.total_flops


# -- seeded mutants on the paths the zoo does not reach --------------------------


def test_skipped_patch_on_a_void_brick_is_sampled_by_name():
    """Exit brick (1, 0) of the 7x7 join sits on a void row, so it is taken
    one by one; skipping ``tall``'s patch there is one race, named."""
    plan, tall, join = _upsample_plan(Strategy.PADDED, (1, 4))
    flat = 1 * 2 + 0  # brick (1, 0) of the 7x2 grid
    report = analyze_effects(plan, mutation=EffectMutation(skip_writer=(tall.node_id, flat)))
    assert [d.message for d in report.by_code("effects.race")] == [
        f"task for exit brick (1, 0) skips the patch write of member {tall.node_id} "
        f"that its consumers read"]
    clean = analyze_effects(plan)
    assert report.num_tasks == clean.num_tasks  # the task still runs ...
    assert report.total_flops < clean.total_flops  # ... without the patch
    missing = analyze_effects(plan, mutation=EffectMutation(skip_writer=(join.node_id, flat)))
    assert [d.message for d in missing.by_code("effects.write-coverage")] == [
        f"exit {join.node_id}: 13/14 bricks written"]
    assert missing.num_tasks == clean.num_tasks - 1


def test_skipping_the_only_brick_of_an_exit_is_a_coverage_gap():
    plan, _, join = _upsample_plan(Strategy.MEMOIZED, (8, 8))
    report = analyze_effects(plan, mutation=EffectMutation(skip_writer=(join.node_id, 0)))
    assert [d.message for d in report.by_code("effects.write-coverage")] == [
        f"exit {join.node_id}: 1 of 1 bricks have no writer"]
    assert not report.subgraphs[0].write_exact


def test_violation_counts_are_exact_and_samples_capped():
    """Under 1x1 bricks a need trimmed by one per side is empty: each of the
    49 join bricks loses both inputs (and demands nothing of its producers,
    so they run no task that could lose anything more)."""
    plan, tall, join = _upsample_plan(Strategy.MEMOIZED, (1, 1))
    report = analyze_effects(plan, mutation=EffectMutation(shrink_halo=1))
    assert report.subgraphs[0].num_tasks == 49
    messages = [d.message for d in report.by_code("effects.read-coverage")]
    assert messages[0] == (
        f"node {join.node_id}: modeled need of input {tall.node_id} read "
        f"Region([1,1), [1,1)) does not cover required region Region([0,1), [0,1))")
    assert len(messages) == 6
    assert messages[-1] == f"... and {2 * 49 - 5} more effects.read-coverage violations"


# -- static == device ----------------------------------------------------------


@pytest.mark.parametrize("setting", ["planned", "padded", "memoized", "wavefront"])
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_static_counts_equal_the_device(model, setting):
    strategy = None if setting == "planned" else Strategy(setting)
    engine = BrickDLEngine(zoo.build(model, reduced=True), strategy_override=strategy)
    plan = engine.compile()
    report = analyze_effects(plan, check_distributed=False)
    metrics = engine.run(None, functional=False, plan=plan).metrics
    assert report.num_tasks == metrics.num_tasks
    assert report.total_flops == metrics.total_flops
