"""The plan verifier: independent re-derivation of ExecutionPlan invariants.

``verify_plan`` trusts nothing recorded in a :class:`SubgraphPlan` beyond
its identity (the member ids and the chosen brick/strategy); every analysis
artifact the compiler wrote down is recomputed from the graph and the model
configuration and cross-checked:

* **coverage / ordering** -- every non-input node belongs to exactly one
  subgraph and subgraphs appear in topological (id) order;
* **contiguity & dependency-convexity** (section 3.3.1) -- member ids form
  a contiguous id range (modulo interleaved graph inputs), and no path
  between two members leaves the subgraph.  Convexity is what makes merged
  execution legal at all: a path escaping the subgraph would need an
  activation that is only materialized after the subgraph completes;
* **entries / exits** -- recomputed from the graph's edges;
* **footprint** (section 3.3.1) -- ``merged_footprint_bytes`` recomputed
  with the plan's actual brick shape must equal the recorded
  ``footprint_bytes`` and fit the L2 budget;
* **halo regions** (section 3.2.1) -- for sampled exit bricks, the
  ``required_regions`` table must be a fixpoint of the per-edge
  receptive-field maps (every producer region contains what its consumer's
  region demands) and must cover every member that can reach the exit;
  cross-checked against ``chain_padded_sizes`` for the central brick;
* **strategy / brick model** (sections 3.3.2-3.3.3) -- ``delta`` and
  ``rho`` recomputed; the recorded choice must match the paper's
  ``delta > 15 %`` and ``rho <= tau`` rules, and cuDNN fallbacks must be
  justified (global op, no spatial dims, or insufficient parallelism).

Compilation overrides (``strategy_override``, ``brick_override``,
``layer_schedule``) deliberately bypass parts of the model; pass the same
values here and the corresponding checks are relaxed instead of reported
as violations.
"""

from __future__ import annotations

import math

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.core.geometry import SubgraphGeometry
from repro.core.halo import chain_padded_sizes, padding_growth
from repro.core.partition import merged_footprint_bytes
from repro.core.perfmodel import (
    DEFAULT_CONFIG,
    PerfModelConfig,
    choose_brick_size,
    choose_strategy,
    parallelism,
)
from repro.core.plan import ExecutionPlan, Strategy, SubgraphPlan
from repro.errors import ReproError
from repro.graph.ir import Graph
from repro.graph.regions import Region
from repro.graph.traversal import ancestors, descendants, subgraph_view
from repro.gpusim.spec import A100, GPUSpec

__all__ = ["verify_plan"]

_PASS = "plan-verify"
#: Exit grids with more bricks than this have their halo regions checked on
#: a sample (center, corners, edge midpoints) instead of every brick.
MAX_REGION_BRICKS = 32


def _diag(report: AnalysisReport, code: str, severity: Severity, message: str,
          subgraph_index: int | None = None, node_id: int | None = None) -> None:
    report.add(Diagnostic(pass_name=_PASS, code=code, severity=severity,
                          message=message, node_id=node_id,
                          subgraph_index=subgraph_index))


def verify_plan(
    plan: ExecutionPlan,
    spec: GPUSpec = A100,
    config: PerfModelConfig = DEFAULT_CONFIG,
    *,
    strategy_override: Strategy | None = None,
    brick_override: int | None = None,
    layer_schedule: tuple[int, ...] | None = None,
) -> AnalysisReport:
    """Re-derive and check every invariant of ``plan``; see module docstring."""
    report = AnalysisReport()
    graph = plan.graph
    _check_coverage(graph, plan, report)
    for sub in plan.subgraphs:
        _check_membership(graph, sub, report)
        if sub.is_merged:
            _check_footprint(graph, sub, spec, config, report,
                             scheduled=layer_schedule is not None)
            _check_regions(graph, sub, report)
        _check_model(graph, sub, config, report,
                     strategy_override=strategy_override,
                     brick_override=brick_override)
    return report


# -- whole-plan coverage -----------------------------------------------------
def _check_coverage(graph: Graph, plan: ExecutionPlan, report: AnalysisReport) -> None:
    owner: dict[int, int] = {}
    last_min = -1
    for sub in plan.subgraphs:
        if not sub.subgraph.node_ids:
            _diag(report, "plan.empty-subgraph", Severity.ERROR,
                  f"subgraph {sub.index} has no members", sub.index)
            continue
        first = min(sub.subgraph.node_ids)
        if first <= last_min:
            _diag(report, "plan.order", Severity.ERROR,
                  f"subgraph {sub.index} starts at node {first}, not after the "
                  f"previous subgraph", sub.index)
        last_min = first
        for nid in sub.subgraph.node_ids:
            if nid in owner:
                _diag(report, "plan.overlap", Severity.ERROR,
                      f"node {graph.node(nid).name!r} appears in subgraphs "
                      f"{owner[nid]} and {sub.index}", sub.index, nid)
            owner[nid] = sub.index
    for node in graph.nodes:
        if node.is_input or node.node_id in owner:
            continue
        _diag(report, "plan.uncovered", Severity.ERROR,
              f"node {node.name!r} is not covered by any subgraph",
              node_id=node.node_id)


# -- per-subgraph structure --------------------------------------------------
def _check_membership(graph: Graph, sub: SubgraphPlan, report: AnalysisReport) -> None:
    members = set(sub.subgraph.node_ids)
    if not members:
        return

    # Contiguity: ids in [min, max] are members or graph inputs.
    lo, hi = min(members), max(members)
    for nid in range(lo, hi + 1):
        if nid not in members and not graph.node(nid).is_input:
            _diag(report, "plan.contiguity", Severity.ERROR,
                  f"subgraph {sub.index}: member ids [{lo}, {hi}] skip non-input "
                  f"node {graph.node(nid).name!r}", sub.index, nid)

    # Dependency convexity: no node outside the subgraph lies on a path
    # between two members.  A violator is any non-member that is both
    # reachable from a member and an ancestor of a member.
    between = descendants(graph, members) & ancestors(graph, members)
    for nid in sorted(between - members):
        _diag(report, "plan.convexity", Severity.ERROR,
              f"subgraph {sub.index}: node {graph.node(nid).name!r} lies on a "
              f"path between members but is not a member", sub.index, nid)

    # Entries/exits must match what the graph's edges say today.
    try:
        fresh = subgraph_view(graph, sub.subgraph.node_ids)
    except ReproError as exc:
        _diag(report, "plan.view", Severity.ERROR,
              f"subgraph {sub.index}: member set no longer forms a valid view: {exc}",
              sub.index)
        return
    if set(fresh.entry_ids) != set(sub.subgraph.entry_ids):
        _diag(report, "plan.entries", Severity.ERROR,
              f"subgraph {sub.index}: recorded entries {sorted(sub.subgraph.entry_ids)} "
              f"!= re-derived {sorted(fresh.entry_ids)}", sub.index)
    if set(fresh.exit_ids) != set(sub.subgraph.exit_ids):
        _diag(report, "plan.exits", Severity.ERROR,
              f"subgraph {sub.index}: recorded exits {sorted(sub.subgraph.exit_ids)} "
              f"!= re-derived {sorted(fresh.exit_ids)}", sub.index)


# -- footprint ---------------------------------------------------------------
def _check_footprint(graph: Graph, sub: SubgraphPlan, spec: GPUSpec,
                     config: PerfModelConfig, report: AnalysisReport,
                     scheduled: bool) -> None:
    if not sub.brick_shape:
        return
    recomputed = merged_footprint_bytes(
        graph, sub.subgraph.node_ids, sub.subgraph.entry_ids, sub.brick_shape)
    if sub.footprint_bytes and recomputed != sub.footprint_bytes:
        _diag(report, "plan.footprint-mismatch", Severity.ERROR,
              f"subgraph {sub.index}: recorded footprint {sub.footprint_bytes} B "
              f"!= recomputed {recomputed} B (brick {sub.brick_shape})", sub.index)
    budget = int(spec.l2_bytes * config.l2_budget_fraction)
    if recomputed > budget and len(sub.subgraph) > 1:
        # A forced layer schedule deliberately explores over-budget merges.
        sev = Severity.WARNING if scheduled else Severity.ERROR
        _diag(report, "plan.footprint-budget", sev,
              f"subgraph {sub.index}: footprint {recomputed} B exceeds the L2 "
              f"budget {budget} B across {len(sub.subgraph)} merged layers",
              sub.index)


# -- halo regions (section 3.2.1) --------------------------------------------
def _sample_bricks(grid_shape: tuple[int, ...], limit: int) -> list[tuple[int, ...]]:
    """Center, corners, and an edge midpoint per dim -- or all bricks when few."""
    total = math.prod(grid_shape)
    if total <= limit:
        positions: list[tuple[int, ...]] = [()]
        for g in grid_shape:
            positions = [p + (i,) for p in positions for i in range(g)]
        return positions
    picks = {tuple(g // 2 for g in grid_shape)}
    for mask in range(2 ** len(grid_shape)):
        picks.add(tuple((g - 1 if (mask >> d) & 1 else 0)
                        for d, g in enumerate(grid_shape)))
    for d, g in enumerate(grid_shape):
        mid = list(x // 2 for x in grid_shape)
        mid[d] = g - 1
        picks.add(tuple(mid))
    return sorted(picks)


def _check_regions(graph: Graph, sub: SubgraphPlan, report: AnalysisReport) -> None:
    from repro.core.bricked import BrickGrid

    members = set(sub.subgraph.node_ids)
    # One geometry for every sampled brick: its receptive-field maps are
    # computed once, and ``required`` runs the joint reverse traversal.
    geom = SubgraphGeometry(sub.subgraph)
    for exit_id in sub.subgraph.exit_ids:
        exit_spec = graph.node(exit_id).spec
        if not exit_spec.spatial or not sub.brick_shape:
            continue
        if len(sub.brick_shape) != len(exit_spec.spatial):
            _diag(report, "plan.brick-rank", Severity.ERROR,
                  f"subgraph {sub.index}: brick rank {len(sub.brick_shape)} vs exit "
                  f"{graph.node(exit_id).name!r} spatial rank {len(exit_spec.spatial)}",
                  sub.index, exit_id)
            continue
        shape = tuple(min(b, e) for b, e in zip(sub.brick_shape, exit_spec.spatial))
        grid = BrickGrid(exit_spec.spatial, shape)

        # Members that can reach this exit inside the subgraph must all be
        # touched by its halo requirement.
        needed: set[int] = {exit_id}
        stack = [exit_id]
        while stack:
            nid = stack.pop()
            for i in graph.node(nid).inputs:
                if i in members and i not in needed:
                    needed.add(i)
                    stack.append(i)

        for gpos in _sample_bricks(grid.grid_shape, MAX_REGION_BRICKS):
            out_region = grid.brick_region(gpos, clipped=True)
            try:
                required = geom.required(exit_id, out_region)
            except ReproError as exc:
                _diag(report, "plan.regions", Severity.ERROR,
                      f"subgraph {sub.index}: halo analysis failed for exit "
                      f"{graph.node(exit_id).name!r} brick {gpos}: {exc}",
                      sub.index, exit_id)
                break
            if required.get(exit_id) != out_region:
                _diag(report, "plan.region-root", Severity.ERROR,
                      f"subgraph {sub.index}: exit {graph.node(exit_id).name!r} "
                      f"brick {gpos}: root region {required.get(exit_id)} != "
                      f"requested {out_region}", sub.index, exit_id)
            missing = needed - set(required)
            if missing:
                _diag(report, "plan.region-missing", Severity.ERROR,
                      f"subgraph {sub.index}: exit {graph.node(exit_id).name!r} "
                      f"brick {gpos}: members {sorted(missing)} feed the exit but "
                      f"have no required region", sub.index, exit_id)
            # Fixpoint: every producer region contains what each consumer
            # region demands along that edge.
            for nid in required:
                if nid not in members:
                    continue
                node = graph.node(nid)
                input_specs = [graph.node(i).spec for i in node.inputs]
                for input_index, pred in enumerate(node.inputs):
                    if pred not in required:
                        _diag(report, "plan.region-missing", Severity.ERROR,
                              f"subgraph {sub.index}: edge {pred} -> {nid}: producer "
                              f"{graph.node(pred).name!r} has no required region",
                              sub.index, nid)
                        continue
                    maps = node.op.rf_maps(input_specs, input_index)
                    need = Region(m.in_interval(iv)
                                  for m, iv in zip(maps, required[nid]))
                    if not required[pred].contains(need):
                        _diag(report, "plan.region-coverage", Severity.ERROR,
                              f"subgraph {sub.index}: exit brick {gpos}: region of "
                              f"{graph.node(pred).name!r} {required[pred]} does not "
                              f"cover {need} read by {node.name!r}", sub.index, nid)

        # Cross-check the Fig. 4 telescoping report against the same table
        # (chain_padded_sizes uses the unclipped central brick region).
        center = tuple(g // 2 for g in grid.grid_shape)
        required = geom.required(exit_id, grid.brick_region(center))
        chain = dict(chain_padded_sizes(sub.subgraph, exit_id, shape))
        for nid, region in required.items():
            name = graph.node(nid).name
            if chain.get(name) != region.shape:
                _diag(report, "plan.chain-sizes", Severity.ERROR,
                      f"subgraph {sub.index}: chain_padded_sizes reports "
                      f"{chain.get(name)} for {name!r} but required_regions gives "
                      f"{region.shape}", sub.index, nid)


# -- strategy / brick model (sections 3.3.2-3.3.3) ---------------------------
def _check_model(graph: Graph, sub: SubgraphPlan, config: PerfModelConfig,
                 report: AnalysisReport, *,
                 strategy_override: Strategy | None,
                 brick_override: int | None) -> None:
    from repro.core.engine import _max_kernel_extent

    view = sub.subgraph
    only = graph.node(view.node_ids[0]) if len(view) == 1 else None
    is_global = only is not None and (only.op.is_global or not only.op.is_local)
    exit_spec = graph.node(view.exit_ids[-1]).spec

    if is_global or not exit_spec.spatial:
        if sub.strategy is not Strategy.CUDNN:
            _diag(report, "plan.fallback-required", Severity.ERROR,
                  f"subgraph {sub.index}: {'global operator' if is_global else 'no spatial dims'} "
                  f"requires the cuDNN fallback, plan says {sub.strategy.value}",
                  sub.index)
        return

    narrowest = min(
        (graph.node(nid).spec.spatial for nid in view.node_ids
         if graph.node(nid).spec.spatial_ndim == exit_spec.spatial_ndim),
        key=lambda sp: math.prod(sp),
    )
    kernel_extent = _max_kernel_extent(graph, view.node_ids)
    if brick_override is not None:
        brick, rho, fallback = brick_override, parallelism(narrowest, brick_override), False
    else:
        decision = choose_brick_size(narrowest, config, kernel_extent)
        brick, rho, fallback = decision.brick, decision.rho, decision.fallback

    if fallback:
        if sub.strategy is not Strategy.CUDNN:
            _diag(report, "plan.fallback-required", Severity.ERROR,
                  f"subgraph {sub.index}: brick model finds insufficient parallelism "
                  f"(rho={rho:.0f}), plan says {sub.strategy.value}", sub.index)
        return
    if sub.strategy is Strategy.CUDNN:
        _diag(report, "plan.fallback-unjustified", Severity.ERROR,
              f"subgraph {sub.index}: plan falls back to cuDNN but the model finds "
              f"brick {brick} viable (rho={rho:.0f})", sub.index)
        return

    if not math.isclose(rho, sub.rho, rel_tol=1e-9, abs_tol=1e-9):
        _diag(report, "plan.rho-mismatch", Severity.ERROR,
              f"subgraph {sub.index}: recorded rho {sub.rho:.3f} != recomputed "
              f"{rho:.3f} (brick {brick}, narrowest {tuple(narrowest)})", sub.index)
    expected_shape = tuple(min(brick, e) for e in exit_spec.spatial)
    if sub.brick_shape != expected_shape:
        _diag(report, "plan.brick-mismatch", Severity.ERROR,
              f"subgraph {sub.index}: recorded brick {sub.brick_shape} != model "
              f"choice {expected_shape}", sub.index)
        return
    if brick_override is None and min(sub.brick_shape) < min(kernel_extent, min(exit_spec.spatial)):
        _diag(report, "plan.brick-vs-kernel", Severity.WARNING,
              f"subgraph {sub.index}: brick {sub.brick_shape} is smaller than the "
              f"largest kernel extent {kernel_extent} (section 3.3.4)", sub.index)

    delta = padding_growth(view, None, sub.brick_shape)
    if not math.isclose(delta, sub.delta, rel_tol=1e-9, abs_tol=1e-12):
        _diag(report, "plan.delta-mismatch", Severity.ERROR,
              f"subgraph {sub.index}: recorded delta {sub.delta:.4%} != recomputed "
              f"{delta:.4%}", sub.index)
    if strategy_override is None:
        expected = choose_strategy(delta, config)
        if sub.strategy is not expected and sub.strategy is not Strategy.WAVEFRONT:
            _diag(report, "plan.strategy-mismatch", Severity.ERROR,
                  f"subgraph {sub.index}: delta {delta:.1%} vs threshold "
                  f"{config.delta_threshold:.0%} implies {expected.value}, plan says "
                  f"{sub.strategy.value}", sub.index)
        if sub.strategy is Strategy.WAVEFRONT:
            _diag(report, "plan.strategy-wavefront", Severity.WARNING,
                  f"subgraph {sub.index}: wavefront strategy is never model-chosen "
                  f"(section 6 extension); expected {choose_strategy(delta, config).value}",
                  sub.index)
    elif sub.strategy is not strategy_override:
        _diag(report, "plan.override-ignored", Severity.ERROR,
              f"subgraph {sub.index}: strategy_override {strategy_override.value} "
              f"was not applied (plan says {sub.strategy.value})", sub.index)
