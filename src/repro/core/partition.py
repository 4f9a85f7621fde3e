"""DNN graph partitioning (section 3.3.1).

The partitioner walks the operator graph and groups consecutive mergeable
operators into subgraphs subject to three rules from the paper:

1. **On-chip residency** -- the data footprint of merged execution (member
   activations plus entry activations plus memo state) must fit the GPU L2
   cache (40 MB on A100), so intermediate bricks written by one layer are
   still resident when the next layer's bricks consume them.
2. **Reduction tails** -- a spatially reducing operator (pooling) closes its
   subgraph: after a reduction the layer shrinks, and carrying padding or
   atomics across the shrink is wasted overhead.
3. **Global boundaries** -- operators that need the whole activation
   (global pooling, flatten/dense heads, and any op without the
   ``alpha X + beta`` block contract) become single-node subgraphs executed
   un-bricked by the vendor-library fallback.

Node ids are a topological order and any contiguous id range is
dependency-convex (every path between two members stays inside the range),
so greedy contiguous grouping is safe even for branchy graphs (ResNet skip
connections, Inception modules).
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.ir import Graph, Node
from repro.graph.traversal import SubgraphView, subgraph_view
from repro.gpusim.spec import A100, GPUSpec
from repro.core.perfmodel import DEFAULT_CONFIG, PerfModelConfig

__all__ = ["partition_graph", "merged_footprint_bytes", "memo_state_bytes"]


def memo_state_bytes(
    graph: Graph,
    member_ids: Sequence[int],
    brick_shape: Sequence[int] | int,
) -> int:
    """Memo-state bytes: one tag byte per (batch, brick) of every member.

    Mirrors the memoized executor's allocation exactly
    (``bytearray(batch * grid_bricks)`` per member), so the plan verifier
    can cross-check recorded footprints against this recomputation.
    ``brick_shape`` is the per-dimension brick side, or a single side applied
    uniformly (the partitioner's estimate before the brick-size model runs).
    """
    import math

    total = 0
    for nid in member_ids:
        spec = graph.node(nid).spec
        if not spec.spatial:
            continue
        if isinstance(brick_shape, int):
            sides: Sequence[int] = (brick_shape,) * len(spec.spatial)
        else:
            sides = brick_shape
        clamped = tuple(min(int(b), e) for b, e in zip(sides, spec.spatial))
        bricks = math.prod(-(-e // b) for e, b in zip(spec.spatial, clamped))
        total += spec.batch * bricks
    return total


def merged_footprint_bytes(
    graph: Graph,
    member_ids: Sequence[int],
    entry_ids: Sequence[int],
    brick_shape: Sequence[int] | int | None = None,
) -> int:
    """On-chip working set of merged execution over ``member_ids``.

    Memoized execution keeps every member's bricked activation live until
    the subgraph completes (bricks are consumed asynchronously), so the
    footprint is the sum of member activations plus the entry activations
    being read, plus the memo-state arrays (one tag byte per brick, from the
    actual brick count of the candidate -- ``brick_shape`` defaults to the
    finest brick candidate, the largest state the brick-size model can
    later pick).
    """
    total = 0
    for nid in list(member_ids) + list(entry_ids):
        total += graph.node(nid).spec.nbytes
    if brick_shape is None:
        brick_shape = min(DEFAULT_CONFIG.brick_candidates)
    total += memo_state_bytes(graph, member_ids, brick_shape)
    return total


def _is_global(node: Node) -> bool:
    return node.op.is_global or not node.op.is_local


def partition_graph(
    graph: Graph,
    spec: GPUSpec = A100,
    config: PerfModelConfig = DEFAULT_CONFIG,
    layer_schedule: Sequence[int] | None = None,
) -> list[SubgraphView]:
    """Partition ``graph`` into subgraphs for merged execution.

    ``layer_schedule`` forces exact group sizes in order (cycling the last
    entry), which is how the microbenchmarks realize the paper's
    2+2+2 / 3+3 / 4+2 / 6 merge configurations of Fig. 10; when given, the
    footprint and reduction rules are suspended (the sweep deliberately
    explores configurations the model would reject).
    """
    graph.validate()
    budget = int(spec.l2_bytes * config.l2_budget_fraction)
    views: list[SubgraphView] = []
    current: list[int] = []
    schedule = list(layer_schedule) if layer_schedule else None
    schedule_pos = 0

    def close() -> None:
        nonlocal schedule_pos
        if current:
            views.append(subgraph_view(graph, current))
            current.clear()
            schedule_pos += 1

    for node in graph.nodes:
        if node.is_input:
            continue
        if _is_global(node):
            close()
            views.append(subgraph_view(graph, [node.node_id]))
            continue

        if schedule is not None:
            current.append(node.node_id)
            if len(current) >= schedule[min(schedule_pos, len(schedule) - 1)]:
                close()
            continue

        candidate = current + [node.node_id]
        entries = _entries_of(graph, candidate)
        footprint = merged_footprint_bytes(
            graph, candidate, entries, min(config.brick_candidates))
        if current and footprint > budget:
            close()
            candidate = [node.node_id]
        current[:] = candidate

        # Rule 2: resolution changes end their subgraph -- pooling and
        # strided convolutions shrink the layer (the paper: "the analysis
        # typically places the last node in a subgraph as a reduction
        # operation"), and transposed convolutions grow it; either way the
        # brick grid changes regime, so the subgraph closes.  Small halo
        # shrinkage from unpadded convolutions does not count.
        if node.op.is_reduction or _changes_resolution(graph, node):
            close()

    close()
    return views


def _changes_resolution(graph: Graph, node: Node) -> bool:
    import math

    out_vol = math.prod(node.spec.spatial) if node.spec.spatial else 0
    for i in node.inputs:
        spec = graph.node(i).spec
        if not spec.spatial:
            continue
        in_vol = math.prod(spec.spatial)
        if out_vol < 0.6 * in_vol or out_vol > 1.5 * in_vol:
            return True
    return False


def _entries_of(graph: Graph, member_ids: Sequence[int]) -> list[int]:
    members = set(member_ids)
    entries: list[int] = []
    for nid in member_ids:
        for i in graph.node(nid).inputs:
            if i not in members and i not in entries:
                entries.append(i)
    return entries
