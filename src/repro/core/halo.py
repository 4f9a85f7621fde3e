"""Static halo analysis for merged subgraphs (section 3.2.1, Fig. 4).

Given a subgraph and a brick geometry on its exit activations, this analysis
answers, per member node, *which output region of that node one exit brick's
computation touches*.  It is the reverse traversal the paper describes: the
subgraph is walked backwards from the exit with a work queue, and every
node's requirement grows by that operator's halo, producing the telescoping
``B + 2p, B + 4p, ...`` padded brick sizes of Fig. 4.

Two consumers:

* the **padded-bricks executor** uses the per-node regions directly as the
  enlarged regions each brick task computes, through the closure rows
  :class:`~repro.core.geometry.SubgraphGeometry` tabulates from them;
* the **performance model** (section 3.3.2) uses the aggregate *data growth*
  ``delta`` -- the fraction of extra activation data the padding introduces
  across the subgraph -- to choose between padded and memoized execution
  (memoized when ``delta > 15 %``).  It reads only the traversal's clipped
  interval lengths (:func:`padding_growth`), never a closure row.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from repro.core.bricked import BrickGrid
from repro.core.geometry import SubgraphGeometry
from repro.errors import PlanError
from repro.graph.regions import Interval, Region
from repro.graph.traversal import SubgraphView

__all__ = ["required_regions", "padding_growth", "chain_padded_sizes"]


def required_regions(subgraph: SubgraphView, exit_id: int, out_region: Region) -> dict[int, Region]:
    """Per-node output regions needed to produce ``out_region`` of the exit.

    Returns ``{node_id: Region}`` in the node's own (absolute, unclipped)
    output coordinates, for every member node and every *entry* node that
    feeds the computation: the paper's queue-based reverse traversal
    (:class:`~repro.core.geometry.SubgraphGeometry`, which tabulates it per
    axis for the executors), hulling where a node feeds several consumers.
    """
    return SubgraphGeometry(subgraph).required(exit_id, out_region)


def padding_growth(subgraph: SubgraphView, exit_id: int | None, brick_shape: tuple[int, ...]) -> float:
    """The paper's ``delta``: fractional activation-data growth from padding.

    Sums, over every exit node, every exit brick, and every member/entry node
    the exit's computation touches, the (clipped) region the padded strategy
    would compute or copy, and compares against the exact activation sizes.
    Corner/edge/center bricks contribute their different (clipped) padding,
    as the paper notes; multi-exit subgraphs accumulate each exit's
    (redundant) requirements, which is what the padded executor really does.
    Only the lengths of the traversal's intervals are read
    (:meth:`SubgraphGeometry.traverse`); no closure row is built.

    ``exit_id`` restricts the analysis to one exit (None = all exits).
    """
    graph = subgraph.graph
    exit_ids = [exit_id] if exit_id is not None else list(subgraph.exit_ids)
    geom = SubgraphGeometry(subgraph, brick_shape)
    spatial = {nid: graph.node(nid).spec.spatial
               for nid in (*subgraph.node_ids, *subgraph.entry_ids)}

    padded_elems = 0
    for eid in exit_ids:
        extents = graph.node(eid).spec.spatial
        if len(brick_shape) != len(extents):
            raise PlanError(f"brick rank {len(brick_shape)} vs exit spatial rank {len(extents)}")
        # One traversal per (axis, brick index).  They compose per axis, so
        # the bricks whose traversals are all clean sum multiplicatively
        # without being enumerated:
        #   padded_elems(node) = prod_d ( sum_i clipped_len_{d,i}(node) ).
        table = [[(iv, *geom.traverse(eid, (axis,), (iv,))) for iv in ivs]
                 for axis, ivs in geom.brick_intervals(eid)]
        sums = [Counter() for _ in table]
        for axis, rows in enumerate(table):
            for _, required, void in rows:
                if not void:
                    for nid, (iv,) in required.items():
                        sums[axis][nid] += _clipped(iv, spatial[nid][axis])
        padded_elems += sum(math.prod(s[nid] for s in sums) for nid in sums[0])
        # Bricks touching a void traversal (an empty need: see
        # repro.core.geometry) do not decompose: one joint traversal each.
        if any(void for rows in table for *_, void in rows):
            for brick in itertools.product(*table):
                if any(void for *_, void in brick):
                    required, _ = geom.traverse(eid, range(len(brick)), [iv for iv, *_ in brick])
                    padded_elems += sum(math.prod(map(_clipped, ivs, spatial[nid]))
                                        for nid, ivs in required.items())

    exact_elems = sum(map(math.prod, spatial.values()))
    if exact_elems == 0:
        return 0.0
    return padded_elems / exact_elems - 1.0


def _clipped(iv: Interval, extent: int) -> int:
    """Length of ``iv`` inside a feature map of ``extent``."""
    return max(0, min(iv.hi, extent) - max(iv.lo, 0))


def chain_padded_sizes(subgraph: SubgraphView, exit_id: int, brick_shape: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """Human-readable per-layer padded brick sizes for a central brick.

    Reproduces Fig. 4's ``(Bh + 2px) x (Bw + 2py)``, ``(Bh + 4px) x ...``
    numbers: the input-region shape each member layer needs for one interior
    exit brick.  Returns ``[(node_name, padded_shape), ...]`` from the exit
    backwards.
    """
    graph = subgraph.graph
    exit_node = graph.node(exit_id)
    grid = BrickGrid(exit_node.spec.spatial, brick_shape)
    # A central brick: the grid's middle position.
    center = tuple(g // 2 for g in grid.grid_shape)
    required = required_regions(subgraph, exit_id, grid.brick_region(center))
    out = []
    for nid in sorted(required, reverse=True):
        out.append((graph.node(nid).name, required[nid].shape))
    return out
