"""Static halo analysis for merged subgraphs (section 3.2.1, Fig. 4).

Given a subgraph and a brick geometry on its exit activations, this analysis
answers, per member node, *which output region of that node one exit brick's
computation touches*.  It is the reverse traversal the paper describes: the
subgraph is walked backwards from the exit with a work queue, and every
node's requirement grows by that operator's halo, producing the telescoping
``B + 2p, B + 4p, ...`` padded brick sizes of Fig. 4.

Two consumers:

* the **padded-bricks executor** uses the per-node regions directly as the
  enlarged regions each brick task computes;
* the **performance model** (section 3.3.2) uses the aggregate *data growth*
  ``delta`` -- the fraction of extra activation data the padding introduces
  across the subgraph -- to choose between padded and memoized execution
  (memoized when ``delta > 15 %``).
"""

from __future__ import annotations

import itertools
import math

from repro.core.bricked import BrickGrid
from repro.core.geometry import ClosureRow, SubgraphGeometry
from repro.errors import PlanError
from repro.graph.regions import Region
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

    ``exit_id`` restricts the analysis to one exit (None = all exits).
    """
    graph = subgraph.graph
    exit_ids = [exit_id] if exit_id is not None else list(subgraph.exit_ids)
    geom = SubgraphGeometry(subgraph, brick_shape)

    padded_elems = 0
    for eid in exit_ids:
        extents = graph.node(eid).spec.spatial
        if len(brick_shape) != len(extents):
            raise PlanError(f"brick rank {len(brick_shape)} vs exit spatial rank {len(extents)}")
        table = geom.closure_table(eid)
        # Closure rows compose per axis, so the bricks whose rows are all
        # clean sum multiplicatively without being enumerated:
        #   padded_elems(node) = prod_d ( sum_i clipped_len_{d,i}(node) ).
        # Bricks touching a void row (an empty need: see repro.core.geometry)
        # do not decompose and are summed one by one.
        clean = [[r for r in rows if not r.void] for rows in table]
        sums = [[sum(lens) for lens in zip(*map(_lengths, rows))] for rows in clean]
        padded_elems += sum(map(math.prod, zip(*sums)))
        if any(len(c) < len(rows) for c, rows in zip(clean, table)):
            for gpos in itertools.product(*(range(len(rows)) for rows in table)):
                if any(rows[i].void for rows, i in zip(table, gpos)):
                    padded_elems += sum(map(math.prod, zip(*map(
                        _lengths, geom.closure_rows(eid, gpos)))))

    exact_elems = 0
    for nid in list(subgraph.node_ids) + list(subgraph.entry_ids):
        spec = graph.node(nid).spec
        exact_elems += int(spec.num_elements // (spec.batch * spec.channels))
    if exact_elems == 0:
        return 0.0
    return padded_elems / exact_elems - 1.0


def _lengths(row: ClosureRow) -> list[int]:
    """Clipped length of every closure node along the row's axis."""
    return [r.length for r in (*row.members.values(), *row.entries.values())]


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
