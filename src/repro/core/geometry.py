"""Per-axis brick geometry tables: what every merged executor runs on.

Section 3.2 states the receptive-field contract per dimension (an input
block of size ``X_i`` yields ``alpha_i * X_i + beta_i`` outputs), and every
operation built on it -- ``in_interval``, hulls, clipping, brick overlap --
acts axis-wise.  A brick's geometry is therefore the product of one *row* per
axis, and the bricks of a grid share their rows: the 55,223 brick tasks of
the six full-scale benchmark configurations have 4,382 distinct rows.

:class:`SubgraphGeometry` tabulates the rows once per subgraph, lazily, in
O(sum of grid dims x nodes): an :class:`AxisRow` per (node, axis, grid
index), and for the padded strategy's reverse halo closure (section 3.2.1,
Fig. 4's per-axis ``B + 2p, B + 4p`` telescoping) a :class:`ClosureRow` per
(exit, axis, grid index).  Executors index rows by grid position and
assemble sizes as products of lengths and flat brick indices as sums of
per-axis terms, and a brick-local kernel call its patches from the rows'
need intervals; nothing on the per-brick path builds or hashes a region.
:meth:`SubgraphGeometry.needs` / :meth:`~SubgraphGeometry.required` are
Region-in/Region-out views over the same rows for the static analyses.  The
planner's delta needs interval lengths only, so it reads
:meth:`SubgraphGeometry.traverse` itself and builds no row.

Rows compose per axis except where a need is *empty* along one axis only (a
transposed conv with kernel < stride): in N-D that need is the empty set and
contributes nothing to a hull, which no single axis can see.  Closure rows
record it as ``void``; see :meth:`SubgraphGeometry.closure_rows`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.bricked import BrickGrid
from repro.errors import PlanError
from repro.graph.regions import Interval, Region

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graph.traversal import SubgraphView

__all__ = ["SubgraphGeometry", "AxisRow", "EdgeRow", "ClosureRow", "patch_geometry"]


@dataclass(frozen=True, slots=True)
class EdgeRow:
    """What one output interval reads from one producer along one axis."""

    need: Interval          # producer interval required (absolute, unclipped)
    offset: int             # RFMap.local_out_offset of the output in the patch
    length: int             # need length inside the producer's feature map
    bricks: range           # producer-grid brick indices overlapped
    terms: tuple[int, ...]  # ``bricks`` x the producer grid's row-major stride


@dataclass(frozen=True, slots=True)
class AxisRow:
    """One node's output interval along one axis and what it reads."""

    out: Interval
    length: int
    edges: tuple[EdgeRow, ...]  # one per input


@dataclass(frozen=True, slots=True)
class ClosureRow:
    """The padded closure of one exit interval along one axis.

    ``members`` rows are over each member's required interval clipped to its
    feature map (what the padded task computes); ``entries`` are the reads
    of the entry activations.  Both are keyed in subgraph order."""

    out: Interval
    required: dict[int, Interval]
    members: dict[int, AxisRow]
    entries: dict[int, EdgeRow]
    void: bool


def patch_geometry(rows: Sequence[AxisRow], num_inputs: int
                   ) -> tuple[tuple[int, ...], tuple[tuple[Interval, ...], ...], tuple[tuple[int, ...], ...]]:
    """``(out shape, per-input need intervals, per-input local offsets)`` of
    the brick ``rows`` describe: what a brick-local kernel call and the
    gathers feeding it take."""
    return (tuple(r.length for r in rows),
            tuple(tuple(r.edges[k].need for r in rows) for k in range(num_inputs)),
            tuple(tuple(r.edges[k].offset for r in rows) for k in range(num_inputs)))


def _brick_row(rows: list, brick: int, iv: Interval):
    """The table row of the brick spanning exactly ``iv``, if ``iv`` is one."""
    index, rem = divmod(iv.lo, brick)
    if rem == 0 and 0 <= index < len(rows) and rows[index].out == iv:
        return rows[index]
    return None


class SubgraphGeometry:
    """Per-axis geometry tables of one subgraph under one brick shape.

    ``entries`` are the handles entry activations are read through: a bricked
    one brings its own grid (its brick shape may be clamped), others are
    dense.  Without a ``brick_shape`` there are no tables and the Region
    views derive their rows on the fly.
    """

    def __init__(self, subgraph: "SubgraphView", brick_shape: Sequence[int] = (),
                 entries: Mapping[int, object] | None = None) -> None:
        self.subgraph = subgraph
        self.graph = subgraph.graph
        self.brick_shape = tuple(brick_shape)
        self.members = set(subgraph.node_ids)
        self._reverse = sorted(self.members, reverse=True)
        self._grids: dict[int, BrickGrid | None] = {
            eid: getattr(handle, "grid", None) for eid, handle in (entries or {}).items()}
        self._rf: dict[int, list[tuple]] = {}
        self._flops: dict[tuple[int, int], float] = {}
        self._tables: dict[int, tuple[list[AxisRow], ...]] = {}
        self._closures: dict[int, tuple[list[ClosureRow], ...]] = {}

    def rf_maps(self, nid: int) -> list[tuple]:
        """Per input of ``nid``, its receptive-field map along every axis."""
        maps = self._rf.get(nid)
        if maps is None:
            node = self.graph.node(nid)
            specs = [self.graph.node(i).spec for i in node.inputs]
            maps = self._rf[nid] = [node.op.rf_maps(specs, k) for k in range(len(specs))]
        return maps

    def flops(self, nid: int, out_elems: int) -> float:
        key = (nid, out_elems)
        if key not in self._flops:
            node = self.graph.node(nid)
            specs = [self.graph.node(i).spec for i in node.inputs]
            self._flops[key] = node.op.flops(specs, out_elems)
        return self._flops[key]

    def grid(self, nid: int) -> BrickGrid | None:
        """The brick grid ``nid``'s output is stored in: the entry handle's
        own for an entry, this subgraph's brick shape for a member."""
        if nid not in self._grids:
            self._grids[nid] = (
                BrickGrid(self.graph.node(nid).spec.spatial, self.brick_shape)
                if self.brick_shape and nid in self.members else None)
        return self._grids[nid]

    # -- rows ------------------------------------------------------------------
    def _edge(self, pred: int, axis: int, need: Interval, offset: int = 0) -> EdgeRow:
        extent = self.graph.node(pred).spec.spatial[axis]
        length = max(0, min(need.hi, extent) - max(need.lo, 0))
        grid = self.grid(pred)
        if grid is None:
            return EdgeRow(need, offset, length, range(0), ())
        return EdgeRow(need, offset, length, grid.axis_bricks(axis, need.lo, need.hi),
                       grid.axis_terms(axis, need.lo, need.hi))

    def axis_row(self, nid: int, axis: int, out: Interval) -> AxisRow:
        """The row of an arbitrary output interval of ``nid`` along ``axis``
        (the tables hold these rows for the brick intervals)."""
        edges = []
        for pred, maps in zip(self.graph.node(nid).inputs, self.rf_maps(nid)):
            need = maps[axis].in_interval(out)  # [0, 0) of an empty interval
            offset = maps[axis].local_out_offset(out.lo, need.lo) if out.hi > out.lo else 0
            edges.append(self._edge(pred, axis, need, offset))
        return AxisRow(out, out.length, tuple(edges))

    def brick_intervals(self, nid: int):
        """Per axis, the clipped interval of every brick index of ``nid``."""
        grid = self.grid(nid)
        if grid is None:
            raise PlanError(f"node {nid} has no brick grid in this geometry")
        for axis, (b, e) in enumerate(zip(grid.brick_shape, grid.extents)):
            yield axis, [Interval(lo, min(lo + b, e)) for lo in range(0, e, b)]

    def table(self, nid: int) -> tuple[list[AxisRow], ...]:
        """Per axis, the :class:`AxisRow` of every brick index of ``nid``."""
        table = self._tables.get(nid)
        if table is None:
            table = self._tables[nid] = tuple(
                [self.axis_row(nid, axis, iv) for iv in ivs]
                for axis, ivs in self.brick_intervals(nid))
        return table

    def rows(self, nid: int, gpos: Sequence[int]) -> list[AxisRow]:
        """One :class:`AxisRow` per axis for the brick of ``nid`` at ``gpos``."""
        table = self._tables[nid] if nid in self._tables else self.table(nid)
        return list(map(operator.getitem, table, gpos))

    def needs(self, nid: int, region: Region) -> tuple[tuple[Region, ...],
                                                       tuple[tuple[int, ...], ...]]:
        """Per-input need regions and local patch offsets for one output
        region of ``nid``: the Region view over :meth:`rows`."""
        table = self.table(nid) if self.brick_shape else None
        rows = [(table and _brick_row(table[axis], self.brick_shape[axis], iv))
                or self.axis_row(nid, axis, iv) for axis, iv in enumerate(region)]
        _, needs, offsets = patch_geometry(rows, len(self.graph.node(nid).inputs))
        return tuple(Region.trusted(need) for need in needs), offsets

    # -- the padded closure --------------------------------------------------------
    def traverse(self, exit_id: int, axes: Sequence[int],
                 out: Sequence[Interval]) -> tuple[dict[int, tuple[Interval, ...]], bool]:
        """The queue-based reverse traversal of section 3.2.1 over ``axes``
        jointly: per node (members and entries) the intervals needed to
        produce ``out`` of the exit, hulled where a node feeds several
        consumers.  A need that is empty along any traversed axis is the
        empty set and contributes nothing to a hull (``Region.hull``); the
        second result says whether that happened."""
        if exit_id not in self.members:
            raise PlanError(f"exit {exit_id} is not a member of the subgraph")
        required = {exit_id: tuple(out)}
        void = False
        for nid in self._reverse:
            ivs = required.get(nid)
            if ivs is None:
                continue
            for pred, maps in zip(self.graph.node(nid).inputs, self.rf_maps(nid)):
                need = tuple(maps[a].in_interval(iv) for a, iv in zip(axes, ivs))
                empty = any(iv.hi <= iv.lo for iv in need)
                void = void or empty
                have = required.get(pred)
                if have is None or any(iv.hi <= iv.lo for iv in have):
                    required[pred] = need
                elif not empty:
                    required[pred] = tuple(Interval(min(a.lo, b.lo), max(a.hi, b.hi))
                                           for a, b in zip(have, need))
        return required, void

    def _closure(self, exit_id: int, axes: Sequence[int],
                 out: Sequence[Interval]) -> list[ClosureRow]:
        """One :class:`ClosureRow` per axis of one (joint) traversal."""
        required, void = self.traverse(exit_id, axes, out)
        node = self.graph.node
        rows = []
        for j, axis in enumerate(axes):
            need = {nid: ivs[j] for nid, ivs in required.items()}
            rows.append(ClosureRow(
                out[j], need,
                {nid: self.axis_row(nid, axis, need[nid].clip(node(nid).spec.spatial[axis]))
                 for nid in self.subgraph.node_ids if nid in need},
                {eid: self._edge(eid, axis, need[eid])
                 for eid in self.subgraph.entry_ids if eid in need},
                void))
        return rows

    def closure_table(self, exit_id: int) -> tuple[list[ClosureRow], ...]:
        """Per axis, the :class:`ClosureRow` of every brick index of the exit."""
        table = self._closures.get(exit_id)
        if table is None:
            table = self._closures[exit_id] = tuple(
                [self._closure(exit_id, (axis,), (iv,))[0] for iv in ivs]
                for axis, ivs in self.brick_intervals(exit_id))
        return table

    def closure_rows(self, exit_id: int, gpos: Sequence[int]) -> list[ClosureRow]:
        """One :class:`ClosureRow` per axis for the exit brick at ``gpos``.

        Table rows are one-axis traversals.  With no empty need on any of
        them the joint traversal drops no need either and equals them axis
        by axis; otherwise the brick's rows come from one joint traversal,
        which is what N-D region algebra computes."""
        table = self._closures[exit_id] if exit_id in self._closures else self.closure_table(exit_id)
        rows = list(map(operator.getitem, table, gpos))
        for r in rows:
            if r.void:
                return self._closure(exit_id, range(len(rows)), [r.out for r in rows])
        return rows

    def required(self, exit_id: int, out_region: Region) -> dict[int, Region]:
        """Per-node regions (absolute, unclipped) needed to produce
        ``out_region`` of the exit: the Region view over :meth:`closure_rows`
        for a brick, the same traversal run jointly for any other region."""
        if self.brick_shape:
            rows = [_brick_row(axis_rows, b, iv) for axis_rows, b, iv
                    in zip(self.closure_table(exit_id), self.brick_shape, out_region)]
            if rows and not any(r is None or r.void for r in rows):
                return {nid: Region.trusted(tuple(r.required[nid] for r in rows))
                        for nid in rows[0].required}
        required, _ = self.traverse(exit_id, range(len(out_region)), out_region)
        return {nid: Region.trusted(ivs) for nid, ivs in required.items()}
