"""Brick tasks: what a (node, brick, sample) computation reads, writes,
synchronizes with and computes -- stated once for every merged schedule.

Section 3.2 defines its strategies as the *same* brick computation under
different rules for when a brick runs and what orders it after its halo
producers: recompute privately (padded), a 0->1->2 CAS tag (memoized), or a
wave barrier (the section-6 wavefront).  :class:`BrickTasks` is that
computation; the executors in :mod:`repro.core.padded`,
:mod:`repro.core.memoized` and :mod:`repro.core.wavefront` extend it with a
schedule: a ``run()`` that decides *when* :meth:`BrickTasks.emit` (padded:
:meth:`BrickTasks.emit_fused`) runs and passes what its ordering rule already
knows -- the member bricks acquired through tags, which reads it certifies
L2-resident, the worker lane.

The emitters count; they compute nothing.  A brick's value does not depend on
its schedule, so values have one producer, ``values()``: every brick once with
no device, task, tag or barrier (padded: :meth:`BrickTasks.closure_values` per
exit brick).  An executor built without a ``device`` is that producer: its
handles carry values and get no buffers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from repro.core.bricked import bricked_nbytes, extract_patch, flat_bricks
from repro.core.geometry import EdgeRow, SubgraphGeometry, patch_geometry
from repro.core.handles import BrickedHandle, DenseHandle
from repro.errors import ExecutionError
from repro.graph.ir import Graph, Node
from repro.graph.ops import ConvTranspose, FusedOp
from repro.graph.regions import Interval, Region
from repro.graph.traversal import SubgraphView
from repro.gpusim.device import Device
from repro.gpusim.trace import Buffer, Task, brick_token, buffer_token
from repro.kernels import apply_node_local, pad_value_for

__all__ = ["BrickTasks", "kernel_step", "member_deps", "require_values"]

# Per strategy: task label prefix, suffix of the bricked buffers it stores
# into, and which nodes those are (padded keeps intermediates in scratch).
_NAMES = {"padded": ("padded", "bricked", "exit_ids"), "memoized": ("memo", "memo", "node_ids"),
          "wavefront": ("wave", "wave", "node_ids")}

Dep = tuple[int, tuple[int, ...], int]  # (member node, grid position, flat index)
Source = BrickedHandle | DenseHandle
# A values pass's hook: (node, value, subgraph, brick, batch, label) per array
# computed, naming the task that counts it (a fallback group: no brick/batch).
Screen = Callable[[int, np.ndarray, int | None, tuple[int, ...] | None, int | None, str], None]


def member_deps(geom: SubgraphGeometry, nid: int, gpos: Sequence[int]) -> list[Dep]:
    """Member bricks the brick of ``nid`` at ``gpos`` reads (entries are
    always available): per member input, the product of its rows' per-axis
    brick ranges.  The memoized scheduler resolves them through tags, the
    wavefront runs a brick one wave after them, trace replay checks a run
    against them."""
    rows = geom.rows(nid, gpos)
    deps: list[Dep] = []
    for input_index, pred in enumerate(geom.graph.node(nid).inputs):
        if pred in geom.members:
            edges = [r.edges[input_index] for r in rows]
            deps.extend(zip(itertools.repeat(pred),
                            itertools.product(*[e.bricks for e in edges]),
                            flat_bricks([e.terms for e in edges])))
    return deps


def require_values(graph: Graph, node_ids: Iterable[int]) -> None:
    """Refuse members :func:`kernel_step` cannot evaluate: a transposed conv
    with kernel < stride has output positions no input feeds (bias in the
    holes), and placing them takes absolute coordinates a brick-local kernel
    call does not get."""
    for node in map(graph.node, node_ids):
        op = node.op.primary if isinstance(node.op, FusedOp) else node.op
        if isinstance(op, ConvTranspose) and any(k < s for k, s in zip(op.kernel, op.stride)):
            raise ExecutionError(
                f"cannot compute values of {node.name!r}: transposed conv with kernel "
                f"{op.kernel} < stride {op.stride}; profile mode, geometry and effects "
                f"handle this graph, the values pass does not")


def kernel_step(node: Node, shape: tuple[int, ...], needs: Sequence[Sequence[Interval]],
                offsets: Sequence[Sequence[int]],
                fetch: Callable[[int, Sequence[Interval], float], np.ndarray]) -> np.ndarray:
    """The kernel step of one brick: ``fetch(pred, need, fill)`` one patch per
    input over its need intervals (neutral fill beyond the feature map), then
    the op's local kernel for an output of ``shape``.  Inputs may carry
    differing halos, so each patch is aligned by its own ``offsets``."""
    fill = pad_value_for(node.op)
    patches = [fetch(pred, need, fill) for pred, need in zip(node.inputs, needs)]
    return apply_node_local(node.op, patches, node.weights, shape, offsets)


@dataclass
class BrickTasks:
    """The brick tasks of one merged subgraph; a subclass names the
    ``strategy`` and adds the schedule.

    :attr:`stored` maps the nodes whose output lives in a bricked tensor of
    this subgraph to their handles.  With a ``device`` they get buffers and
    :meth:`run` counts; without one they carry values and only :meth:`values`
    can run -- a subgraph the kernel step cannot evaluate is refused then, at
    construction.
    """

    subgraph: SubgraphView
    brick_shape: tuple[int, ...]
    device: Device | None
    entries: Mapping[int, Source]
    weight_buffers: Mapping[int, Buffer]
    strategy: ClassVar[str]

    def __post_init__(self) -> None:
        self.graph = self.subgraph.graph
        self.brick_shape = tuple(self.brick_shape)
        self.prefix, suffix, stored = _NAMES[self.strategy]
        for eid in self.subgraph.entry_ids:
            if eid not in self.entries:
                raise ExecutionError(
                    f"{self.strategy} executor missing entry handle for node {eid}")
        computes = self.device is None
        if computes:
            require_values(self.graph, self.subgraph.node_ids)
        # Per-axis tables (see repro.core.geometry): every read, dependency,
        # sync edge and patch of a brick resolves from one row per axis.
        self.geom = SubgraphGeometry(self.subgraph, self.brick_shape, self.entries)
        self.batch = self.graph.node(self.subgraph.node_ids[0]).spec.batch
        self.stored: dict[int, BrickedHandle] = {}
        for node in map(self.graph.node, getattr(self.subgraph, stored)):
            buf = None if computes else self.device.allocate(
                f"{node.name}/{suffix}", bricked_nbytes(node.spec, self.brick_shape), transient=True)
            self.stored[node.node_id] = BrickedHandle.create(
                node.spec, self.brick_shape, buf, computes)
        # Padded redundancy accounting: elements computed on enlarged patches
        # (vs the exact output volume) and halo bytes gathered from entry
        # bricks -- the paper's delta in measured form.
        self.compute_elems = 0
        self.entry_read_bytes = 0

    # -- shared pieces -----------------------------------------------------------
    def _label(self, nid: int, gpos: tuple[int, ...]) -> str:
        return f"{self.prefix}/{self.graph.node(nid).name}/{gpos}"

    def _task(self, node: Node, gpos: tuple[int, ...], batch: int, worker: int | None) -> Task:
        return Task(label=self._label(node.node_id, gpos), node_id=node.node_id,
                    strategy=self.strategy, worker=worker, brick=gpos, batch_index=batch)

    def _read(self, task: Task, source: Source, batch: int, edges: Sequence[EdgeRow],
              recent: Callable[[tuple[int, int]], bool] | None = None) -> None:
        """Read one producer through its edge rows: every overlapped brick in
        full, or -- a dense graph input, which brick tasks stream directly --
        one strided region.  A brick the schedule's ``recent`` filter reports
        hot is a certified L2 hit; that is scheduler state, so those rows
        stay individual, while unfiltered reads are uniform and go out as one
        batch."""
        if not isinstance(source, BrickedHandle):
            source.emit_region_read(task, batch, Region.trusted(tuple(e.need for e in edges)))
            return
        offsets = source.brick_offsets(batch, [e.terms for e in edges])
        if recent is None:
            task.read_batch(source.buffer, offsets, source.brick_nbytes)
        else:
            bid = source.buffer.buffer_id
            task.read_rows(source.buffer, offsets, source.brick_nbytes,
                           [recent((bid, offset)) for offset in offsets])

    def _weights(self, task: Task, nid: int) -> None:
        wb = self.weight_buffers.get(nid)
        if wb is not None and wb.nbytes:
            task.read(wb, 0, wb.nbytes)

    def sync(self, task: Task, handle: BrickedHandle, own_offset: int,
             entry_sources: Iterable[Source], acquired: Sequence[Dep] | None = None) -> None:
        """Stamp a brick task's happens-before edges.

        Acquires: the member dependency bricks the schedule checked tags of
        (the consumer side of each one's completion CAS; a barrier schedule
        passes none, so a brick placed too early surfaces as a race) plus the
        whole-buffer token of every entry source read (kernel-launch ordering
        against the layout conversion that produced it).  Releases: this
        brick's own completion and its buffer's whole-buffer token.  These
        mirror exactly what the simulated protocol synchronizes with -- the
        execution sanitizer's race detector trusts nothing else.
        """
        for dnid, group in itertools.groupby(acquired or (), key=lambda dep: dep[0]):
            dep = self.stored[dnid]
            for offset in dep.flat_offsets(task.batch_index, [flat for _, _, flat in group]):
                task.acquire(brick_token(dep.buffer, offset))
        for source in entry_sources:
            task.acquire(buffer_token(source.buffer))
        task.release(brick_token(handle.buffer, own_offset))
        task.release(buffer_token(handle.buffer))

    # -- values -------------------------------------------------------------------
    def closure_values(self, exit_id: int, gpos: tuple[int, ...], batch: int) -> dict[int, np.ndarray]:
        """Every member's values on its private patch of the closure of one
        exit brick (what :meth:`emit_fused`'s task computes), the exit's
        stored into its brick.  Patches cover their node's required interval
        clipped to the feature map, so each starts at its ``origin``."""
        rows = self.geom.closure_rows(exit_id, gpos)
        patches: dict[int, np.ndarray] = {}
        origin: dict[int, list[int]] = {}
        for eid in rows[0].entries:
            edges = [r.entries[eid] for r in rows]
            origin[eid] = [max(e.need.lo, 0) for e in edges]
            patches[eid] = self.entries[eid].gather(batch, [
                Interval(lo, lo + e.length) for lo, e in zip(origin[eid], edges)])
        values = {}
        for nid in rows[0].members:
            axis = [r.members[nid] for r in rows]
            if not math.prod([a.length for a in axis]):
                continue
            node = self.graph.node(nid)
            patches[nid] = values[nid] = kernel_step(
                node, *patch_geometry(axis, len(node.inputs)),
                lambda pred, need, fill: extract_patch(patches[pred], origin[pred], need, fill))
            origin[nid] = [a.out.lo for a in axis]
        # Exits other than `exit_id` are materialized by their own brick loops.
        if exit_id in values:
            self.stored[exit_id].store_brick(batch, gpos, values[exit_id])
        return values

    def values(self, screen: Screen | None = None,
               subgraph_index: int | None = None) -> dict[int, BrickedHandle]:
        """The exits' values with no schedule: no task, no tag, no barrier.
        Every member brick once, members in subgraph (topological) order, so
        each brick's producers are stored before it is computed; ``screen``
        sees each brick with the identity of the task that counts it."""
        for nid, handle in self.stored.items():
            node = self.graph.node(nid)
            sources = {pred: self.stored.get(pred) or self.entries[pred] for pred in node.inputs}
            for gpos in handle.bricks():
                shape, needs, offsets = patch_geometry(self.geom.rows(nid, gpos), len(node.inputs))
                for n in range(self.batch):
                    value = kernel_step(
                        node, shape, needs, offsets,
                        lambda pred, need, fill, n=n, s=sources: s[pred].gather(n, need, fill))
                    handle.store_brick(n, gpos, value)
                    if screen is not None:
                        screen(nid, value, subgraph_index, gpos, n, self._label(nid, gpos))
        return {eid: self.stored[eid] for eid in self.subgraph.exit_ids}

    # -- one brick of one node ---------------------------------------------------
    def emit(self, nid: int, gpos: tuple[int, ...], batch: int,
             acquired: Sequence[Dep] | None = None,
             recent: Callable[[tuple[int, int]], bool] | None = None,
             worker: int | None = None) -> Task:
        """Submit the task computing brick ``gpos`` of ``nid`` for one sample.

        ``acquired``: the member bricks a tag schedule synchronized with (None
        under a barrier: no tags, no compulsory CAS pair); ``recent``: its
        recency filter (see :meth:`_read`; the own brick is refreshed in it
        too); ``worker``: the lane it chose.
        """
        node = self.graph.node(nid)
        handle = self.stored[nid]
        rows = self.geom.rows(nid, gpos)
        task = self._task(node, gpos, batch, worker)
        sources = {pred: self.stored.get(pred) or self.entries[pred] for pred in node.inputs}
        for input_index, pred in enumerate(node.inputs):
            self._read(task, sources[pred], batch, [r.edges[input_index] for r in rows], recent)
        self._weights(task, nid)
        own_offset = handle.brick_offset(batch, gpos)
        handle.emit_brick_write(task, batch, gpos)
        if recent is not None:
            recent((handle.buffer.buffer_id, own_offset))
        self.sync(task, handle, own_offset,
                  [sources[pred] for pred in node.inputs if pred not in self.stored], acquired)
        task.flops = self.geom.flops(nid, node.spec.channels * math.prod([r.length for r in rows]))
        if acquired is not None:
            task.atomics_compulsory = 2  # the tag's acquire CAS and its release
        self.device.submit(task)
        return task

    # -- the padded closure of one exit brick --------------------------------------
    def emit_fused(self, exit_id: int, gpos: tuple[int, ...], batch: int,
                   scratch: Buffer, slots: Mapping[int, int], worker: int) -> Task:
        """Submit the one task computing the whole closure of an exit brick:
        halo copies of the entry bricks, then every member on its enlarged
        patch through ``scratch`` (one slot per member), the exit into its
        brick."""
        graph = self.graph
        handle = self.stored[exit_id]
        rows = self.geom.closure_rows(exit_id, gpos)
        task = self._task(graph.node(exit_id), gpos, batch, worker)
        for eid in rows[0].entries:
            edges = [r.entries[eid] for r in rows]
            source = self.entries[eid]
            self._read(task, source, batch, edges)
            self.entry_read_bytes += (source.spec.channels * math.prod([e.length for e in edges])
                                      * source.spec.itemsize)

        calls = 0
        for nid in rows[0].members:
            axis = [r.members[nid] for r in rows]
            size = math.prod([a.length for a in axis])
            if size == 0:
                continue
            node = graph.node(nid)
            spec = node.spec
            for input_index, pred in enumerate(node.inputs):
                # Intermediate patches are thread-block private (registers /
                # shared memory / L1): they never travel below the SM, but
                # their volume shows up in the L1 (global) transaction count
                # -- the paper's padded-brick overfetch.
                if pred in slots:
                    pred_spec = graph.node(pred).spec
                    nbytes = (pred_spec.channels * pred_spec.itemsize
                              * math.prod([a.edges[input_index].length for a in axis]))
                    task.read(scratch, slots[pred], min(nbytes, scratch.nbytes - slots[pred]),
                              on_chip=True)
            self._weights(task, nid)
            if nid == exit_id:
                handle.emit_brick_write(task, batch, gpos)
            else:
                task.write(scratch, slots[nid], min(spec.channels * size * spec.itemsize,
                                                    scratch.nbytes - slots[nid]), on_chip=True)
            task.flops += self.geom.flops(nid, spec.channels * size)
            self.compute_elems += spec.channels * size
            calls += 1

        task.calls = max(calls, 1)
        self.sync(task, handle, handle.brick_offset(batch, gpos),
                  [self.entries[eid] for eid in rows[0].entries])
        self.device.submit(task)
        return task
