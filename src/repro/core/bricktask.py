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

The emitters count; they compute nothing.  A brick's value depends on
neither its schedule nor its blocking, so values have one producer, the
engine's layer-by-layer sweep (``BrickDLEngine.values``): every member once,
as one whole-tensor kernel call, with no device, task, tag or barrier, under
every strategy -- padded's redundant recompute is a cost of its schedule,
which the counted run models, not a different value.  What a strategy does
name there is how ``screen`` sees a member's values: :func:`screen_bricks`
hands it each (brick, sample) slice labelled as the task that counts it.
The emitters count one task (one vendor-kernel call) per brick, which is
where the paper's per-brick cuDNN invocations live; the per-brick walk
itself is the test suite's oracle.

An emitter builds rows, not calls: what every task of a node shares (its
weight row, its input sources, the whole-buffer tokens of its entries) is
looked up once per subgraph, a brick's geometry rows once per task, and its
tokens and on-chip rows are plain tuples.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from repro.core.bricked import bricked_nbytes, flat_bricks
from repro.core.geometry import AxisRow, EdgeRow, SubgraphGeometry
from repro.core.handles import BrickedHandle, DenseHandle
from repro.errors import ExecutionError
from repro.graph.ir import Node
from repro.graph.regions import Region
from repro.graph.traversal import SubgraphView
from repro.gpusim.device import Device
from repro.gpusim.trace import Access, Buffer, Task, buffer_token

__all__ = ["BrickTasks", "Recency", "brick_box", "member_deps", "screen_bricks"]

# Per strategy: task label prefix, suffix of the bricked buffers it stores
# into, and which nodes those are (padded keeps intermediates in scratch).
_NAMES = {"padded": ("padded", "bricked", "exit_ids"), "memoized": ("memo", "memo", "node_ids"),
          "wavefront": ("wave", "wave", "node_ids")}

Dep = tuple[int, tuple[int, ...], int]  # (member node, grid position, flat index)
Source = BrickedHandle | DenseHandle
# A values pass's hook: (node, value, subgraph, brick, batch, label) per array
# computed, naming the task that counts it (a fallback group: no brick/batch;
# padded: the member brick, which the exit tasks whose closures cover it
# recompute).
Screen = Callable[[int, np.ndarray, int | None, tuple[int, ...] | None, int | None, str], None]

_row = tuple.__new__
_BRICKS, _TERMS = operator.attrgetter("bricks"), operator.attrgetter("terms")


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
            deps.extend(zip(itertools.repeat(pred), itertools.product(*map(_BRICKS, edges)),
                            flat_bricks(list(map(_TERMS, edges)))))
    return deps


def brick_box(rows: Sequence[AxisRow]) -> tuple[slice, ...]:
    """The ``(C, *S)`` slices of one sample's array the brick ``rows``
    describe cover (clipped to the feature map)."""
    return (slice(None), *(slice(r.out.lo, r.out.hi) for r in rows))


def screen_bricks(geom: SubgraphGeometry, strategy: str, screen: Screen, subgraph_index: int,
                  nid: int, value: np.ndarray) -> None:
    """``screen`` member ``nid``'s whole-tensor ``value`` as the ``strategy``
    tasks count it: each (brick, sample) slice in brick order, labelled as
    that member brick's task (under padded: the member brick the exit tasks
    whose closures cover it recompute)."""
    prefix, name = _NAMES[strategy][0], geom.graph.node(nid).name
    for gpos in itertools.product(*map(range, geom.grid(nid).grid_shape)):
        box, label = brick_box(geom.rows(nid, gpos)), f"{prefix}/{name}/{gpos}"
        for n in range(len(value)):
            screen(nid, value[n][box], subgraph_index, gpos, n, label)


class Recency(OrderedDict):
    """A schedule's recency filter: an LRU of the last ``capacity`` bricks
    touched, keyed ``buffer_id << 40 | byte offset``.  A read of a brick it
    holds is a certified L2 hit; ``hits`` counts them."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity
        self.hits = 0

    def touch(self, buffer_key: int, offsets: Iterable[int]) -> list[bool]:
        """Refresh the bricks at ``offsets`` of one buffer (``buffer_id <<
        40``), in order; whether each was held."""
        hot = []
        for offset in offsets:
            key = buffer_key | offset
            if key in self:
                self.move_to_end(key)
                self.hits += 1
                hot.append(True)
            else:
                self[key] = None
                if len(self) > self.capacity:
                    self.popitem(last=False)
                hot.append(False)
        return hot


@dataclass
class BrickTasks:
    """The brick tasks of one merged subgraph; a subclass names the
    ``strategy`` and adds the schedule.

    :attr:`stored` maps the nodes whose output lives in a bricked tensor of
    this subgraph to their handles, each bound to a ``device`` buffer;
    ``entries`` are the handles the entry activations are read through.
    """

    subgraph: SubgraphView
    brick_shape: tuple[int, ...]
    device: Device
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
        # Per-axis tables (see repro.core.geometry): every read, dependency,
        # sync edge and patch of a brick resolves from one row per axis.
        self.geom = SubgraphGeometry(self.subgraph, self.brick_shape, self.entries)
        self.batch = self.graph.node(self.subgraph.node_ids[0]).spec.batch
        self.stored: dict[int, BrickedHandle] = {}
        for node in map(self.graph.node, getattr(self.subgraph, stored)):
            buf = self.device.allocate(
                f"{node.name}/{suffix}", bricked_nbytes(node.spec, self.brick_shape), transient=True)
            self.stored[node.node_id] = BrickedHandle.create(node.spec, self.brick_shape, buf)
        # Padded redundancy accounting: elements computed on enlarged patches
        # (vs the exact output volume) and halo bytes gathered from entry
        # bricks -- the paper's delta in measured form.
        self.compute_elems = 0
        self.entry_read_bytes = 0

    # -- shared pieces -----------------------------------------------------------
    def _label(self, name: str, gpos: tuple[int, ...]) -> str:
        return f"{self.prefix}/{name}/{gpos}"

    @functools.cached_property
    def _members(self) -> dict[int, tuple[Node, list[Source | None], Access | None, list[tuple], int]]:
        """Per member, what all its brick tasks share: ``(node, the source of
        each input -- None for a member kept in scratch --, its weight row --
        checked once, shared by every task -- or None, the whole-buffer
        tokens of the entries it reads, its bytes per output element)``."""
        members = {}
        for nid in self.subgraph.node_ids:
            node = self.graph.node(nid)
            sources = [self.stored.get(pred) or self.entries.get(pred) for pred in node.inputs]
            wb = self.weight_buffers.get(nid)
            weight = Access(wb, 0, wb.nbytes) if wb is not None and wb.nbytes else None
            members[nid] = (node, sources, weight,
                            [buffer_token(self.entries[pred].buffer)
                             for pred in node.inputs if pred in self.entries],
                            node.spec.channels * node.spec.itemsize)
        return members

    def _read(self, task: Task, source: Source, batch: int, edges: Sequence[EdgeRow],
              recent: Recency | None = None) -> None:
        """Read one producer through its edge rows: every overlapped brick in
        full, or -- a dense graph input, which brick tasks stream directly --
        one strided region.  A brick the schedule's ``recent`` filter holds
        is a certified L2 hit; that is scheduler state, so those rows carry
        their own flags, while unfiltered reads are uniform and go out as one
        batch."""
        if not isinstance(source, BrickedHandle):
            source.emit_region_read(task, batch, Region.trusted(tuple(e.need for e in edges)))
            return
        offsets = source.brick_offsets(batch, list(map(_TERMS, edges)))
        if recent is None:
            task.read_batch(source.buffer, offsets, source.brick_nbytes)
        else:
            task.read_rows(source.buffer, offsets, source.brick_nbytes,
                           recent.touch(source.buffer.buffer_id << 40, offsets))

    def sync(self, task: Task, handle: BrickedHandle, own_offset: int,
             entry_tokens: list[tuple], acquired: Sequence[Dep] | None = None) -> None:
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
        if acquired:
            stored, n = self.stored, task.batch_index
            task.acquires = [("brick", stored[dnid].buffer.buffer_id,
                              (n * stored[dnid].grid.num_bricks + flat) * stored[dnid].brick_nbytes)
                             for dnid, _, flat in acquired] + entry_tokens
        else:
            task.acquires = list(entry_tokens)  # a copy: the node's tokens are shared
        bid = handle.buffer.buffer_id
        task.releases = [("brick", bid, own_offset), ("buf", bid)]

    # -- one brick of one node ---------------------------------------------------
    def emit(self, nid: int, gpos: tuple[int, ...], batch: int,
             acquired: Sequence[Dep] | None = None, recent: Recency | None = None,
             worker: int | None = None) -> Task:
        """Submit the task computing brick ``gpos`` of ``nid`` for one sample.

        ``acquired``: the member bricks a tag schedule synchronized with (None
        under a barrier: no tags, no compulsory CAS pair); ``recent``: its
        recency filter (see :meth:`_read`; the own brick is refreshed in it
        too); ``worker``: the lane it chose.
        """
        node, sources, weight, entry_tokens, _ = self._members[nid]
        handle = self.stored[nid]
        rows = self.geom.rows(nid, gpos)
        task = Task(self._label(node.name, gpos), node_id=nid, strategy=self.strategy,
                    worker=worker, brick=gpos, batch_index=batch)
        for input_index, source in enumerate(sources):
            self._read(task, source, batch, [r.edges[input_index] for r in rows], recent)
        if weight is not None:
            task.accesses.append(weight)
        handle.emit_brick_write(task, batch, gpos)
        # The own brick's offset and volume; a counting executor's stored
        # handles carry no brick map, so flat indices are physical.
        own_offset = batch * handle.grid.num_bricks
        volume = 1
        for r, g, stride in zip(rows, gpos, handle.grid.strides):
            own_offset += g * stride
            volume *= r.length
        own_offset *= handle.brick_nbytes
        if recent is not None:
            recent.touch(handle.buffer.buffer_id << 40, (own_offset,))
        self.sync(task, handle, own_offset, entry_tokens, acquired)
        task.flops = self.geom.flops(nid, node.spec.channels * volume)
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
        members = self._members
        handle = self.stored[exit_id]
        rows = self.geom.closure_rows(exit_id, gpos)
        task = Task(self._label(members[exit_id][0].name, gpos), node_id=exit_id,
                    strategy=self.strategy, worker=worker, brick=gpos, batch_index=batch)
        accesses = task.accesses
        first = rows[0]
        for eid in first.entries:
            edges = [r.entries[eid] for r in rows]
            source = self.entries[eid]
            self._read(task, source, batch, edges)
            size = source.spec.channels * source.spec.itemsize
            for e in edges:
                size *= e.length
            self.entry_read_bytes += size

        # Intermediate patches are thread-block private (registers / shared
        # memory / L1): they never travel below the SM, but their volume
        # shows up in the L1 (global) transaction count -- the paper's
        # padded-brick overfetch.  Their rows are clamped to the slot's
        # scratch, so they are in range by construction.
        calls = 0
        for nid in first.members:
            axis = [r.members[nid] for r in rows]
            size = 1
            for a in axis:
                size *= a.length
            if size == 0:
                continue
            node, _, weight, _, elem_bytes = members[nid]
            for input_index, pred in enumerate(node.inputs):
                if pred in slots:
                    nbytes = members[pred][4]
                    for a in axis:
                        nbytes *= a.edges[input_index].length
                    slot = slots[pred]
                    nbytes = min(nbytes, scratch.nbytes - slot)
                    if nbytes > 0:
                        accesses.append(_row(Access, (scratch, slot, nbytes, False, (), False, True, False)))
            if weight is not None:
                accesses.append(weight)
            elems = node.spec.channels * size
            if nid == exit_id:
                handle.emit_brick_write(task, batch, gpos)
            else:
                slot = slots[nid]
                nbytes = min(size * elem_bytes, scratch.nbytes - slot)
                if nbytes > 0:
                    accesses.append(_row(Access, (scratch, slot, nbytes, True, (), False, True, False)))
            task.flops += self.geom.flops(nid, elems)
            self.compute_elems += elems
            calls += 1

        task.calls = max(calls, 1)
        self.sync(task, handle, handle.brick_offset(batch, gpos),
                  [buffer_token(self.entries[eid].buffer) for eid in first.entries])
        self.device.submit(task)
        return task
