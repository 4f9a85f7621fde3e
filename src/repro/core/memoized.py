"""Merged execution with recursive memoized bricks (section 3.2.2).

Every (node, brick) in the subgraph is computed **exactly once** and cached
in a bricked memo tensor.  Dependencies are resolved top-down: a virtual
thread block working on an exit brick backtracks through the layers,
computing whatever dependent bricks are still missing -- Fig. 2(d)'s
recursive ``compConv2D``.

Concurrency is simulated with a deterministic round-robin scheduler over
``num_sms`` virtual workers.  Each brick carries the paper's three-state tag:

* ``0`` not started -- a worker CASes it to 1 and owns it (compulsory atomic),
* ``1`` in progress -- another worker observing this records a *conflict*
  atomic and either moves on to a different state-0 dependency or stalls,
* ``2`` complete -- with a release CAS (the second compulsory atomic).

A brick's computation occupies its worker for a number of scheduler turns
proportional to the modeled kernel time, so overlapping workers genuinely
collide on shared halo bricks: the conflict counts of Figs. 8/10/11 are an
emergent property of the schedule, not an input.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.bricked import bricked_nbytes, flat_bricks
from repro.core.geometry import SubgraphGeometry, patch_geometry
from repro.core.handles import BrickedHandle, DenseHandle
from repro.errors import ExecutionError
from repro.graph.regions import Region
from repro.graph.traversal import SubgraphView
from repro.gpusim.device import Device
from repro.gpusim.trace import Buffer, Task, brick_token, buffer_token
from repro.kernels import apply_node_local, pad_value_for

__all__ = ["MemoizedBrickExecutor", "HALO_NEIGHBORHOOD_BRICKS"]

_NOT_STARTED, _IN_PROGRESS, _COMPLETE = 0, 1, 2

# A brick's concurrent dependency set: itself plus its halo neighbors -- the
# ~27 bricks of a 3x3x3 spatial neighborhood (fewer in 2-D, but 27 is the
# paper's 3-D working regime and a safe upper bound).  The coalescing window
# spans one such neighborhood per concurrently resident worker.
HALO_NEIGHBORHOOD_BRICKS = 27


@dataclass
class _Frame:
    """One owned brick on a worker's recursion stack."""

    nid: int
    gpos: tuple[int, ...]
    batch: int
    index: int  # of this brick's tag in ``states[nid]``
    # Member bricks this brick reads as (node, grid position, flat index)
    # -- None until first scanned -- and those not yet seen complete.
    deps: list[tuple[int, tuple[int, ...], int]] | None = None
    pending: list[tuple[int, tuple[int, ...], int]] = field(default_factory=list)


class MemoizedBrickExecutor:
    """Executes one merged subgraph with the memoized-bricks strategy."""

    def __init__(
        self,
        subgraph: SubgraphView,
        brick_shape: tuple[int, ...],
        device: Device,
        entries: dict[int, BrickedHandle | DenseHandle],
        weight_buffers: dict[int, Buffer],
        functional: bool = True,
    ) -> None:
        self.subgraph = subgraph
        self.brick_shape = tuple(brick_shape)
        self.device = device
        self.entries = entries
        self.weight_buffers = weight_buffers
        self.functional = functional
        self.graph = subgraph.graph
        self.members = set(subgraph.node_ids)
        for eid in subgraph.entry_ids:
            if eid not in entries:
                raise ExecutionError(f"memoized executor missing entry handle for node {eid}")
        # Per-axis tables (see repro.core.geometry): dependency scan, read
        # emission and sync stamping resolve a brick from one row per axis.
        self.geom = SubgraphGeometry(subgraph, self.brick_shape, entries)

        # Memo storage: a bricked tensor per member node.
        self.memo: dict[int, BrickedHandle] = {}
        self.states: dict[int, bytearray] = {}
        for nid in subgraph.node_ids:
            node = self.graph.node(nid)
            buf = self.device.allocate(f"{node.name}/memo",
                                       bricked_nbytes(node.spec, self.brick_shape), transient=True)
            handle = BrickedHandle.create(node.spec, self.brick_shape, buf, self.functional)
            self.memo[nid] = handle
            self.states[nid] = bytearray(node.spec.batch * handle.grid.num_bricks)

        # Scheduler time quantum: set adaptively from the first task so a
        # brick computation spans a handful of rounds regardless of scale
        # (one round = one action per virtual worker).
        self._quantum: float | None = None
        self.total_conflicts = 0
        self.total_compulsory = 0
        self.total_visits = 0
        # Memoization effectiveness: completed-tag observations (a consumer
        # found its dependency already computed -- the "reuse" the strategy
        # exists for) and protocol-coalesced brick re-reads (certified L2
        # hits).  Both feed the metrics registry at the end of the run.
        self.total_reuses = 0
        self.coalesced_reads = 0
        # Consumer-coalescing brick LRU: the 3-state protocol synchronizes a
        # brick's consumers around its completion and the 108 workers run
        # truly concurrently, so re-reads within the *concurrent* working
        # window hit L2.  A strictly serialized replay of the worker streams
        # would charge them as capacity misses, so the executor tracks brick
        # recency itself, with an effective capacity of ``coalesce_factor``
        # concurrent L2 windows (see DESIGN.md, "consumer coalescing").
        # Window size: the fleet's concurrent dependency sets (one ~27-brick
        # halo neighborhood per worker), floored by a multiple of the L2's
        # own brick capacity.
        max_brick_bytes = max(h.brick_nbytes for h in self.memo.values())
        l2_bricks = device.spec.l2_bytes // max(1, max_brick_bytes)
        # Deeper merged regions interleave more layers' bricks through the
        # same concurrent window, diluting per-layer residency: the window
        # shrinks with the square root of the merge depth.
        depth = max(1, subgraph.depth)
        wave = int(HALO_NEIGHBORHOOD_BRICKS * device.spec.num_sms * min(1.0, 3.0 / depth))
        self._recent_capacity = max(8 * l2_bricks, wave, 64)
        self._recent: "OrderedDict[tuple[int, int], None]" = OrderedDict()
        self._durations: list[float] = []

    # -- public ----------------------------------------------------------------
    def run(self) -> dict[int, BrickedHandle]:
        goals = self._sink_goals()
        num_workers = self.device.spec.num_sms
        # Clustered assignment: each worker owns a contiguous chunk of exit
        # bricks (the paper's clustered thread blocks).
        chunks: list[list[tuple[int, tuple[int, ...], int, int]]] = [[] for _ in range(num_workers)]
        per = -(-len(goals) // num_workers) if goals else 1
        for i, g in enumerate(goals):
            chunks[min(i // per, num_workers - 1)].append(g)

        workers = [_WorkerState(index=i, queue=list(reversed(chunk)))
                   for i, chunk in enumerate(chunks)]
        self._workers = workers
        active = [w for w in workers if w.queue]

        while active:
            still = []
            for w in active:
                self._step(w)
                if w.queue or w.stack or w.busy:
                    still.append(w)
            active = still
        # Scheduler-level atomic conflicts and memo-table visits feed the
        # device's counters (compulsory atomics ride on the tasks).
        self.device.atomics.conflict += self.total_conflicts
        self.device.add_overhead(self.total_visits * self.device.spec.memo_visit_s / max(1, self.device.spec.num_sms))
        # Dependency-stall overhead: the simulated wall clock (rounds x
        # quantum) exceeds the ideal independent-task makespan when workers
        # stall on in-progress bricks -- the recursion serialization that
        # grows with merge depth (the paper's "Other" time: recursion,
        # synchronization, stalls).
        if self._quantum is not None and self._workers:
            # Stall turns are discounted: an SM whose resident block spins on
            # a tag runs its other resident thread blocks meanwhile (A100 SMs
            # hold many blocks), so only ~1/4 of stall time surfaces as lost
            # wall-clock.
            wall = max(w.busy_turns + w.stall_turns / 4.0 for w in self._workers) * self._quantum
            ideal = sum(self._durations) / max(1, self.device.spec.num_sms)
            if wall > ideal:
                self.device.add_overhead(wall - ideal)
        reg = self.device.metrics_registry
        reg.inc("memo_cas_retries", self.total_conflicts)
        reg.inc("memo_compulsory_cas", self.total_compulsory)
        reg.inc("memo_table_visits", self.total_visits)
        reg.inc("memo_bricks_computed", len(self._durations))
        reg.inc("memo_bricks_reused", self.total_reuses)
        reg.inc("memo_coalesced_reads", self.coalesced_reads)
        self.device.synchronize()  # reduction across bricks at subgraph end
        return {eid: self.memo[eid] for eid in self.subgraph.exit_ids}

    # -- scheduling ---------------------------------------------------------
    def _step(self, w: "_WorkerState") -> None:
        if w.busy > 0:
            w.busy -= 1
            w.busy_turns += 1
            if w.busy == 0:
                done = w.stack.pop()  # the brick this worker was computing
                self.states[done.nid][done.index] = _COMPLETE
            return

        if not w.stack:
            while w.queue:
                goal = w.queue.pop()
                state = self.states[goal[0]][goal[3]]
                self.total_visits += 1
                if state == _NOT_STARTED:
                    self._acquire(w, *goal)
                    return
                if state == _IN_PROGRESS:
                    # Our exit brick is being produced by another worker;
                    # spin on it (conflict CAS) until it completes.
                    self.total_conflicts += self._spins_per_turn()
                    w.stall_turns += 1
                    w.queue.append(goal)
                    return
                # _COMPLETE: someone already made it; take the next goal.
                self.total_reuses += 1
            return

        frame = w.stack[-1]
        if frame.deps is None:
            frame.deps = frame.pending = self._dependencies(frame.nid, frame.gpos)

        # Scan pending dependencies; prefer state-0 work (descend), remember
        # in-progress blocks for later, and only stall when nothing else is
        # runnable.  Unscanned deps are retained for the next turn.
        pending = frame.pending
        keep: list[tuple[int, tuple[int, ...], int]] = []
        for idx, dep in enumerate(pending):
            dnid, dgpos, dflat = dep
            dindex = frame.batch * self.memo[dnid].grid.num_bricks + dflat
            state = self.states[dnid][dindex]
            self.total_visits += 1
            if state == _COMPLETE:
                self.total_reuses += 1
                continue
            if state == _IN_PROGRESS:
                self.total_conflicts += self._spins_per_turn()
                keep.append(dep)
                continue
            # state 0: descend into this dependency this turn; everything not
            # yet scanned stays pending.
            frame.pending = keep + pending[idx + 1:]
            self._acquire(w, dnid, dgpos, frame.batch, dindex)
            return
        frame.pending = keep
        if keep:
            w.stall_turns += 1
            return  # stall this turn; owners are progressing elsewhere
        # All dependencies complete: compute this brick.
        self._start_compute(w, frame)

    def _spins_per_turn(self) -> int:
        """Conflict CAS issued while stalled for one scheduler turn.

        A stalled thread block re-issues its CAS at the hardware spin
        interval; one scheduler turn spans one time quantum.
        """
        if self._quantum is None:
            return 1
        return max(1, round(self._quantum / self.device.spec.spin_interval_s))

    def _acquire(self, w: "_WorkerState", nid: int, gpos: tuple[int, ...], batch: int,
                 index: int) -> None:
        self.states[nid][index] = _IN_PROGRESS
        self.total_compulsory += 2  # acquire now, release at completion
        w.stack.append(_Frame(nid, gpos, batch, index))

    def _start_compute(self, w: "_WorkerState", frame: _Frame) -> None:
        node = self.graph.node(frame.nid)
        handle = self.memo[frame.nid]
        # One row per axis, each with per-input needs and offsets: inputs may
        # have differing halos, so each patch is aligned by its own offsets.
        rows = self.geom.rows(frame.nid, frame.gpos)

        task = Task(label=f"memo/{node.name}/{frame.gpos}", node_id=frame.nid,
                    strategy="memoized", worker=w.index,
                    brick=frame.gpos, batch_index=frame.batch)
        sources = [self.memo.get(pred) or self.entries[pred] for pred in node.inputs]
        for input_index, source in enumerate(sources):
            self._read_bricks(task, source, frame.batch, input_index, rows)
        wb = self.weight_buffers.get(frame.nid)
        if wb is not None and wb.nbytes:
            task.read(wb, 0, wb.nbytes)
        own_offset = handle.brick_offset(frame.batch, frame.gpos)
        handle.emit_brick_write(task, frame.batch, frame.gpos)
        self._touch((handle.buffer.buffer_id, own_offset))
        self._stamp_sync(task, frame, own_offset)
        task.flops = self.geom.flops(
            frame.nid, node.spec.channels * math.prod([r.length for r in rows]))
        task.atomics_compulsory = 2
        task.visits = 0  # visits are tracked globally by the scheduler

        if self.functional:
            shape, needs, offsets = patch_geometry(rows, len(sources))
            fill = pad_value_for(node.op)
            patches = [source.gather(frame.batch, need, fill) for source, need in zip(sources, needs)]
            values = apply_node_local(node.op, patches, node.weights, shape, offsets)
            handle.store_brick(frame.batch, frame.gpos, values)

        self.device.submit(task)
        if self.functional:
            self.device.note_values(task, frame.nid, values)
        duration = self.device.spec.task_time(task.flops, task.calls)
        self._durations.append(duration)
        if self._quantum is None:
            self._quantum = max(self.device.spec.call_overhead_s, duration / 4.0)
        w.busy = max(1, round(duration / self._quantum))

    def _stamp_sync(self, task: Task, frame: _Frame, own_offset: int) -> None:
        """Stamp the protocol's happens-before edges on a brick task.

        Acquires: the tag-checked member dependency bricks (the consumer
        side of each dep's completion CAS) plus the whole-buffer token of
        every entry source read (kernel-launch ordering against the layout
        conversion that produced it).  Releases: this brick's own completion
        CAS and its memo buffer's whole-buffer token.  These mirror exactly
        what the simulated protocol synchronizes with -- the execution
        sanitizer's race detector trusts nothing else.
        """
        handle = self.memo[frame.nid]
        for dnid, group in itertools.groupby(frame.deps, key=lambda dep: dep[0]):
            dep = self.memo[dnid]
            for offset in dep.flat_offsets(frame.batch, [flat for _, _, flat in group]):
                task.acquire(brick_token(dep.buffer, offset))
        for pred in self.graph.node(frame.nid).inputs:
            if pred not in self.members:
                source = self.entries.get(pred)
                if source is not None:
                    task.acquire(buffer_token(source.buffer))
        task.release(brick_token(handle.buffer, own_offset))
        task.release(buffer_token(handle.buffer))

    def _touch(self, key: tuple[int, int]) -> bool:
        """Refresh a brick in the recency LRU; returns True if it was hot."""
        hot = key in self._recent
        if hot:
            self._recent.move_to_end(key)
        else:
            self._recent[key] = None
            if len(self._recent) > self._recent_capacity:
                self._recent.popitem(last=False)
        return hot

    def _read_bricks(self, task: Task, source, batch: int, input_index: int, rows) -> None:
        """Emit dep-brick reads, coalescing protocol-synchronized re-reads.

        Dense graph inputs are read directly with strided accesses (BrickDL
        forms bricks as the first layer's tasks stream the input)."""
        if not isinstance(source, BrickedHandle):
            source.emit_region_read(task, batch, Region.trusted(
                tuple(r.edges[input_index].need for r in rows)))
            return
        # The read rows stay individual (the hot flag is scheduler state, so
        # rows within one region genuinely differ).
        offsets = source.brick_offsets(batch, [r.edges[input_index].terms for r in rows])
        bid = source.buffer.buffer_id
        hot = [self._touch((bid, offset)) for offset in offsets]
        self.coalesced_reads += sum(hot)
        task.read_rows(source.buffer, offsets, source.brick_nbytes, hot)

    # -- dependencies -----------------------------------------------------------
    def _dependencies(self, nid: int, gpos: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
        """Member bricks this brick reads (entries are always available):
        per member input, the product of its rows' per-axis brick ranges,
        each with its flat (row-major) index."""
        rows = self.geom.rows(nid, gpos)
        deps = []
        for input_index, pred in enumerate(self.graph.node(nid).inputs):
            if pred in self.members:
                edges = [r.edges[input_index] for r in rows]
                deps.extend(zip(itertools.repeat(pred),
                                itertools.product(*[e.bricks for e in edges]),
                                flat_bricks([e.terms for e in edges])))
        return deps

    def _sink_goals(self) -> list[tuple[int, tuple[int, ...], int, int]]:
        """Exit bricks ``(node, grid position, batch, tag index)`` in
        spatially clustered order.

        Goals are sorted by coarse cubic cluster so each worker's contiguous
        chunk is a compact spatial block rather than a row-major stripe:
        dependent bricks are then shared mostly *within* a chunk (short L2
        reuse distances) instead of across distant workers.
        """
        goals = []
        batch = self.graph.node(self.subgraph.node_ids[0]).spec.batch
        num_workers = max(1, self.device.spec.num_sms)
        for eid in self.subgraph.exit_ids:
            handle = self.memo[eid]
            grid = handle.grid.grid_shape
            nd = len(grid)
            total = handle.grid.num_bricks
            # Cluster side so that one cluster is roughly one worker's share.
            share = max(1, total // num_workers)
            side = max(1, round(share ** (1.0 / nd)))
            def cluster_key(gpos: tuple[int, ...]) -> tuple:
                return (tuple(p // side for p in gpos), gpos)
            for gpos in sorted(handle.bricks(), key=cluster_key):
                flat = handle.grid.flat(gpos)
                for n in range(batch):
                    goals.append((eid, gpos, n, n * total + flat))
        return goals


@dataclass
class _WorkerState:
    index: int
    queue: list[tuple[int, tuple[int, ...], int, int]]
    stack: list[_Frame] = field(default_factory=list)
    busy: int = 0
    busy_turns: int = 0    # turns spent computing bricks
    stall_turns: int = 0   # turns spent spinning on in-progress bricks
