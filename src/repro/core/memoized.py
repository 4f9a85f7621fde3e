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

import functools
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.bricktask import BrickTasks, Dep, member_deps
from repro.core.handles import BrickedHandle

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
    # Member bricks this brick reads (None until first scanned) and those
    # not yet seen complete.
    deps: list[Dep] | None = None
    pending: list[Dep] = field(default_factory=list)


class MemoizedBrickExecutor(BrickTasks):
    """Executes one merged subgraph with the memoized-bricks strategy."""

    strategy = "memoized"

    def __post_init__(self) -> None:
        super().__post_init__()
        # Memo storage: a bricked tensor, and a tag per (sample, brick), per
        # member node.
        self.memo = self.stored
        self.states = {nid: bytearray(self.batch * handle.grid.num_bricks)
                       for nid, handle in self.memo.items()}

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
        self._recent: "OrderedDict[tuple[int, int], None]" = OrderedDict()
        self._durations: list[float] = []

    @functools.cached_property
    def _recent_capacity(self) -> int:
        """Bricks the consumer-coalescing LRU holds.

        The 3-state protocol synchronizes a brick's consumers around its
        completion and the 108 workers run truly concurrently, so re-reads
        within the *concurrent* working window hit L2.  A strictly serialized
        replay of the worker streams would charge them as capacity misses, so
        the executor tracks brick recency itself, with an effective capacity
        of ``coalesce_factor`` concurrent L2 windows (see DESIGN.md, "consumer
        coalescing").  Window size: the fleet's concurrent dependency sets
        (one ~27-brick halo neighborhood per worker), floored by a multiple of
        the L2's own brick capacity."""
        max_brick_bytes = max(h.brick_nbytes for h in self.memo.values())
        l2_bricks = self.device.spec.l2_bytes // max(1, max_brick_bytes)
        # Deeper merged regions interleave more layers' bricks through the
        # same concurrent window, diluting per-layer residency: the window
        # shrinks with the square root of the merge depth.
        depth = max(1, self.subgraph.depth)
        wave = int(HALO_NEIGHBORHOOD_BRICKS * self.device.spec.num_sms * min(1.0, 3.0 / depth))
        return max(8 * l2_bricks, wave, 64)

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
            frame.deps = frame.pending = member_deps(self.geom, frame.nid, frame.gpos)

        # Scan pending dependencies; prefer state-0 work (descend), remember
        # in-progress blocks for later, and only stall when nothing else is
        # runnable.  Unscanned deps are retained for the next turn.
        pending = frame.pending
        keep: list[Dep] = []
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
        # The tag check is the synchronization: the task acquires exactly the
        # dependency bricks this frame saw complete.
        task = self.emit(frame.nid, frame.gpos, frame.batch,
                         acquired=frame.deps, recent=self._touch, worker=w.index)
        duration = self.device.spec.task_time(task.flops, task.calls)
        self._durations.append(duration)
        if self._quantum is None:
            self._quantum = max(self.device.spec.call_overhead_s, duration / 4.0)
        w.busy = max(1, round(duration / self._quantum))

    def _touch(self, key: tuple[int, int]) -> bool:
        """Refresh a brick (buffer id, byte offset) in the recency LRU;
        returns True if it was hot.  A brick's own write is its first touch,
        so every hot answer is a protocol-coalesced re-read."""
        hot = key in self._recent
        if hot:
            self._recent.move_to_end(key)
            self.coalesced_reads += 1
        else:
            self._recent[key] = None
            if len(self._recent) > self._recent_capacity:
                self._recent.popitem(last=False)
        return hot

    def _sink_goals(self) -> list[tuple[int, tuple[int, ...], int, int]]:
        """Exit bricks ``(node, grid position, batch, tag index)`` in
        spatially clustered order.

        Goals are sorted by coarse cubic cluster so each worker's contiguous
        chunk is a compact spatial block rather than a row-major stripe:
        dependent bricks are then shared mostly *within* a chunk (short L2
        reuse distances) instead of across distant workers.
        """
        goals = []
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
                for n in range(self.batch):
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
