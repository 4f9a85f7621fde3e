"""Merged execution with recursive memoized bricks (section 3.2.2).

Every (node, brick) in the subgraph is computed **exactly once** and cached
in a bricked memo tensor.  Dependencies are resolved top-down: a virtual
thread block working on an exit brick backtracks through the layers,
computing whatever dependent bricks are still missing -- Fig. 2(d)'s
recursive ``compConv2D``.

Concurrency is simulated with a deterministic round-robin schedule over
``num_sms`` virtual workers: in every round each worker takes one turn, in
worker order.  Each brick carries the paper's three-state tag:

* ``0`` not started -- a worker CASes it to 1 and owns it (compulsory atomic),
* ``1`` in progress -- another worker observing this records a *conflict*
  atomic and either moves on to a different state-0 dependency or stalls,
* ``2`` complete -- with a release CAS (the second compulsory atomic).

A brick's computation occupies its worker for a number of turns proportional
to the modeled kernel time, so overlapping workers genuinely collide on
shared halo bricks: the conflict counts of Figs. 8/10/11 are an emergent
property of the schedule, not an input.

``run()`` schedules first, on integers only, and then emits the brick tasks
in the resulting issue order.  The schedule advances by events keyed ``round
* num_sms + worker``: a computing worker takes no turn until its computation
completes at its exact turn, with its busy turns counted at once, and rounds
in which every worker is computing are never visited.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field

from repro.core.bricktask import BrickTasks, Dep, Recency, member_deps
from repro.core.handles import BrickedHandle

__all__ = ["MemoizedBrickExecutor", "HALO_NEIGHBORHOOD_BRICKS"]

_NOT_STARTED, _IN_PROGRESS, _COMPLETE = 0, 1, 2

# A brick's concurrent dependency set: itself plus its halo neighbors -- the
# ~27 bricks of a 3x3x3 spatial neighborhood (fewer in 2-D, but 27 is the
# paper's 3-D working regime and a safe upper bound).  The coalescing window
# spans one such neighborhood per concurrently resident worker.
HALO_NEIGHBORHOOD_BRICKS = 27

# One issued brick task: (node, grid position, sample, worker, acquired deps).
Issue = tuple[int, tuple[int, ...], int, int, list[Dep]]


class MemoizedBrickExecutor(BrickTasks):
    """Executes one merged subgraph with the memoized-bricks strategy."""

    strategy = "memoized"

    def __post_init__(self) -> None:
        super().__post_init__()
        # Memo storage: a bricked tensor per member node, and one tag byte per
        # (node, sample, brick): a brick's tag key is ``bases[sample][node]``
        # plus its flat index.
        self.memo = self.stored
        self.bases: list[dict[int, int]] = [{} for _ in range(self.batch)]
        key = 0
        for nid, handle in self.memo.items():
            for n in range(self.batch):
                self.bases[n][nid] = key
                key += handle.grid.num_bricks
        self.tags = bytearray(key)

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
        self._durations: list[float] = []
        self._workers: list[_WorkerState] = []

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
        # The tag check is the synchronization: each task acquires exactly
        # the dependency bricks its frame saw complete.
        recent = Recency(self._recent_capacity)
        for nid, gpos, sample, worker, deps in self.schedule():
            self.emit(nid, gpos, sample, acquired=deps, recent=recent, worker=worker)
        self.coalesced_reads = recent.hits
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
    def schedule(self) -> list[Issue]:
        """Run the tag protocol to its issue order.  A worker's turn: with no
        brick, take the next exit brick of its chunk; else scan the pending
        dependencies of its top brick, descending into a state-0 one, or
        stalling on in-progress ones, or -- all complete -- computing it."""
        spec = self.device.spec
        num_workers = spec.num_sms
        goals = self._sink_goals()
        # Clustered assignment: each worker owns a contiguous chunk of exit
        # bricks (the paper's clustered thread blocks).
        chunks: list[list[tuple[int, tuple[int, ...], int, int]]] = [[] for _ in range(num_workers)]
        per = -(-len(goals) // num_workers) if goals else 1
        for i, g in enumerate(goals):
            chunks[min(i // per, num_workers - 1)].append(g)
        workers = self._workers = [_WorkerState(i, chunk[::-1]) for i, chunk in enumerate(chunks)]

        geom, tags, bases = self.geom, self.tags, self.bases
        # Per member and axis, the length of every brick's output interval:
        # a brick's volume, hence its task's flops and duration.
        lengths = {nid: [[r.length for r in axis] for axis in geom.table(nid)] for nid in self.memo}
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        events = [w.index for w in workers if w.queue]  # round 0, sorted: a heap
        order: list[Issue] = []
        durations = self._durations
        timing: dict[tuple[int, int], tuple[float, int]] = {}  # (node, volume) -> (duration, busy)
        visits = conflicts = reuses = compulsory = 0
        spins = 1  # conflict CAS per stalled turn; fixed with the quantum

        now = heappop(events) if events else -1
        while now >= 0:
            w = workers[now % num_workers]
            stack = w.stack
            after = now + num_workers  # this worker's next turn; -1: it is done
            if w.computing:
                # Completion: visible to every turn after this one.
                w.computing = False
                tags[stack.pop()[3]] = _COMPLETE
            elif not stack:
                queue = w.queue
                while queue:
                    goal = queue[-1]
                    state = tags[goal[3]]
                    visits += 1
                    if state == _NOT_STARTED:
                        queue.pop()
                        tags[goal[3]] = _IN_PROGRESS
                        compulsory += 2  # acquire now, release at completion
                        stack.append([*goal, None, None])
                        break
                    if state == _IN_PROGRESS:
                        # Our exit brick is being produced by another worker;
                        # spin on it (conflict CAS) until it completes.
                        conflicts += spins
                        w.stall_turns += 1
                        break
                    # _COMPLETE: someone already made it; take the next goal.
                    queue.pop()
                    reuses += 1
                else:
                    after = -1  # no goals left
            else:
                # A frame: [node, grid position, sample, tag key, deps, pending].
                frame = stack[-1]
                nid, gpos, sample, _, deps, pending = frame
                if deps is None:
                    deps = pending = frame[4] = member_deps(geom, nid, gpos)
                base = bases[sample]
                # Scan pending dependencies; prefer state-0 work (descend),
                # remember in-progress blocks for later, and only stall when
                # nothing else is runnable.  Unscanned deps are retained for
                # the next turn.
                keep: list[Dep] = []
                for idx, dep in enumerate(pending):
                    dkey = base[dep[0]] + dep[2]
                    state = tags[dkey]
                    visits += 1
                    if state == _COMPLETE:
                        reuses += 1
                        continue
                    if state == _IN_PROGRESS:
                        conflicts += spins
                        keep.append(dep)
                        continue
                    # state 0: descend into this dependency this turn;
                    # everything not yet scanned stays pending.
                    frame[5] = keep + pending[idx + 1:]
                    tags[dkey] = _IN_PROGRESS
                    compulsory += 2
                    stack.append([dep[0], dep[1], sample, dkey, None, None])
                    break
                else:
                    frame[5] = keep
                    if keep:
                        w.stall_turns += 1  # the owners are progressing elsewhere
                    else:
                        # All dependencies complete: compute this brick for
                        # the duration ``emit`` will give its task.
                        volume = 1
                        for axis_lengths, g in zip(lengths[nid], gpos):
                            volume *= axis_lengths[g]
                        cost = timing.get((nid, volume))
                        if cost is None:
                            channels = self.graph.node(nid).spec.channels
                            duration = spec.task_time(geom.flops(nid, channels * volume))
                            if self._quantum is None:
                                self._quantum = max(spec.call_overhead_s, duration / 4.0)
                                spins = max(1, round(self._quantum / spec.spin_interval_s))
                            cost = timing[(nid, volume)] = (duration, max(1, round(duration / self._quantum)))
                        duration, busy = cost
                        durations.append(duration)
                        order.append((nid, gpos, sample, w.index, deps))
                        w.busy_turns += busy
                        w.computing = True
                        after = now + busy * num_workers

            if after >= 0:
                now = heappushpop(events, after)
            else:
                now = heappop(events) if events else -1

        self.total_visits += visits
        self.total_conflicts += conflicts
        self.total_reuses += reuses
        self.total_compulsory += compulsory
        return order

    def _sink_goals(self) -> list[tuple[int, tuple[int, ...], int, int]]:
        """Exit bricks ``(node, grid position, sample, tag key)`` in
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
                    goals.append((eid, gpos, n, self.bases[n][eid] + flat))
        return goals


@dataclass(slots=True)
class _WorkerState:
    index: int
    queue: list[tuple[int, tuple[int, ...], int, int]]
    stack: list[list] = field(default_factory=list)
    computing: bool = False  # the top frame's brick is being computed
    busy_turns: int = 0      # turns spent computing bricks
    stall_turns: int = 0     # turns spent spinning on in-progress bricks
