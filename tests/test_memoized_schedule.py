"""The memoized executor's event-driven tag scheduler against the round-robin
scheduler it replaced.

``RoundRobinMemoized`` keeps that scheduler verbatim: every worker takes
every turn in worker order, counts a computation down one turn at a time,
re-scans a stall every round and emits each brick task the turn it starts
(with its own tuple-keyed recency LRU).  ``MemoizedBrickExecutor.schedule``
advances by events instead and emits after.  On every memoized subgraph of
the reduced zoo and on random DAGs, at 1, 2, 3, 16 and 108 workers, both
must issue the same tasks in the same order (rows, tokens, lanes, flops),
leave every worker the same busy and stall turns, count the same conflicts,
compulsory CAS, visits, reuses and coalesced reads, and add the same stall
overhead.  A scheduler that makes a completion visible one round late must
fail that comparison.
"""

from __future__ import annotations

import dataclasses
import inspect
import textwrap
from collections import OrderedDict
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.engine
import repro.core.memoized
from repro.core.bricktask import Dep, member_deps
from repro.core.engine import BrickDLEngine
from repro.core.handles import BrickedHandle
from repro.core.memoized import MemoizedBrickExecutor
from repro.core.plan import Strategy
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.models import zoo

from testlib import random_dag

_NOT_STARTED, _IN_PROGRESS, _COMPLETE = 0, 1, 2
WORKERS = (1, 2, 3, 16, 108)


# -- the reference: the round-robin scheduler, verbatim ----------------------------

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


@dataclass
class _WorkerState:
    index: int
    queue: list[tuple[int, tuple[int, ...], int, int]]
    stack: list[_Frame] = field(default_factory=list)
    busy: int = 0
    busy_turns: int = 0    # turns spent computing bricks
    stall_turns: int = 0   # turns spent spinning on in-progress bricks


class RoundRobinMemoized(MemoizedBrickExecutor):
    """The memoized executor with the round-robin scheduler it had before it
    scheduled by events; it emits each task the turn it starts computing."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._recent: "OrderedDict[tuple[int, int], None]" = OrderedDict()
        # Per node, its samples' tags: a view of the executor's tag bytes.
        view = memoryview(self.tags)
        self.states = {nid: view[self.bases[0][nid]:self.bases[0][nid] + self.batch * h.grid.num_bricks]
                       for nid, h in self.memo.items()}

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
                         acquired=frame.deps, recent=self, worker=w.index)
        duration = self.device.spec.task_time(task.flops, task.calls)
        self._durations.append(duration)
        if self._quantum is None:
            self._quantum = max(self.device.spec.call_overhead_s, duration / 4.0)
        w.busy = max(1, round(duration / self._quantum))

    def touch(self, buffer_key: int, offsets) -> list[bool]:
        """The emitter's recency filter, one ``_touch`` per brick."""
        return [self._touch((buffer_key >> 40, offset)) for offset in offsets]

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


# -- the comparison ------------------------------------------------------------------

def _observed(engine: BrickDLEngine, plan, spec, executor_cls, monkeypatch) -> dict:
    """Everything a scheduler decides, from one counted run under
    ``executor_cls``: the tasks in issue order, per executor its workers'
    turns and its counters, and the device's totals."""
    ran = []

    class Recording(executor_cls):
        def run(self):
            ran.append(self)
            return super().run()

    with monkeypatch.context() as patch:
        patch.setattr(repro.core.engine, "MemoizedBrickExecutor", Recording)
        device = Device(spec)
        metrics = engine.run(inputs=None, functional=False, device=device, plan=plan).metrics
    names = {bid: buf.name for bid, buf in device.memory._buffers.items()}  # ids differ per run

    def tokens(task_tokens):
        return [(kind, names[bid], *rest) for kind, bid, *rest in task_tokens]

    return {
        "tasks": [(t.label, t.node_id, t.brick, t.batch_index, t.worker, t.flops, t.calls,
                   t.atomics_compulsory, [(a.buffer.name, *a[1:]) for a in t.accesses],
                   tokens(t.acquires), tokens(t.releases)) for t in device.tasks],
        "executors": [([(w.busy_turns, w.stall_turns) for w in ex._workers], ex._quantum,
                       ex.total_conflicts, ex.total_compulsory, ex.total_visits,
                       ex.total_reuses, ex.coalesced_reads) for ex in ran],
        "overhead": device._extra_overhead,
        "atomics": (metrics.atomics.compulsory, metrics.atomics.conflict),
        "time": metrics.total_time,
        "registry": device.metrics_registry.as_dict(),
    }


def _check(graph, workers, monkeypatch, brick=None) -> tuple[dict, dict]:
    spec = dataclasses.replace(A100, num_sms=workers)
    engine = BrickDLEngine(graph, spec=spec, strategy_override=Strategy.MEMOIZED, brick_override=brick)
    plan = engine.compile()
    return (_observed(engine, plan, spec, MemoizedBrickExecutor, monkeypatch),
            _observed(engine, plan, spec, RoundRobinMemoized, monkeypatch))


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("model", sorted(zoo.MODELS))
def test_event_scheduler_matches_round_robin_on_the_zoo(model, workers, monkeypatch):
    events, reference = _check(zoo.build(model, reduced=True), workers, monkeypatch)
    if not reference["executors"]:
        pytest.skip(f"{model} has no merged subgraph")
    assert events == reference


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(random_dag())
def test_event_scheduler_matches_round_robin_on_random_dags(monkeypatch, graph):
    for workers in WORKERS:
        events, reference = _check(graph, workers, monkeypatch, brick=4)
        assert events == reference, workers


def test_a_completion_seen_one_round_late_is_caught(monkeypatch):
    """The seeded mutant: a brick's completion becomes visible (and its
    worker moves on) one round after its last busy turn.  vgg16 at three
    workers stalls on in-progress halo bricks."""
    source = textwrap.dedent(inspect.getsource(MemoizedBrickExecutor.schedule))
    mutant = source.replace("now + busy * num_workers", "now + (busy + 1) * num_workers")
    assert mutant != source
    namespace = dict(vars(repro.core.memoized))
    exec(compile(mutant, repro.core.memoized.__file__, "exec"), namespace)
    graph = zoo.build("vgg16", reduced=True)
    events, reference = _check(graph, 3, monkeypatch)
    assert events == reference
    monkeypatch.setattr(MemoizedBrickExecutor, "schedule", namespace["schedule"])
    events, reference = _check(graph, 3, monkeypatch)
    assert events["executors"] != reference["executors"]
