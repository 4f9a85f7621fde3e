"""The Device facade: what execution strategies run against.

A :class:`Device` owns one memory system and one atomic-counter set for a
run.  Executors allocate buffers, submit :class:`~repro.gpusim.trace.Task`
objects (each task's accesses are pushed through the memory hierarchy as it
is submitted, so L2 state evolves in issue order -- the property merged
execution exploits), and finally call :meth:`finish` to obtain the
:class:`RunMetrics` with counters and the paper-style time breakdown.  A
device only counts: no value ever reaches it (outputs come from
``BrickDLEngine.values``, which runs without one).

Observability: the device maintains per-worker lane clocks and stamps every
submitted task with an issue-order ``(start_s, end_s)`` from the
``spec.task_time`` model plus its submission index and counter delta, so
each run yields a timeline of self-describing tasks.  Attached observers
(see :mod:`repro.profiling`) are notified of allocations and discards, task
submissions (the stamped task carries its own counter delta),
synchronizations, attribution scopes (where they snapshot
:meth:`counter_state`), and run completion.  The
timeline is an *issue-order* view for tracing; the authoritative end-to-end
time remains the :class:`TimeBreakdown` makespan model, which additionally
accounts for memory/compute overlap.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.gpusim.atomics import AtomicCounters
from repro.gpusim.memory import MemoryCounters, MemorySystem
from repro.gpusim.spec import A100, GPUSpec
from repro.gpusim.timing import TimeBreakdown, compute_breakdown
from repro.gpusim.trace import Buffer, Task
from repro.metrics.registry import MetricsRegistry

__all__ = ["Device", "RunMetrics"]

# Per-task registry counters, in the order of the counter-delta tuple below.
_TASK_METRICS = ("l1_txns", "l2_txns", "dram_read_txns", "dram_write_txns",
                 "atomics_compulsory", "atomics_conflict")


@dataclass(frozen=True)
class RunMetrics:
    """Everything a benchmark needs about one execution."""

    memory: MemoryCounters
    atomics: AtomicCounters
    time: TimeBreakdown
    num_tasks: int
    total_flops: float

    @property
    def total_time(self) -> float:
        return self.time.total


class Device:
    """A simulated GPU for the duration of one execution run."""

    def __init__(self, spec: GPUSpec = A100) -> None:
        self.spec = spec
        self.memory = MemorySystem(spec)
        self.atomics = AtomicCounters()
        self.observers: list = []
        # Always-on metrics: every run leaves a labelled registry, whether or
        # not anyone attached observers.  Each device owns its registry; the
        # engine labels it (model, then strategy/subgraph scopes).
        self.metrics_registry = MetricsRegistry()
        # Resolved counter-handle rows per (context_token, node_id): label
        # scopes change rarely relative to task submission, so the hot path
        # is one dict hit plus attribute adds.
        self._metric_rows: dict[tuple[int, int | None], tuple] = {}
        self._tasks: list[Task] = []
        self._sync_count = 0
        self._extra_overhead = 0.0
        self._finished = False
        self._lanes: list[float] = [0.0] * max(1, spec.num_sms)
        self._scope: tuple[int | None, str | None] = (None, None)

    # -- observers -----------------------------------------------------------
    def attach(self, observer):
        """Attach an execution observer (e.g. a ``TraceCollector``)."""
        self.observers.append(observer)
        return observer

    @contextmanager
    def scope(self, subgraph_index: int | None = None,
              strategy: str | None = None,
              brick: str | None = None) -> Iterator[None]:
        """Attribution scope: tasks submitted inside are stamped with the
        plan entry and strategy (unless the executor set them already), and
        its cost is the growth of :meth:`counter_state` between its two ends.
        The metrics registry gets matching ``(strategy, brick, subgraph)``
        default labels for everything recorded inside."""
        prev = self._scope
        self._scope = (subgraph_index, strategy)
        for obs in self.observers:
            obs.on_scope_begin(self, subgraph_index, strategy)
        try:
            with self.metrics_registry.label_scope(
                    strategy=strategy, brick=brick, subgraph=subgraph_index):
                yield
        finally:
            for obs in self.observers:
                obs.on_scope_end(self, subgraph_index, strategy)
            self._scope = prev

    @property
    def now_s(self) -> float:
        """Issue-order wall clock: the furthest lane's time."""
        return max(self._lanes)

    def counter_state(self) -> dict[str, float]:
        """Cumulative counters, for observers to snapshot at scope boundaries."""
        c = self.memory.counters
        return {
            "l1_txns": c.l1_txns,
            "l2_txns": c.l2_txns,
            "dram_txns": c.dram_read_txns + c.dram_write_txns,
            "atomics_compulsory": self.atomics.compulsory,
            "atomics_conflict": self.atomics.conflict,
            "overhead_s": self._extra_overhead,
        }

    # -- buffers -------------------------------------------------------------
    def allocate(self, name: str, nbytes: int, transient: bool = False) -> Buffer:
        buffer = self.memory.allocate(name, nbytes, transient)
        for obs in self.observers:
            obs.on_alloc(self, buffer)
        return buffer

    def discard(self, buffer: Buffer) -> None:
        self.memory.discard(buffer)
        for obs in self.observers:
            obs.on_discard(self, buffer)

    # -- execution -----------------------------------------------------------
    def _metric_row(self, node_id: int | None) -> tuple:
        """Resolve (and cache) the registry counter handles for a node under
        the current label scope."""
        reg = self.metrics_registry
        key = (reg.context_token, node_id)
        row = self._metric_rows.get(key)
        if row is None:
            row = tuple(reg.counter(name, node=node_id) for name in _TASK_METRICS)
            row += (reg.counter("tasks", node=node_id),
                    reg.counter("flops", node=node_id))
            self._metric_rows[key] = row
        return row

    def submit(self, task: Task) -> None:
        """Run one fine-grained kernel invocation through the hierarchy."""
        c = self.memory.counters
        before = (c.l1_txns, c.l2_txns, c.dram_read_txns, c.dram_write_txns)
        self.memory.begin_task()
        self.memory.process_batch(task.accesses)
        self.atomics.compulsory += task.atomics_compulsory
        self.atomics.conflict += task.atomics_conflict

        # Timeline: place the task on its worker's lane (executor-chosen) or
        # the earliest-available lane, issue-order, using the task_time model.
        duration = self.spec.task_time(task.flops, task.calls)
        if task.worker is None:
            lane = min(range(len(self._lanes)), key=self._lanes.__getitem__)
        else:
            lane = task.worker % len(self._lanes)
        task.worker = lane
        task.start_s = self._lanes[lane]
        task.end_s = task.start_s + duration
        self._lanes[lane] = task.end_s
        if task.subgraph_index is None:
            task.subgraph_index = self._scope[0]
        if task.strategy is None:
            task.strategy = self._scope[1]

        task.seq = len(self._tasks)
        self._tasks.append(task)
        deltas = (c.l1_txns - before[0], c.l2_txns - before[1],
                  c.dram_read_txns - before[2], c.dram_write_txns - before[3],
                  task.atomics_compulsory, task.atomics_conflict)
        task.l1_txns = deltas[0]
        task.l2_txns = deltas[1]
        task.dram_txns = deltas[2] + deltas[3]
        row = self._metric_row(task.node_id)
        for counter, delta in zip(row, deltas):
            if delta:
                counter.value += delta
        row[-2].value += 1
        row[-1].value += task.flops
        for obs in self.observers:
            obs.on_task_submit(self, task)

    def synchronize(self) -> None:
        """Record one device-wide synchronization barrier."""
        self._sync_count += 1
        self.metrics_registry.inc("syncs")
        barrier = self.now_s + self.spec.sync_time_s
        self._lanes = [barrier] * len(self._lanes)
        for obs in self.observers:
            obs.on_sync(self, barrier)

    def add_overhead(self, seconds: float) -> None:
        self._extra_overhead += seconds

    # -- results ------------------------------------------------------------
    @property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(self._tasks)

    def finish(self) -> RunMetrics:
        """Flush persistent dirty data and compute the final breakdown."""
        first = not self._finished
        if first:
            self.memory.flush()
            self._finished = True
            self._export_cache_stats()
        breakdown = compute_breakdown(
            self.spec,
            self._tasks,
            self.memory.counters,
            self.atomics,
            sync_count=self._sync_count,
            extra_overhead_s=self._extra_overhead,
        )
        metrics = RunMetrics(
            memory=self.memory.counters,
            atomics=self.atomics,
            time=breakdown,
            num_tasks=len(self._tasks),
            total_flops=float(sum(t.flops for t in self._tasks)),
        )
        if first:
            for obs in self.observers:
                obs.on_finish(self, metrics)
        return metrics

    def _export_cache_stats(self) -> None:
        """Publish end-of-run cache-model accounting as registry gauges."""
        reg = self.metrics_registry
        stats = self.memory.stats()
        for level in ("l1", "l2"):
            for name, value in stats[level].items():
                reg.gauge(f"cache_{name}", level=level).set(value)
        for name, value in stats["analytic"].items():
            # "resident_bytes" keeps its historical gauge name
            # ("analytic_resident_bytes"); the ledger entries follow suit.
            reg.gauge(f"analytic_{name}").set(value)
