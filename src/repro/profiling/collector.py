"""The default trace collector: per-task records and attribution rollups.

:class:`TraceCollector` is a :class:`~repro.profiling.observer.DeviceObserver`
that keeps every submitted :class:`~repro.gpusim.trace.Task` (stamped by the
device, the task is its own record) and snapshots the device's cumulative
counters only where a ``Device.scope`` opens and closes and when the run
finishes -- the way the paper reads Nsight counters per kernel range (section
4).  Growth outside any task (the memoized scheduler's bulk conflict-CAS
accounting, recursion overhead, the write-back flush) is thereby counted, so
:meth:`per_subgraph`, :meth:`per_node` and :meth:`totals` reconcile with the
run's ``RunMetrics`` by construction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, NamedTuple

from repro.profiling.observer import DeviceObserver

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import Device, RunMetrics
    from repro.gpusim.trace import Buffer, Task

__all__ = ["AllocEvent", "SyncEvent", "TraceCollector"]

_COUNTER_KEYS = ("l1_txns", "l2_txns", "dram_txns", "atomics_compulsory", "atomics_conflict")


class AllocEvent(NamedTuple):
    """One allocation or discard, with the live-bytes level after it."""

    time_s: float
    name: str
    nbytes: int          # positive alloc, negative discard
    live_bytes: int      # total allocated-and-not-discarded after this event


class SyncEvent(NamedTuple):
    time_s: float
    subgraph_index: int | None


def _blank_row(**extra) -> dict:
    return {**dict.fromkeys(_COUNTER_KEYS, 0), "num_tasks": 0, "calls": 0,
            "flops": 0.0, "busy_s": 0.0, **extra}


def _add_task(row: dict, task: "Task") -> None:
    row["num_tasks"] += 1
    row["calls"] += task.calls
    row["flops"] += task.flops
    row["busy_s"] += task.duration_s


class TraceCollector(DeviceObserver):
    """Keeps submitted tasks, allocation/sync events and scope snapshots;
    :meth:`per_node` and :meth:`totals` read the one ``on_finish`` takes."""

    def __init__(self) -> None:
        self.records: list[Task] = []
        self.allocs: list[AllocEvent] = []
        self.syncs: list[SyncEvent] = []
        # (subgraph index, snapshot at entry, snapshot at exit) per closed scope
        self.scopes: list[tuple[int | None, dict, dict]] = []
        self.finished: bool = False
        self.spec = None
        self._open: list[tuple[int | None, dict]] = []
        self._final: dict = {}

    def _snapshot(self, device: "Device") -> dict:
        """The device's cumulative counters plus the task and sync cursors."""
        self.spec = device.spec
        return device.counter_state() | {"num_tasks": len(self.records), "syncs": len(self.syncs)}

    def on_alloc(self, device: "Device", buffer: "Buffer") -> None:
        self._live(device, buffer.name, buffer.nbytes)

    def on_discard(self, device: "Device", buffer: "Buffer") -> None:
        self._live(device, buffer.name, -buffer.nbytes)

    def _live(self, device: "Device", name: str, nbytes: int) -> None:
        live = self.allocs[-1].live_bytes if self.allocs else 0
        self.allocs.append(AllocEvent(device.now_s, name, nbytes, live + nbytes))

    def on_scope_begin(self, device: "Device", subgraph_index: int | None,
                       strategy: str | None) -> None:
        self._open.append((subgraph_index, self._snapshot(device)))

    def on_scope_end(self, device: "Device", subgraph_index: int | None,
                     strategy: str | None) -> None:
        self.scopes.append((*self._open.pop(), self._snapshot(device)))

    def on_task_submit(self, device: "Device", task: "Task") -> None:
        self.records.append(task)

    def on_sync(self, device: "Device", time_s: float) -> None:
        self.syncs.append(SyncEvent(time_s, self._open[-1][0] if self._open else None))

    def on_finish(self, device: "Device", metrics: "RunMetrics") -> None:
        # After the flush: its write-back is in these counters and in no task.
        self._final = self._snapshot(device) | {"flops": metrics.total_flops}
        self.finished = True

    def _with_dram_time(self, rows):
        for row in rows:
            row["dram_time_s"] = row["dram_txns"] / self.spec.txn_rate
        return rows

    def per_node(self) -> dict[int | None, dict]:
        """Attribution table keyed by graph node id, ascending.  Tasks without
        one and the residual (what the final counters hold beyond the stamped
        tasks) share the last, ``None`` key: column sums equal the run totals."""
        table = defaultdict(lambda: _blank_row(strategies=set(), subgraphs=set()))
        for r in self.records:
            row = table[r.node_id]
            row.setdefault("label", r.label)
            _add_task(row, r)
            for k in _COUNTER_KEYS:
                row[k] += getattr(r, k)
            row["strategies"] |= {r.strategy} - {None}
            row["subgraphs"] |= {r.subgraph_index} - {None}
        residual = {k: self._final[k] - sum(row[k] for row in table.values())
                    for k in _COUNTER_KEYS}
        if any(residual.values()):
            table[None].setdefault("label", "(residual)")
            for k in _COUNTER_KEYS:
                table[None][k] += residual[k]
        self._with_dram_time(table.values())
        return dict(sorted(table.items(), key=lambda kv: (kv[0] is None, kv[0])))

    def per_subgraph(self, count: int) -> list[dict]:
        """One row per plan entry (what ``EngineResult.attribution_table``
        renders): counter growth across its scope and the tasks inside it."""
        rows = [_blank_row(syncs=0, overhead_s=0.0) for _ in range(count)]
        for index, begin, end in self.scopes:
            if index is not None and 0 <= index < count:
                for k in _COUNTER_KEYS + ("overhead_s", "syncs"):
                    rows[index][k] += end[k] - begin[k]
                for r in self.records[begin["num_tasks"]:end["num_tasks"]]:
                    _add_task(rows[index], r)
        return self._with_dram_time(rows)

    def totals(self) -> dict:
        """Whole-run totals: the device's final counters, as in ``RunMetrics``."""
        return {k: self._final[k] for k in _COUNTER_KEYS + ("num_tasks", "flops")}

    @property
    def num_workers(self) -> int:
        return max((r.worker for r in self.records), default=-1) + 1
