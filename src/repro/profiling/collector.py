"""The default trace collector: per-task records and attribution rollups.

:class:`TraceCollector` is a :class:`~repro.profiling.observer.DeviceObserver`
that keeps every submitted :class:`~repro.gpusim.trace.Task` -- the device
has already stamped identity, timeline position and counter deltas on it,
so the task is its own record -- plus the *residual* counter growth that
happens outside any task: the memoized scheduler's bulk conflict-CAS
accounting, recursion overhead, and the final write-back flush.  Every
transaction and atomic the device counts lands in exactly one record or one
residual bucket, so the rollups reconcile exactly with the run's
:class:`~repro.gpusim.device.RunMetrics`:

* :meth:`per_node` -- attribution by graph node (the trace-level analogue of
  reading Nsight Compute counters per kernel, paper section 4),
* :meth:`per_subgraph` -- attribution by plan entry, the rows
  :meth:`EngineResult.attribution_table` renders,
* :meth:`totals` -- whole-run sums for reconciliation checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.profiling.observer import DeviceObserver

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import Device, RunMetrics
    from repro.gpusim.trace import Buffer, Task

__all__ = ["AllocEvent", "SyncEvent", "TraceCollector"]

_COUNTER_KEYS = ("l1_txns", "l2_txns", "dram_txns",
                 "atomics_compulsory", "atomics_conflict")


@dataclass(frozen=True)
class AllocEvent:
    """One allocation or discard, with the live-bytes level after it."""

    time_s: float
    name: str
    nbytes: int          # positive alloc, negative discard
    live_bytes: int      # total allocated-and-not-discarded after this event


@dataclass(frozen=True)
class SyncEvent:
    time_s: float
    subgraph_index: int | None


def _zero_residual() -> dict:
    return {k: 0 for k in _COUNTER_KEYS} | {"overhead_s": 0.0}


class TraceCollector(DeviceObserver):
    """Accumulates submitted tasks, residuals, and allocation/sync events."""

    def __init__(self) -> None:
        self.records: list[Task] = []
        self.allocs: list[AllocEvent] = []
        self.syncs: list[SyncEvent] = []
        # Residual counter growth outside any task, keyed by subgraph index
        # (int), None (graph level), or "flush" (final write-back).
        self.residuals: dict[object, dict] = {}
        self.finished: bool = False
        self.spec = None
        self._live_bytes = 0
        self._scopes: list[tuple[int | None, str | None]] = []
        self._last: dict[str, float] | None = None

    # -- cursor bookkeeping -------------------------------------------------
    def _settle(self, device: "Device", bucket_key: object,
                task_delta: Mapping[str, int] | None = None) -> None:
        """Attribute counter growth since the last event.

        The growth beyond ``task_delta`` (what the current task itself
        produced, if any) is residual and lands in ``bucket_key``'s bucket.
        """
        now = device.counter_state()
        if self._last is not None:
            bucket = None
            for key in _COUNTER_KEYS + ("overhead_s",):
                grown = now[key] - self._last[key]
                if task_delta is not None:
                    grown -= task_delta.get(key, 0)
                if grown:
                    if bucket is None:
                        bucket = self.residuals.setdefault(bucket_key, _zero_residual())
                    bucket[key] += grown
        self._last = now

    def _active_scope(self) -> tuple[int | None, str | None]:
        return self._scopes[-1] if self._scopes else (None, None)

    # -- observer hooks ------------------------------------------------------
    def on_alloc(self, device: "Device", buffer: "Buffer") -> None:
        self.spec = device.spec
        self._live_bytes += buffer.nbytes
        self.allocs.append(AllocEvent(device.now_s, buffer.name, buffer.nbytes,
                                      self._live_bytes))

    def on_discard(self, device: "Device", buffer: "Buffer") -> None:
        self._live_bytes -= buffer.nbytes
        self.allocs.append(AllocEvent(device.now_s, buffer.name, -buffer.nbytes,
                                      self._live_bytes))

    def on_scope_begin(self, device: "Device", subgraph_index: int | None,
                       strategy: str | None) -> None:
        self.spec = device.spec
        # Growth before the scope opened belongs to the enclosing context.
        self._settle(device, self._active_scope()[0])
        self._scopes.append((subgraph_index, strategy))

    def on_scope_end(self, device: "Device", subgraph_index: int | None,
                     strategy: str | None) -> None:
        self._settle(device, subgraph_index)
        if self._scopes:
            self._scopes.pop()

    def on_task_submit(self, device: "Device", task: "Task",
                       delta: Mapping[str, int]) -> None:
        self.spec = device.spec
        self._settle(device, self._active_scope()[0], task_delta=delta)
        self.records.append(task)

    def on_sync(self, device: "Device", time_s: float) -> None:
        self.syncs.append(SyncEvent(time_s, self._active_scope()[0]))

    def on_finish(self, device: "Device", metrics: "RunMetrics") -> None:
        # The flush write-back of persistent dirty data happens here; its
        # DRAM transactions belong to no task.
        self._settle(device, "flush")
        self.finished = True

    # -- rollups ------------------------------------------------------------
    def _dram_time(self, txns: int) -> float:
        if self.spec is None or not self.spec.txn_rate:
            return 0.0
        return txns / self.spec.txn_rate

    def per_node(self) -> dict[int | None, dict]:
        """Attribution table keyed by graph node id.

        Tasks without a ``node_id`` and all residual growth (scheduler
        atomics, flush write-back) aggregate under the ``None`` key, so the
        table's column sums always equal the run totals.
        """
        table: dict[int | None, dict] = {}
        for r in self.records:
            row = table.setdefault(r.node_id, {
                "label": r.label, "num_tasks": 0, "calls": 0, "flops": 0.0,
                "busy_s": 0.0, "strategies": set(), "subgraphs": set(),
                **{k: 0 for k in _COUNTER_KEYS},
            })
            row["num_tasks"] += 1
            row["calls"] += r.calls
            row["flops"] += r.flops
            row["busy_s"] += r.duration_s
            for k in _COUNTER_KEYS:
                row[k] += getattr(r, k)
            if r.strategy:
                row["strategies"].add(r.strategy)
            if r.subgraph_index is not None:
                row["subgraphs"].add(r.subgraph_index)
        for key, residual in self.residuals.items():
            row = table.setdefault(None, {
                "label": "(residual)", "num_tasks": 0, "calls": 0, "flops": 0.0,
                "busy_s": 0.0, "strategies": set(), "subgraphs": set(),
                **{k: 0 for k in _COUNTER_KEYS},
            })
            for k in _COUNTER_KEYS:
                row[k] += residual[k]
        for row in table.values():
            row["dram_time_s"] = self._dram_time(row["dram_txns"])
        return table

    def per_subgraph(self, count: int | None = None) -> list[dict]:
        """Per-plan-entry attribution, one dict per subgraph index.

        The rows :meth:`EngineResult.attribution_table` renders.
        """
        indices = [r.subgraph_index for r in self.records if r.subgraph_index is not None]
        indices += [k for k in self.residuals if isinstance(k, int)]
        indices += [s.subgraph_index for s in self.syncs if s.subgraph_index is not None]
        n = count if count is not None else (max(indices) + 1 if indices else 0)
        rows = [{
            "l1_txns": 0, "l2_txns": 0, "dram_txns": 0,
            "atomics_compulsory": 0, "atomics_conflict": 0,
            "num_tasks": 0, "calls": 0, "flops": 0.0, "busy_s": 0.0,
            "syncs": 0, "overhead_s": 0.0,
        } for _ in range(n)]
        for r in self.records:
            if r.subgraph_index is None or not (0 <= r.subgraph_index < n):
                continue
            row = rows[r.subgraph_index]
            row["num_tasks"] += 1
            row["calls"] += r.calls
            row["flops"] += r.flops
            row["busy_s"] += r.duration_s
            for k in _COUNTER_KEYS:
                row[k] += getattr(r, k)
        for key, residual in self.residuals.items():
            if isinstance(key, int) and 0 <= key < n:
                for k in _COUNTER_KEYS:
                    rows[key][k] += residual[k]
                rows[key]["overhead_s"] += residual["overhead_s"]
        for s in self.syncs:
            if s.subgraph_index is not None and 0 <= s.subgraph_index < n:
                rows[s.subgraph_index]["syncs"] += 1
        for row in rows:
            row["dram_time_s"] = self._dram_time(row["dram_txns"])
        return rows

    def totals(self) -> dict:
        """Whole-run sums over records *and* residuals.

        By construction these equal the device's cumulative counters, which
        is what the reconciliation tests assert against ``RunMetrics``.
        """
        out = {k: 0 for k in _COUNTER_KEYS}
        out["num_tasks"] = len(self.records)
        out["flops"] = 0.0
        for r in self.records:
            out["flops"] += r.flops
            for k in _COUNTER_KEYS:
                out[k] += getattr(r, k)
        for residual in self.residuals.values():
            for k in _COUNTER_KEYS:
                out[k] += residual[k]
        return out

    # -- convenience --------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return max((r.worker for r in self.records), default=-1) + 1

    @property
    def span_s(self) -> float:
        return max((r.end_s for r in self.records), default=0.0)
