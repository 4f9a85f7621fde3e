"""Trace exporters: Chrome-trace/Perfetto JSON and CSV summaries.

``chrome_trace`` renders a collected run in the Trace Event Format that
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* one timeline lane (thread) per virtual worker / SM,
* one complete ("X") event per task, with the structured identity and
  counter deltas in ``args``,
* counter ("C") tracks for cumulative DRAM transactions, atomics, and live
  device memory,
* instant events for device-wide synchronization barriers.

Timestamps are microseconds of simulated time (issue-order lane clocks).
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Mapping

from repro.profiling.collector import TraceCollector

__all__ = ["chrome_trace", "write_chrome_trace", "summary_csv", "write_summary_csv"]

_PID = 0


def _task_name(record, names: Mapping[int, str] | None) -> str:
    if names and record.node_id in names:
        return names[record.node_id]
    return record.label


def chrome_trace(collector: TraceCollector,
                 names: Mapping[int, str] | None = None) -> dict:
    """Render the collected run as a Chrome Trace Event Format object.

    ``names`` optionally maps node ids to display names (e.g.
    ``{n.node_id: n.name for n in graph.nodes}``).
    """
    events: list[dict] = [{
        "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
        "args": {"name": "gpusim"},
    }]
    for worker in range(collector.num_workers):
        events.append({
            "ph": "M", "pid": _PID, "tid": worker, "name": "thread_name",
            "args": {"name": f"SM {worker:03d}"},
        })
        events.append({
            "ph": "M", "pid": _PID, "tid": worker, "name": "thread_sort_index",
            "args": {"sort_index": worker},
        })

    dram_cum = 0
    atomics_cum = 0
    for r in collector.records:
        args = {
            "seq": r.seq,
            "dram_txns": r.dram_txns,
            "l2_txns": r.l2_txns,
            "l1_txns": r.l1_txns,
            "flops": float(r.flops),
            "calls": r.calls,
            "bytes_read": r.bytes_read,
            "bytes_written": r.bytes_written,
        }
        if r.node_id is not None:
            args["node_id"] = r.node_id
        if r.subgraph_index is not None:
            args["subgraph"] = r.subgraph_index
        if r.brick is not None:
            args["brick"] = list(r.brick)
        if r.batch_index is not None:
            args["batch"] = r.batch_index
        if r.atomics_compulsory or r.atomics_conflict:
            args["atomics_compulsory"] = r.atomics_compulsory
            args["atomics_conflict"] = r.atomics_conflict
        events.append({
            "ph": "X", "pid": _PID, "tid": r.worker,
            "name": _task_name(r, names),
            "cat": r.strategy or "task",
            "ts": r.start_s * 1e6, "dur": r.duration_s * 1e6,
            "args": args,
        })
        dram_cum += r.dram_txns
        atomics_cum += r.atomics_compulsory + r.atomics_conflict
        ts = r.end_s * 1e6
        events.append({"ph": "C", "pid": _PID, "tid": 0, "name": "DRAM txns",
                       "ts": ts, "args": {"txns": dram_cum}})
        events.append({"ph": "C", "pid": _PID, "tid": 0, "name": "atomics",
                       "ts": ts, "args": {"txns": atomics_cum}})

    for a in collector.allocs:
        events.append({"ph": "C", "pid": _PID, "tid": 0, "name": "device memory",
                       "ts": a.time_s * 1e6, "args": {"bytes": a.live_bytes}})
    for s in collector.syncs:
        name = ("sync" if s.subgraph_index is None
                else f"sync (subgraph {s.subgraph_index})")
        events.append({"ph": "i", "pid": _PID, "tid": 0, "name": name,
                       "ts": s.time_s * 1e6, "s": "g"})

    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.profiling",
                          "spec": collector.spec.name if collector.spec else None}}


def write_chrome_trace(collector: TraceCollector, path: str | pathlib.Path,
                       names: Mapping[int, str] | None = None) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace(collector, names)))
    return path


_CSV_COLUMNS = ["node_id", "name", "subgraphs", "strategies", "num_tasks", "calls",
                "flops", "l1_txns", "l2_txns", "dram_txns",
                "atomics_compulsory", "atomics_conflict", "busy_s", "dram_time_s"]


def summary_csv(collector: TraceCollector,
                names: Mapping[int, str] | None = None) -> str:
    """Per-node attribution summary as CSV (one row per graph node, plus a
    final row for residual/unattributed counters)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    for node_id, row in collector.per_node().items():
        name = (names or {}).get(node_id) or row["label"]
        writer.writerow([
            "" if node_id is None else node_id,
            name,
            " ".join(str(i) for i in sorted(row["subgraphs"])),
            " ".join(sorted(row["strategies"])),
            row["num_tasks"], row["calls"], row["flops"],
            row["l1_txns"], row["l2_txns"], row["dram_txns"],
            row["atomics_compulsory"], row["atomics_conflict"],
            f"{row['busy_s']:.9f}", f"{row['dram_time_s']:.9f}",
        ])
    return buf.getvalue()


def write_summary_csv(collector: TraceCollector, path: str | pathlib.Path,
                      names: Mapping[int, str] | None = None) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(summary_csv(collector, names))
    return path
