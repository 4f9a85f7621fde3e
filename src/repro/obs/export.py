"""Reading traces back: completeness checks, span trees, Perfetto export.

Consumes the tracer's JSONL entries (or the in-memory list) and provides
the three read paths:

* :func:`check_completeness` -- the invariant gate the tests and the CI
  obs-smoke job assert: every span's parent exists in the same trace (no
  orphans), every ``task`` span has a ``request`` ancestor, every trace
  has exactly one root and it is a serve request;
* :func:`render_span_tree` / :func:`list_traces` -- the ``repro trace
  show`` terminal view;
* :func:`merged_chrome_trace` -- one Trace Event Format file uniting the
  serve-layer spans with the device task lanes (the profiler's view),
  loadable in Perfetto.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.context import Span

__all__ = ["load_entries", "spans_of", "CompletenessReport",
           "check_completeness", "list_traces", "render_span_tree",
           "merged_chrome_trace"]


# Root-span kinds beyond serve requests: fleet control-plane decisions.
_FLEET_ROOT_KINDS = ("scale", "preempt")
#: Problems a completeness report lists; later ones are dropped.
MAX_PROBLEMS = 20
#: Children a span-tree node shows before its sibling tasks collapse.
MAX_CHILDREN = 12


def load_entries(path: "str | Path") -> list[dict]:
    """Parse a tracer JSONL file back into entry dicts."""
    entries = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def spans_of(entries: list[dict]) -> list[Span]:
    return [Span.from_dict(e) for e in entries if e.get("type") == "span"]


@dataclass
class CompletenessReport:
    """What the span-tree invariant check found."""

    traces: int = 0
    spans: int = 0
    task_spans: int = 0
    request_roots: int = 0
    fleet_roots: int = 0     # autoscaler / preemption control-plane traces
    events: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        fleet = (f", {self.fleet_roots} fleet root(s)"
                 if self.fleet_roots else "")
        return (f"trace completeness {verdict}: {self.traces} trace(s), "
                f"{self.spans} span(s) ({self.task_spans} device-task), "
                f"{self.request_roots} request root(s){fleet}, "
                f"{self.events} event(s)")


def check_completeness(entries: list[dict]) -> CompletenessReport:
    """Verify the span-tree invariants over a trace log.

    Checked: parents exist and share the child's trace (no orphans), spans
    are finished, each trace has exactly one root and it is ``kind ==
    "request"`` (or a fleet control-plane root: ``scale``/``preempt``),
    and every ``task`` span reaches a request root by walking parents.
    Problems are capped at :data:`MAX_PROBLEMS` per report.
    """
    spans = spans_of(entries)
    report = CompletenessReport(
        spans=len(spans),
        events=sum(1 for e in entries if e.get("type") == "event"))
    by_id = {s.span_id: s for s in spans}
    roots_by_trace: dict[str, list[Span]] = {}

    def problem(msg: str) -> None:
        if len(report.problems) < MAX_PROBLEMS:
            report.problems.append(msg)

    for s in spans:
        if s.end_s is None:
            problem(f"span {s.span_id} ({s.name}) never finished")
        if s.parent_id is None:
            roots_by_trace.setdefault(s.trace_id, []).append(s)
            continue
        parent = by_id.get(s.parent_id)
        if parent is None:
            problem(f"orphan span {s.span_id} ({s.name}): "
                    f"parent {s.parent_id} not in log")
        elif parent.trace_id != s.trace_id:
            problem(f"span {s.span_id} ({s.name}) crosses traces: "
                    f"{s.trace_id} -> parent in {parent.trace_id}")

    report.traces = len({s.trace_id for s in spans})
    for trace_id, roots in sorted(roots_by_trace.items()):
        if len(roots) > 1:
            problem(f"trace {trace_id} has {len(roots)} roots")
        for root in roots:
            if root.kind == "request":
                report.request_roots += 1
            elif root.kind in _FLEET_ROOT_KINDS:
                # Control-plane traces: autoscaler decisions and batcher
                # preemptions root their own (single-span) traces.
                report.fleet_roots += 1
            else:
                problem(f"trace {trace_id} root {root.span_id} "
                        f"({root.name}) is kind={root.kind!r}, not a "
                        f"serve request")
    for trace_id in {s.trace_id for s in spans} - set(roots_by_trace):
        problem(f"trace {trace_id} has no root span")

    for s in spans:
        if s.kind != "task":
            continue
        report.task_spans += 1
        seen: set[str] = set()
        cur: Span | None = s
        while cur is not None and cur.span_id not in seen:
            seen.add(cur.span_id)
            if cur.kind == "request":
                break
            cur = by_id.get(cur.parent_id) if cur.parent_id else None
        else:
            problem(f"task span {s.span_id} ({s.name}) has no "
                    f"serve-request ancestor")
    return report


# -- terminal rendering ------------------------------------------------------
def list_traces(entries: list[dict]) -> list[dict]:
    """One summary row per trace, in trace-id order."""
    rows: dict[str, dict] = {}
    for s in spans_of(entries):
        row = rows.setdefault(s.trace_id, {
            "trace_id": s.trace_id, "spans": 0, "tasks": 0,
            "root": None, "request_id": None, "duration_ms": 0.0,
            "status": "ok",
        })
        row["spans"] += 1
        if s.kind == "task":
            row["tasks"] += 1
        if s.parent_id is None:
            row["root"] = s.name
            row["request_id"] = s.attrs.get("request_id")
            row["duration_ms"] = s.duration_s * 1e3
            if s.status != "ok":
                row["status"] = s.status
    return [rows[t] for t in sorted(rows)]


def render_span_tree(entries: list[dict], trace_id: str) -> str:
    """ASCII span tree of one trace; sibling ``task`` spans beyond
    :data:`MAX_CHILDREN` collapse into a single summary line."""
    spans = [s for s in spans_of(entries) if s.trace_id == trace_id]
    if not spans:
        return f"no spans for trace {trace_id}"
    children: dict[str | None, list[Span]] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start_s, s.span_id))

    def describe(s: Span) -> str:
        bits = [f"{s.name} [{s.kind}]", f"{s.duration_s * 1e3:.2f} ms"]
        if s.status != "ok":
            bits.append(f"status={s.status}")
        for key in ("request_id", "device", "size", "bucket", "cache_hit",
                    "worker", "node_id"):
            if key in s.attrs:
                bits.append(f"{key}={s.attrs[key]}")
        return "  ".join(bits)

    lines: list[str] = []

    def walk(span: Span, prefix: str, branch: str) -> None:
        lines.append(prefix + branch + describe(span))
        kids = children.get(span.span_id, [])
        shown = kids
        dropped = 0
        if len(kids) > MAX_CHILDREN:
            tasks = [k for k in kids if k.kind == "task"]
            if len(tasks) > MAX_CHILDREN // 2:
                keep = MAX_CHILDREN // 2
                dropped = len(tasks) - keep
                drop_ids = {k.span_id for k in tasks[keep:]}
                shown = [k for k in kids if k.span_id not in drop_ids]
        child_prefix = prefix if not branch else \
            prefix + ("   " if branch == "└─ " else "│  ")
        for i, kid in enumerate(shown):
            last = i == len(shown) - 1 and not dropped
            walk(kid, child_prefix, "└─ " if last else "├─ ")
        if dropped:
            lines.append(child_prefix + f"└─ ... {dropped} more task span(s)")

    for root in children.get(None, []):
        walk(root, "", "")
    return "\n".join(lines)


# -- Perfetto export ---------------------------------------------------------
def merged_chrome_trace(entries: list[dict]) -> dict:
    """Serve spans and device task spans on one Trace Event timeline.

    Serve-layer spans render as process 0 with one thread per trace
    (requests stack visibly); ``task`` spans render as one process per
    simulated device with one thread per worker lane -- the same layout as
    the profiler's device trace, now wall-aligned under the serve spans.
    Timestamps are microseconds from the first span's start.
    """
    spans = spans_of(entries)
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start_s for s in spans)
    trace_tids = {t: i for i, t in enumerate(sorted({s.trace_id for s in spans}))}
    events: list[dict] = [{
        "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
        "args": {"name": "serve"},
    }]
    for trace_id, tid in trace_tids.items():
        events.append({"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
                       "args": {"name": trace_id}})
    device_pids: set[int] = set()
    for s in spans:
        if s.kind == "task":
            device = s.attrs.get("device")
            pid = 1000 + int(device) if device is not None else 1000
            tid = int(s.attrs.get("worker", 0))
            if pid not in device_pids:
                device_pids.add(pid)
                events.append({
                    "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                    "args": {"name": f"device {pid - 1000}"},
                })
        else:
            pid = 0
            tid = trace_tids[s.trace_id]
        events.append({
            "ph": "X", "pid": pid, "tid": tid, "name": s.name,
            "cat": s.kind, "ts": (s.start_s - t0) * 1e6,
            "dur": s.duration_s * 1e6,
            "args": {"trace_id": s.trace_id, "span_id": s.span_id,
                     "status": s.status, **s.attrs},
        })
    for e in entries:
        if e.get("type") != "event":
            continue
        events.append({
            "ph": "i", "pid": 0,
            "tid": trace_tids.get(e.get("trace_id"), 0),
            "name": e["name"], "ts": (e.get("time_s", t0) - t0) * 1e6,
            "s": "g", "args": dict(e.get("attrs", {})),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs"}}
