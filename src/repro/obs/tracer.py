"""The tracer: span lifecycle, deterministic ids, and sinks.

One :class:`Tracer` serves one serving session.  It mints deterministic
ids (``itertools.count``, no randomness -- two identical runs produce
identical trace files), timestamps with ``time.monotonic()`` (the same
basis as the asyncio event loop's ``loop.time()``, so serve code can pass
loop timestamps straight in), and records every finished span and event
in one in-memory entry list (what :func:`repro.obs.export.check_completeness`
and the tests consume), which :meth:`Tracer.flush` appends to an optional
JSONL file (``--trace PATH``; one JSON object per line).

Flight dumps are read from that same list: on a fault (``error``,
``reject``, ``timeout``, ``slo_breach``) :meth:`Tracer.dump` freezes its
last :data:`DUMP_ENTRIES` entries -- the context *around* a shed request
or a p99 outlier -- into ``flightrec-<reason>.json`` beside the log.

Entries are recorded on span *end* (finished spans only), so the log is
completion-ordered; parents therefore usually appear after their children,
and readers must not assume pre-order.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.context import Span

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.gpusim.trace import Task

__all__ = ["DUMP_ENTRIES", "TaskSpans", "Tracer"]

# Trace entries a flight dump keeps: the tail of the log before the fault.
DUMP_ENTRIES = 512

# Device-task spans emitted per execute span; the rest are summarized.
_MAX_TASK_SPANS = 2048
# The fields of one :class:`~repro.gpusim.trace.Task` its span shows.
_TaskRow = namedtuple("_TaskRow", "label seq node_id subgraph_index strategy worker "
                      "start_s end_s dram_txns flops brick batch_index")


@dataclass(frozen=True)
class TaskSpans:
    """What :meth:`Tracer.emit_task_spans` reads of an engine run's tasks:
    the span fields of the first 2048, the simulated makespan and the task
    count -- none of the access rows, so a plan cache can keep it."""

    rows: tuple[_TaskRow, ...]
    sim_span: float
    count: int

    @classmethod
    def of(cls, records: "list[Task]") -> "TaskSpans":
        return cls(tuple(_TaskRow(*(getattr(r, f) for f in _TaskRow._fields))
                         for r in records[:_MAX_TASK_SPANS]),
                   max((r.end_s for r in records), default=0.0), len(records))


def _clean(value):
    """JSON-safe attribute values (tuples and numpy scalars appear often)."""
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


class Tracer:
    """Mint, finish, and persist spans for one serving session."""

    def __init__(self, log_path: "str | Path | None" = None,
                 clock=time.monotonic) -> None:
        self.clock = clock
        self.log_path = Path(log_path) if log_path is not None else None
        self.entries: list[dict] = []
        # Flight dumps by reason, and where each was written.
        self.dumps: dict[str, dict] = {}
        self.paths: dict[str, Path] = {}
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._flushed = 0
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            self.log_path.write_text("")  # truncate: one session per file

    # -- span lifecycle ------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: "Span | None" = None,
        kind: str = "span",
        start_s: float | None = None,
        **attrs,
    ) -> Span:
        """Open a span.  With no ``parent`` a fresh trace is minted (serve
        admission does this once per request); with one, the span joins the
        parent's trace."""
        if parent is None:
            trace_id = f"t{next(self._trace_ids):08d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{next(self._span_ids):08d}",
            parent_id=parent_id,
            kind=kind,
            start_s=start_s if start_s is not None else self.clock(),
            attrs={k: _clean(v) for k, v in attrs.items() if v is not None},
        )

    def end_span(self, span: Span, end_s: float | None = None,
                 status: str = "ok", **attrs) -> Span:
        """Finish a span and record it to every sink."""
        span.end_s = end_s if end_s is not None else self.clock()
        span.status = status
        for k, v in attrs.items():
            if v is not None:
                span.attrs[k] = _clean(v)
        self._record(span.as_dict())
        return span

    def record_span(
        self,
        name: str,
        parent: "Span | None",
        start_s: float,
        end_s: float,
        kind: str = "span",
        **attrs,
    ) -> Span:
        """Record a retroactive span whose window is already known (e.g. the
        ``queued`` stage, reconstructed at resolve time)."""
        span = self.start_span(name, parent=parent, kind=kind,
                               start_s=start_s, **attrs)
        return self.end_span(span, end_s=end_s)

    def event(self, name: str, ctx: "Span | None" = None,
              time_s: float | None = None, **attrs) -> dict:
        """Record a point-in-time event, optionally bound to a trace."""
        entry = {
            "type": "event",
            "name": name,
            "trace_id": ctx.trace_id if ctx is not None else None,
            "span_id": ctx.span_id if ctx is not None else None,
            "time_s": time_s if time_s is not None else self.clock(),
            "attrs": {k: _clean(v) for k, v in attrs.items() if v is not None},
        }
        self._record(entry)
        return entry

    # -- device-task fan-in --------------------------------------------------
    def emit_task_spans(self, tasks: TaskSpans, parent: Span, **attrs) -> int:
        """Turn an engine run's tasks into child spans of ``parent``.

        Tasks carry *simulated* device times; each is scaled into the
        parent execute span's wall-clock window so the merged Perfetto view
        lines serve spans and device lanes up on one axis (the unscaled sim
        times ride along as ``sim_start_s``/``sim_end_s`` attrs).  Records
        beyond the first 2048 are summarized in one overflow event rather
        than silently dropped.
        """
        if parent.end_s is None:
            raise ValueError("emit_task_spans needs a finished parent span")
        scale = ((parent.end_s - parent.start_s) / tasks.sim_span
                 if tasks.sim_span > 0 else 0.0)
        for r in tasks.rows:
            span = self.start_span(
                r.label, parent=parent, kind="task",
                start_s=parent.start_s + r.start_s * scale,
                seq=r.seq, node_id=r.node_id, subgraph=r.subgraph_index,
                strategy=r.strategy, worker=r.worker,
                sim_start_s=r.start_s, sim_end_s=r.end_s,
                dram_txns=r.dram_txns, flops=float(r.flops),
                brick=r.brick, batch_index=r.batch_index, **attrs)
            self.end_span(span, end_s=parent.start_s + r.end_s * scale)
        dropped = tasks.count - len(tasks.rows)
        if dropped > 0:
            self.event("task_spans_truncated", ctx=parent, dropped=dropped,
                       limit=_MAX_TASK_SPANS)
        return len(tasks.rows)

    # -- sinks ---------------------------------------------------------------
    def _record(self, entry: dict) -> None:
        with self._lock:
            self.entries.append(entry)

    def dump(self, reason: str, detail: str = "",
             trace_id: str | None = None, request_id: int | None = None,
             time_s: float | None = None) -> dict | None:
        """Freeze the last :data:`DUMP_ENTRIES` entries for ``reason``;
        returns the dump, or ``None`` if this reason already fired.

        Each reason fires at most once per tracer: the first reject is the
        interesting one; later ones would only bury its context.
        """
        with self._lock:
            if reason in self.dumps:
                return None
            dump = {
                "reason": reason,
                "detail": detail,
                "trace_id": trace_id,
                "request_id": request_id,
                "time_s": time_s,
                "entries": self.entries[-DUMP_ENTRIES:],
            }
            self.dumps[reason] = dump
        if self.log_path is not None:
            path = self.log_path.parent / f"flightrec-{reason}.json"
            path.write_text(json.dumps(dump, indent=1))
            self.paths[reason] = path
        return dump

    def flush(self) -> None:
        """Append entries recorded since the last flush to the JSONL file."""
        if self.log_path is None:
            return
        with self._lock:
            pending = self.entries[self._flushed:]
            self._flushed = len(self.entries)
        if pending:
            with self.log_path.open("a") as fh:
                for entry in pending:
                    fh.write(json.dumps(entry) + "\n")

    def close(self) -> None:
        self.flush()
