"""Trace currency: the span.

A :class:`Span` is one timed, attributed operation in a serve request's
trace tree: the request root opened at admission, its queued stage, the
batch, plan and execute spans, and one span per simulated-device task.
Spans are plain data; the clock, the sinks and the id minting live in
:class:`~repro.obs.tracer.Tracer`.  Trace ids never leave the serve layer:
a child names its parent span directly, and device tasks are parented on
their execute span by the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Span"]


@dataclass
class Span:
    """One timed operation inside a trace.

    ``kind`` is the coarse taxonomy the invariant checks key on:
    ``request`` (serve-request roots), ``stage`` (queued time),
    ``batch``/``execute``/``plan`` (the serving pipeline), ``task``
    (simulated-device kernel invocations).
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    kind: str = "span"
    start_s: float = 0.0
    end_s: float | None = None
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def as_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        return cls(
            name=doc["name"],
            trace_id=doc["trace_id"],
            span_id=doc["span_id"],
            parent_id=doc.get("parent_id"),
            kind=doc.get("kind", "span"),
            start_s=doc.get("start_s", 0.0),
            end_s=doc.get("end_s"),
            status=doc.get("status", "ok"),
            attrs=dict(doc.get("attrs", {})),
        )
