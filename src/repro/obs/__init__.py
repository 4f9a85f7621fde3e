"""Request-scoped observability for the serving layer.

``repro.obs`` connects a serve request to the device work it caused: a
:class:`TraceContext` minted at admission propagates through batching,
the plan cache, the engine, and down to every simulated-device task, so a
p99 outlier in a loadgen run decomposes into queued / plan / execute /
per-task spans instead of being a number.

Pieces:

* :mod:`~repro.obs.context` / :mod:`~repro.obs.tracer` -- spans,
  deterministic ids, JSONL sink;
* :mod:`~repro.obs.recorder` -- bounded flight-recorder ring, dumped once
  per fault reason (error/reject/timeout/slo_breach);
* :mod:`~repro.obs.slo` -- the SLO config and multi-window burn-rate
  alerting over the deadline-attainment objective;
* :mod:`~repro.obs.export` -- completeness invariants, span trees, and
  the merged Perfetto export;
* :mod:`~repro.obs.top` -- the ``repro top`` live dashboard.
"""

from repro.obs.context import Span, TraceContext
from repro.obs.export import (
    CompletenessReport,
    check_completeness,
    list_traces,
    load_entries,
    merged_chrome_trace,
    render_span_tree,
)
from repro.obs.recorder import TRIGGER_REASONS, FlightRecorder
from repro.obs.slo import SLOMonitor
from repro.obs.top import render_dashboard, run_top
from repro.obs.tracer import Tracer

__all__ = [
    "Span", "TraceContext", "Tracer", "FlightRecorder", "TRIGGER_REASONS",
    "SLOMonitor", "CompletenessReport", "check_completeness", "list_traces",
    "load_entries", "merged_chrome_trace", "render_span_tree",
    "render_dashboard", "run_top",
]
