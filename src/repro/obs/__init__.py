"""Request-scoped observability for the serving layer.

``repro.obs`` connects a serve request to the device work it caused:
admission opens a root span per request, the batch, plan and execute
spans parent onto it, and the tracer parents every simulated-device task
of the batch on its execute span, so a p99 outlier in a loadgen run
decomposes into queued / plan / execute / per-task spans instead of being
a number.  Trace ids stay in the serve layer; the device never sees them.

Pieces:

* :mod:`~repro.obs.context` / :mod:`~repro.obs.tracer` -- spans,
  deterministic ids, the entry log and its JSONL sink, and flight dumps
  (the log's tail, frozen once per fault reason:
  error/reject/timeout/slo_breach);
* :mod:`~repro.obs.slo` -- the SLO config and multi-window burn-rate
  alerting over the deadline-attainment objective;
* :mod:`~repro.obs.export` -- completeness invariants, span trees, and
  the merged Perfetto export;
* :mod:`~repro.obs.top` -- the ``repro top`` live dashboard.
"""

from repro.obs.context import Span
from repro.obs.export import (
    CompletenessReport,
    check_completeness,
    list_traces,
    load_entries,
    merged_chrome_trace,
    render_span_tree,
)
from repro.obs.slo import SLOMonitor
from repro.obs.top import render_dashboard, run_top
from repro.obs.tracer import Tracer

__all__ = [
    "Span", "Tracer", "SLOMonitor", "CompletenessReport", "check_completeness",
    "list_traces", "load_entries", "merged_chrome_trace", "render_span_tree",
    "render_dashboard", "run_top",
]
