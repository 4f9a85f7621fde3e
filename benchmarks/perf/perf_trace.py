"""Per-layer attribution from outside the program.

``Recorder.install`` replaces the public functions named in ``TARGETS`` with
timing wrappers (every alias a ``from x import f`` left in a loaded module
is replaced too) and ``uninstall`` puts the originals back.  Each call
becomes a span ``[name, start, end, parent, op]`` kept in memory, one list
per thread, so the worker threads of the wall-clock server do not share a
stack.  Self time is a span's duration minus its child spans; a layer's
inclusive time counts only spans with no ancestor of the same layer
(``process_batch`` calls ``process``, fused kernels recurse).
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name).  Span names are layer names; the
# metric names built from them are in ``layer_metrics``.
TARGETS = (
    ("repro.models.zoo", "build", "models.build"),
    ("repro.rewrite.runner", "RuleRunner.run", "rewrite.run"),
    ("repro.core.engine", "BrickDLEngine.compile", "core.plan"),
    ("repro.core.engine", "BrickDLEngine.run", "core.engine"),
    ("repro.analysis.graph_lint", "lint_graph", "analysis.lint_verify"),
    ("repro.analysis.plan_verify", "verify_plan", "analysis.lint_verify"),
    ("repro.analysis.effects", "analyze_effects", "analysis.effects"),
    ("repro.core.padded", "PaddedBrickExecutor.run", "core.padded"),
    ("repro.core.memoized", "MemoizedBrickExecutor.run", "core.memoized"),
    ("repro.baselines.tiled", "run_group_tiled", "core.fallback"),
    ("repro.baselines.tiled", "run_group_global", "core.fallback"),
    ("repro.gpusim.device", "Device.submit", "gpusim.submit"),
    ("repro.gpusim.device", "Device.finish", "gpusim.finish"),
    ("repro.gpusim.memory", "MemorySystem.process_batch", "gpusim.memory"),
    ("repro.gpusim.memory", "MemorySystem.process", "gpusim.memory"),
    ("repro.profiling.collector", "TraceCollector.on_alloc", "profiling.collector"),
    ("repro.profiling.collector", "TraceCollector.on_discard", "profiling.collector"),
    ("repro.profiling.collector", "TraceCollector.on_scope_begin", "profiling.collector"),
    ("repro.profiling.collector", "TraceCollector.on_scope_end", "profiling.collector"),
    ("repro.profiling.collector", "TraceCollector.on_task_submit", "profiling.collector"),
    ("repro.profiling.collector", "TraceCollector.on_sync", "profiling.collector"),
    ("repro.profiling.collector", "TraceCollector.on_finish", "profiling.collector"),
    ("repro.profiling.collector", "TraceCollector.per_subgraph", "profiling.collector"),
    ("repro.metrics.manifest", "manifest_from_result", "metrics.manifest"),
    ("repro.metrics.manifest", "RunManifest.to_json", "metrics.manifest"),
    ("repro.kernels.dispatch", "apply_node_local", "kernels.apply"),
    ("repro.kernels.dispatch", "apply_node_full", "kernels.apply"),
    ("repro.serve.plancache", "PlanCache.get_or_compile", "serve.plancache"),
    ("repro.obs.slo", "SLOMonitor.observe", "obs.slo_observe"),
)

# Metric name -> (span name, "self" | "total").
_TIMED = {
    "models.build_s": ("models.build", "total"),
    "rewrite.run_s": ("rewrite.run", "total"),
    "core.plan_s": ("core.plan", "total"),
    "analysis.lint_verify_s": ("analysis.lint_verify", "total"),
    "analysis.effects_s": ("analysis.effects", "total"),
    "core.padded.self_s": ("core.padded", "self"),
    "core.memoized.self_s": ("core.memoized", "self"),
    "core.fallback.self_s": ("core.fallback", "self"),
    "core.engine.self_s": ("core.engine", "self"),
    "gpusim.submit.self_s": ("gpusim.submit", "self"),
    "gpusim.memory_s": ("gpusim.memory", "total"),
    "gpusim.finish_s": ("gpusim.finish", "total"),
    "profiling.collector_s": ("profiling.collector", "total"),
    "metrics.manifest_s": ("metrics.manifest", "total"),
    "kernels.apply_s": ("kernels.apply", "total"),
}

_NAME, _START, _END, _PARENT, _OP = range(5)


class Recorder:
    """Span store plus the patching that feeds it."""

    def __init__(self) -> None:
        # Identifier stamped on spans: the workload sets it to the config or
        # model it is running; calls the server makes on its own get a
        # per-batch identifier from the ``core.engine`` wrapper.
        self.op: str | None = None
        self._local = threading.local()
        self._threads: list[tuple[str, list]] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._batches = 0
        self._aggregate: dict[str, dict] | None = None

    # -- recording ----------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append((threading.current_thread().name, state[0]))
        return state

    def _wrap(self, fn, name: str):
        server_batches = name == "core.engine"

        def wrapper(*args, **kwargs):
            spans, stack = self._state()
            op = self.op
            if op is None:
                if stack:
                    op = spans[stack[-1]][_OP]
                elif server_batches:
                    with self._lock:
                        self._batches += 1
                        op = f"batch-{self._batches}"
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, op]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name)
            if parents:
                self._replace(owner, attr, original, wrapper)
                continue
            # A module-level function: replace every alias other loaded
            # modules hold, or callers that imported it by name bypass us.
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------
    def span_count(self) -> int:
        return sum(len(spans) for _, spans in self._threads)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: ``total`` (inclusive, outermost spans of that name
        only), ``self`` (minus child spans), ``calls`` (outermost) and
        ``durations`` of the outermost spans.  Computed once, after the
        wrappers are gone."""
        if self._aggregate is not None:
            return self._aggregate
        out: dict[str, dict] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0, "durations": []})
        for _, spans in self._threads:
            child_time = [0.0] * len(spans)
            for rec in spans:
                if rec[_PARENT] >= 0:
                    child_time[rec[_PARENT]] += rec[_END] - rec[_START]
            for i, rec in enumerate(spans):
                dur = rec[_END] - rec[_START]
                agg = out[rec[_NAME]]
                agg["self"] += dur - child_time[i]
                parent = rec[_PARENT]
                while parent >= 0 and spans[parent][_NAME] != rec[_NAME]:
                    parent = spans[parent][_PARENT]
                if parent < 0:
                    agg["total"] += dur
                    agg["calls"] += 1
                    agg["durations"].append(dur)
        if not self._patched:
            self._aggregate = out
        return out

    def server_engine_seconds(self) -> float:
        """Inclusive time of ``BrickDLEngine.run`` calls the server made
        (those the wrapper labelled as batches)."""
        return sum(rec[_END] - rec[_START]
                   for _, spans in self._threads for rec in spans
                   if rec[_NAME] == "core.engine"
                   and str(rec[_OP]).startswith("batch-"))

    def layer_metrics(self) -> dict[str, float]:
        """Every timed per-layer metric; a layer that never ran reads 0."""
        agg = self.aggregate()
        metrics = {metric: agg[span][kind] if span in agg else 0.0
                   for metric, (span, kind) in _TIMED.items()}
        metrics["kernels.calls"] = float(agg["kernels.apply"]["calls"]
                                         if "kernels.apply" in agg else 0)
        metrics["serve.execute_s"] = self.server_engine_seconds()
        return metrics

    def write(self, path) -> None:
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "threads": [{"thread": thread, "spans": spans}
                        for thread, spans in self._threads],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
