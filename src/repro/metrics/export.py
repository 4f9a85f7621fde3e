"""Registry exporters: Prometheus textfile, CSV, and Perfetto counter tracks.

One registry, three sinks:

* :func:`prometheus_textfile` -- the node-exporter textfile-collector
  format, so a directory of benchmark runs can be scraped straight into a
  dashboard.  Metric names get a ``repro_`` prefix; histograms emit
  ``_bucket``/``_sum``/``_count`` series with cumulative ``le`` labels.
* :func:`metrics_csv` -- flat one-row-per-series CSV with the canonical
  label hierarchy as leading columns, for spreadsheet-grade analysis.
* :class:`CounterTrackSampler` -- a device observer that samples cumulative
  cache/atomic levels at every task completion; its tracks layer extra
  Perfetto counter ("C") rows onto the PR-1 Chrome trace via
  :func:`repro.profiling.export.chrome_trace`'s ``counter_tracks`` hook.
"""

from __future__ import annotations

import csv
import io
import pathlib
import re
from typing import TYPE_CHECKING

from repro.metrics.registry import LABEL_HIERARCHY, MetricsRegistry
from repro.profiling.observer import DeviceObserver

if TYPE_CHECKING:  # pragma: no cover - types only (gpusim imports repro.metrics)
    from repro.gpusim.device import Device, RunMetrics
    from repro.gpusim.trace import Task

__all__ = ["prometheus_textfile", "write_prometheus_textfile",
           "metrics_csv", "write_metrics_csv", "CounterTrackSampler"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_KINDS = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""

    def order(k: str) -> tuple:
        return (LABEL_HIERARCHY.index(k) if k in LABEL_HIERARCHY
                else len(LABEL_HIERARCHY), k)

    body = ",".join(f'{_NAME_RE.sub("_", k)}="{_escape(merged[k])}"'
                    for k in sorted(merged, key=order))
    return "{" + body + "}"


def prometheus_textfile(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus exposition (textfile) format."""
    lines: list[str] = []
    typed: set[str] = set()
    for s in registry.samples():
        pname = _prom_name(s.name)
        if pname not in typed:
            lines.append(f"# TYPE {pname} {_PROM_KINDS.get(s.kind, 'untyped')}")
            typed.add(pname)
        labels = s.label_dict()
        if s.histogram is not None:
            cum = 0
            for edge, count in zip(s.histogram["buckets"], s.histogram["counts"]):
                cum += count
                lines.append(f'{pname}_bucket{_prom_labels(labels, {"le": f"{edge:g}"})} {cum}')
            cum += s.histogram["counts"][-1]
            lines.append(f'{pname}_bucket{_prom_labels(labels, {"le": "+Inf"})} {cum}')
            lines.append(f"{pname}_sum{_prom_labels(labels)} {s.histogram['sum']:g}")
            lines.append(f"{pname}_count{_prom_labels(labels)} {s.histogram['count']}")
        else:
            lines.append(f"{pname}{_prom_labels(labels)} {s.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_textfile(registry: MetricsRegistry,
                              path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(prometheus_textfile(registry))
    return path


def metrics_csv(registry: MetricsRegistry) -> str:
    """One row per series: hierarchy labels, extra labels, kind, value."""
    extra_keys = sorted({k for s in registry.samples()
                         for k in s.label_dict() if k not in LABEL_HIERARCHY})
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "kind", *LABEL_HIERARCHY, *extra_keys, "value"])
    for s in registry.samples():
        labels = s.label_dict()
        writer.writerow([
            s.name, s.kind,
            *(labels.get(k, "") for k in LABEL_HIERARCHY),
            *(labels.get(k, "") for k in extra_keys),
            f"{s.value:g}",
        ])
    return buf.getvalue()


def write_metrics_csv(registry: MetricsRegistry,
                      path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(metrics_csv(registry))
    return path


class CounterTrackSampler(DeviceObserver):
    """Device observer that samples cumulative cache/atomic levels over time.

    At every task completion (and at finish) it records the current level of
    each tracked quantity, deduplicating unchanged samples.  ``tracks`` maps
    a display name to ``[(time_s, value), ...]`` -- exactly the shape
    :func:`repro.profiling.export.chrome_trace` accepts as extra counter
    tracks, giving the Perfetto timeline cache-behavior context the per-task
    "X" events cannot show (hit/miss byte levels, dirty write-back debt).
    """

    def __init__(self) -> None:
        self.tracks: dict[str, list[tuple[float, float]]] = {}

    def _sample(self, device: "Device", time_s: float) -> None:
        stats = device.memory.stats()
        levels = {
            "L1 hit bytes": stats["l1"]["hit_bytes"],
            "L2 hit bytes": stats["l2"]["hit_bytes"],
            "L2 miss bytes": stats["l2"]["miss_bytes"],
            "L2 evicted dirty bytes": stats["l2"]["evicted_dirty_bytes"],
            "atomics (cum)": device.atomics.compulsory + device.atomics.conflict,
        }
        for name, value in levels.items():
            track = self.tracks.setdefault(name, [])
            if not track or track[-1][1] != value:
                track.append((time_s, float(value)))

    def on_scope_end(self, device: "Device", subgraph_index, strategy) -> None:
        self._sample(device, device.now_s)

    def on_task_submit(self, device: "Device", task: "Task", delta) -> None:
        self._sample(device, task.end_s or device.now_s)

    def on_sync(self, device: "Device", time_s: float) -> None:
        self._sample(device, time_s)

    def on_finish(self, device: "Device", metrics: "RunMetrics") -> None:
        self._sample(device, device.now_s)
