"""Hierarchical metrics registry: counters, gauges, histograms.

The observability backbone: every instrumented component (the device, the
four executors, the cache model, the interconnect) records into one
:class:`MetricsRegistry` under hierarchical labels

    ``(model, strategy, brick, subgraph, node)``

so the same registry can answer "how many DRAM transactions total?", "how
many in subgraph 3?", and "how many did node 17 produce under the memoized
strategy?" -- the Nsight-style drill-down the paper's evaluation reads off
real hardware (section 4).

Design notes
------------
* Metrics are identified by ``(name, labels)``.  Labels are free-form
  string pairs; the canonical hierarchy above is a convention, not a
  constraint -- series keys sort the other labels for stable output.
* Default labels are supplied by nested :meth:`MetricsRegistry.label_scope`
  contexts (the device pushes one per plan subgraph), so instrumentation
  sites only name what they locally know (e.g. ``node=...``).
* Handles returned by :meth:`counter` / :meth:`gauge` / :meth:`histogram`
  are plain mutable cells, safe to cache on hot paths: the simulated device
  resolves its per-task counter set once per ``(scope, node)`` and then
  only does attribute increments.
* :meth:`as_dict` / :meth:`from_dict` give a versioned, JSON-stable dump --
  the "full metric dump" a :class:`~repro.metrics.manifest.RunManifest`
  embeds and the regression differ compares.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "Sample", "MetricsRegistry",
           "LABEL_HIERARCHY"]

# Canonical label hierarchy, coarse to fine (series keys order labels this way).
LABEL_HIERARCHY = ("model", "strategy", "brick", "subgraph", "node")

_KIND_COUNTER = "counter"
_KIND_GAUGE = "gauge"
_KIND_HISTOGRAM = "histogram"

# Power-of-four byte/size buckets: wide dynamic range, few buckets.
DEFAULT_BUCKETS = tuple(float(4 ** i) for i in range(1, 16))

# Latency buckets in seconds: ~sqrt(2)-spaced from 0.25 ms to 2 min, fine
# enough that interpolated p50/p99 are meaningful for serving workloads.
LATENCY_BUCKETS_S = tuple(0.00025 * 2 ** (i / 2) for i in range(38))

# Batch-size buckets: exact small sizes (dynamic batching buckets are powers
# of two, so each bucket boundary is a real batch size).
BATCH_BUCKETS = tuple(float(2 ** i) for i in range(9))


class Counter:
    """A monotonically increasing value (transactions, bytes, retries)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time level (live bytes, residency, final totals)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """A distribution over fixed buckets (e.g. message sizes).

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot is
    the overflow bucket.  ``sum``/``count`` give the mean.

    ``exemplars`` (Prometheus-style) optionally link buckets back to trace
    ids: ``observe(v, exemplar=trace_id)`` remembers the last exemplar per
    bucket, so a latency bucket in a dump answers "show me one request
    that landed here".  Untraced observations leave the dict empty and the
    serialized form unchanged.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "exemplars",
                 "minimum", "maximum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.exemplars: dict[int, dict] = {}
        # Observed extremes: tighten quantile estimates on low-count
        # windows (p99 of 3 samples should never exceed the sample max) and
        # give the overflow bucket a real value instead of the top edge.
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float, exemplar: str | None = None) -> None:
        self.sum += value
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        if exemplar is not None:
            self.exemplars[index] = {"trace_id": exemplar, "value": value}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) by linear interpolation within
        the bucket containing the target rank.

        Resolution is bucket-bounded: pick buckets sized for the quantity
        (e.g. :data:`LATENCY_BUCKETS_S` for serving latencies).  Estimates
        are clamped into the observed ``[minimum, maximum]`` range, which
        pins the degenerate cases exactly: an empty histogram reports 0.0,
        a single distinct value reports itself at every ``q``, a p99 over a
        three-sample window never exceeds the largest sample, and mass in
        the overflow bucket reports the true maximum rather than the top
        finite edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        if self.minimum == self.maximum:   # single distinct value
            return self.minimum
        target = q * self.count
        cum = 0.0
        lo = 0.0
        estimate: float | None = None
        for edge, n in zip(self.buckets, self.counts):
            if n and cum + n >= target:
                estimate = lo + (target - cum) / n * (edge - lo)
                break
            cum += n
            lo = edge
        if estimate is None:   # target rank lands in the overflow bucket
            estimate = self.maximum if self.maximum is not None \
                else self.buckets[-1]
        if self.minimum is not None:
            estimate = max(estimate, self.minimum)
        if self.maximum is not None:
            estimate = min(estimate, self.maximum)
        return estimate

    def merge_doc(self, doc: Mapping) -> None:
        """Fold a serialized histogram (the :meth:`MetricsRegistry.samples`
        ``histogram`` dict) into this one.  Bucket layouts must match."""
        counts = doc.get("counts")
        if counts:
            if len(counts) != len(self.counts):
                raise ValueError(
                    f"bucket mismatch: {len(counts)} counts vs "
                    f"{len(self.counts)}")
            self.counts = [a + b for a, b in zip(self.counts, counts)]
        self.sum += float(doc.get("sum", 0.0))
        self.count += int(doc.get("count", 0))
        dmin, dmax = doc.get("min"), doc.get("max")
        if dmin is not None:
            self.minimum = dmin if self.minimum is None else min(self.minimum, dmin)
        if dmax is not None:
            self.maximum = dmax if self.maximum is None else max(self.maximum, dmax)


@dataclass(frozen=True)
class Sample:
    """One collected metric: name, kind, labels, and its value(s)."""

    name: str
    kind: str
    labels: tuple[tuple[str, str], ...]
    value: float
    histogram: dict | None = None

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form: hierarchy keys first, then the rest sorted.
    Consumes ``labels``, the fresh all-string dict ``current_labels`` built."""
    ordered = [(k, labels.pop(k)) for k in LABEL_HIERARCHY if k in labels]
    ordered.extend(sorted(labels.items()))
    return tuple(ordered)


@dataclass
class MetricsRegistry:
    """Registry of labelled counters/gauges/histograms for one run (or many:
    nothing prevents aggregating several runs into one registry -- the
    ``model`` label keeps them apart)."""

    base_labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._context: list[dict[str, str]] = []
        # Bumped whenever the label context changes, so hot paths caching
        # resolved handles (the device's per-task counter rows) can key
        # their cache on it.
        self.context_token = 0

    # -- label context -------------------------------------------------------
    def set_base(self, **labels: object) -> None:
        """Set always-applied labels (e.g. ``model=graph.name``)."""
        for k, v in labels.items():
            if v is not None:
                self.base_labels[str(k)] = str(v)
        self.context_token += 1

    @contextmanager
    def label_scope(self, **labels: object) -> Iterator[None]:
        """Push default labels for the duration of the context."""
        frame = {str(k): str(v) for k, v in labels.items() if v is not None}
        self._context.append(frame)
        self.context_token += 1
        try:
            yield
        finally:
            self._context.pop()
            self.context_token += 1

    def current_labels(self, extra: Mapping[str, object] | None = None) -> dict[str, str]:
        merged: dict[str, str] = dict(self.base_labels)
        for frame in self._context:
            merged.update(frame)
        if extra:
            for k, v in extra.items():
                if v is not None:
                    merged[str(k)] = str(v)
        return merged

    # -- metric access -------------------------------------------------------
    def _get(self, name: str, kind: str, labels: Mapping[str, object],
             factory) -> Counter | Gauge | Histogram:
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise ValueError(f"metric {name!r} already registered as {known}, not {kind}")
        key = (name, _label_key(self.current_labels(labels)))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(name, _KIND_COUNTER, labels, Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(name, _KIND_GAUGE, labels, Gauge)

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        return self._get(name, _KIND_HISTOGRAM, labels, lambda: Histogram(buckets))

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Convenience one-shot counter increment."""
        self.counter(name, **labels).inc(amount)

    # -- collection ----------------------------------------------------------
    def samples(self) -> list[Sample]:
        out = []
        for (name, labels), metric in sorted(self._metrics.items()):
            kind = self._kinds[name]
            if isinstance(metric, Histogram):
                hist_doc = {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
                # Extremes only exist once observed; empty histograms keep
                # the pre-extremes serialized shape.
                if metric.count:
                    hist_doc["min"] = metric.minimum
                    hist_doc["max"] = metric.maximum
                # Only serialized when present, so tracing-off dumps stay
                # byte-identical to pre-exemplar baselines.
                if metric.exemplars:
                    hist_doc["exemplars"] = {
                        str(i): dict(e) for i, e in sorted(metric.exemplars.items())}
                out.append(Sample(name, kind, labels, metric.sum,
                                  histogram=hist_doc))
            else:
                out.append(Sample(name, kind, labels, metric.value))
        return out

    def total(self, name: str, **match: object) -> float:
        """Aggregate a metric over every series matching the label subset.

        Counters and gauges sum their values; histograms sum their ``sum``.
        ``total("dram_txns", subgraph=0)`` rolls node-level series up to the
        subgraph -- the hierarchical query the labels exist for.
        """
        want = {str(k): str(v) for k, v in match.items() if v is not None}
        acc = 0.0
        # A snapshot: a serve worker thread may register a series (a plan
        # cache's first miss) while the loop thread reads ``stats()``.
        for (mname, labels), metric in list(self._metrics.items()):
            if mname != name:
                continue
            have = dict(labels)
            if any(have.get(k) != v for k, v in want.items()):
                continue
            acc += metric.sum if isinstance(metric, Histogram) else metric.value
        return acc

    def series(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        """All label-sets of one metric and their scalar values."""
        return {labels: (m.sum if isinstance(m, Histogram) else m.value)
                for (mname, labels), m in list(self._metrics.items())
                if mname == name}

    def names(self) -> list[str]:
        return sorted(self._kinds)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- serialization -------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-stable dump: one entry per series, sorted."""
        entries = []
        for s in self.samples():
            entry: dict = {"name": s.name, "kind": s.kind,
                           "labels": s.label_dict(), "value": s.value}
            if s.histogram is not None:
                entry["histogram"] = s.histogram
            entries.append(entry)
        return {"base_labels": dict(self.base_labels), "series": entries}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsRegistry":
        reg = cls(base_labels=dict(payload.get("base_labels", {})))
        for entry in payload.get("series", ()):
            labels = entry.get("labels", {})
            kind = entry["kind"]
            if kind == _KIND_COUNTER:
                reg.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == _KIND_GAUGE:
                reg.gauge(entry["name"], **labels).set(entry["value"])
            else:
                h = entry.get("histogram", {})
                hist = reg.histogram(entry["name"],
                                     buckets=tuple(h.get("buckets", DEFAULT_BUCKETS)),
                                     **labels)
                hist.counts = list(h.get("counts", hist.counts))
                hist.sum = float(h.get("sum", 0.0))
                hist.count = int(h.get("count", 0))
                hist.minimum = h.get("min")
                hist.maximum = h.get("max")
                hist.exemplars = {int(i): dict(e)
                                  for i, e in h.get("exemplars", {}).items()}
        return reg
