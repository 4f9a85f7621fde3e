"""Metrics & regression tracking: registry, attribution, manifests, diffing.

The observability backbone of the reproduction.  Instrumented components
(the engine, executors, simulated device, cache model, interconnect) record
into a hierarchical :class:`~repro.metrics.registry.MetricsRegistry`; the
:mod:`~repro.metrics.attribute` module classifies what each run/subgraph is
bound by via the paper's section 4 derivations; :mod:`~repro.metrics.manifest`
persists runs as versioned ``BENCH_<model>.json`` manifests; and
:mod:`~repro.metrics.diff` gates regressions against committed baselines.

Import-order note: :mod:`repro.gpusim.device` imports this package for its
registry, so nothing imported *here* may import gpusim at module scope
(submodules use ``TYPE_CHECKING``-only imports for gpusim types).
"""

from repro.metrics.attribute import (
    COMPONENTS,
    BottleneckReport,
    RooflinePoint,
    attribute_run,
    attribute_subgraphs,
)
from repro.metrics.diff import (
    DEFAULT_TOLERANCES,
    DiffReport,
    MetricDelta,
    diff_manifests,
)
from repro.metrics.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    bench_manifest_path,
    manifest_from_result,
    manifest_from_serve,
    plan_digest,
)
from repro.metrics.registry import (
    BATCH_BUCKETS,
    LABEL_HIERARCHY,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "Sample",
    "LABEL_HIERARCHY", "LATENCY_BUCKETS_S", "BATCH_BUCKETS",
    "BottleneckReport", "RooflinePoint", "COMPONENTS",
    "attribute_run", "attribute_subgraphs",
    "RunManifest", "MANIFEST_VERSION", "manifest_from_result",
    "manifest_from_serve", "bench_manifest_path", "plan_digest",
    "DiffReport", "MetricDelta", "DEFAULT_TOLERANCES", "diff_manifests",
]
