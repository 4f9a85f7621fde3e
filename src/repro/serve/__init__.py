"""Async inference serving over the simulated device fleet.

The production-shaped front half of the reproduction: a multi-class
admission queue with bounded depth, per-tenant quotas, and per-request
deadlines; a fleet batcher that coalesces compatible requests into
power-of-two batch buckets per priority class (head-anchored or
earliest-deadline-first, with higher-class preemption of coalescing
windows); a persistent compiled-plan cache partitioned per model and keyed
by ``(model, batch bucket, GPUSpec, overrides)`` with intra-partition LRU
eviction; a device pool that dispatches batches with backpressure and
graceful degradation to the cuDNN-fallback path; and an autoscaler that
grows/shrinks the simulated fleet from queue-depth and SLO burn-rate
signals.  Serve-path metrics (latency histograms with per-model /
per-tenant / per-class dimensions, queue-depth gauges, shed and scale-event
counters, cache hit ratios) flow into the existing
:class:`~repro.metrics.MetricsRegistry` and out as run manifests.

Entry points: :class:`InferenceServer` (async API), :func:`loadgen` /
:func:`run_loadgen` (traffic + report), :func:`run_scenario` /
:data:`SCENARIOS` (deterministic virtual-time scenario packs), and the
``repro serve`` / ``repro loadgen`` / ``repro scenario`` CLI subcommands.
"""

from repro.serve.autoscaler import Autoscaler, AutoscalerConfig, DevicePool, ScaleEvent
from repro.serve.loadgen import LoadgenReport, loadgen, run_loadgen
from repro.serve.plancache import CompiledEntry, PlanCache, PlanKey
from repro.serve.request import (
    InferenceRequest,
    InferenceResponse,
    QueueSaturatedError,
    ServerClosedError,
    TenantQuotaError,
)
from repro.serve.scenarios import SCENARIOS, Scenario, ScenarioReport, TenantSpec, run_scenario
from repro.serve.scheduler import AdmissionQueue, FleetBatcher, PriorityClass, batch_bucket
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.vtime import VirtualTimeLoop, run_virtual

__all__ = [
    "InferenceServer", "ServeConfig",
    "PriorityClass", "AdmissionQueue", "FleetBatcher", "batch_bucket",
    "PlanCache", "PlanKey", "CompiledEntry",
    "AutoscalerConfig", "Autoscaler", "DevicePool", "ScaleEvent",
    "InferenceRequest", "InferenceResponse",
    "QueueSaturatedError", "TenantQuotaError", "ServerClosedError",
    "LoadgenReport", "loadgen", "run_loadgen",
    "Scenario", "ScenarioReport", "TenantSpec", "SCENARIOS", "run_scenario",
    "VirtualTimeLoop", "run_virtual",
]
