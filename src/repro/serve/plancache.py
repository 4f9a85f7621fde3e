"""Persistent compiled-plan cache: per-model partitions with LRU eviction.

Compilation (partitioning + the brick-size and strategy models) is the
expensive, batch-dependent step of a BrickDL execution: batch size scales
every activation volume, which moves the L2-footprint partitioning and
therefore the whole plan.  The serving layer compiles once per *batch
bucket* and reuses the plan for every batch that lands in the bucket.

A fleet holds many models, and one model's compile storm must not evict
another's hot plans -- so the cache is *partitioned by model*: each
partition is its own LRU of the same capacity, and eviction never
crosses a partition boundary.  Aggregate ``hits``/``misses``/``evictions``
stay available for the single-model manifest shape, while per-partition
counters land in the registry under a ``partition`` label.

Cache keys digest everything that determines the compiled artifact --
``(model, batch_bucket, GPUSpec, strategy/brick override)`` -- and each
entry records the :func:`~repro.metrics.manifest.plan_digest` of its
compiled plan, so manifests and diffs can correlate a served batch with the
exact plan that ran it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.metrics.manifest import spec_dict

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.engine import BrickDLEngine
    from repro.core.plan import ExecutionPlan, Strategy
    from repro.gpusim.spec import GPUSpec
    from repro.metrics.registry import MetricsRegistry
    from repro.obs.tracer import TaskSpans

__all__ = ["PlanKey", "CompiledEntry", "CachePartition", "PlanCache"]


@dataclass(frozen=True)
class PlanKey:
    """Everything that determines a compiled plan."""

    model: str
    batch_bucket: int
    spec: "GPUSpec"
    strategy: "Strategy | None" = None
    brick: int | None = None

    def digest(self) -> str:
        doc = {
            "model": self.model,
            "batch_bucket": self.batch_bucket,
            "spec": spec_dict(self.spec),
            "strategy": self.strategy.value if self.strategy else None,
            "brick": self.brick,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CompiledEntry:
    """One cached compiled artifact: the batched engine + its plan, and what
    its first execution counted."""

    key: PlanKey
    engine: "BrickDLEngine"
    plan: "ExecutionPlan"
    plan_digest: str
    # Device spec with cache-sector granularity adapted to this plan's
    # bricks (what executions of this entry should run against).
    device_spec: "GPUSpec" = None
    uses: int = 0
    # Wall-clock seconds the compile took (0.0 until measured); surfaced in
    # manifests and the per-stage breakdown, never diffed (wall time).
    compile_s: float = 0.0
    # What a simulated execution of the plan counted (None until one ran):
    # a pure function of (plan, device_spec), so later executions that need
    # only values reuse it.  ``task_spans`` is kept on traced servers only.
    sim_time_s: float | None = None
    num_tasks: int = 0
    task_spans: "TaskSpans | None" = None

    def describe(self) -> dict:
        return {
            "key": self.key.digest(),
            "model": self.key.model,
            "batch_bucket": self.key.batch_bucket,
            "strategy": self.key.strategy.value if self.key.strategy else None,
            "brick": self.key.brick,
            "plan_digest": self.plan_digest,
            "subgraphs": len(self.plan.subgraphs),
            "uses": self.uses,
            "compile_s": round(self.compile_s, 4),
        }


@dataclass
class CachePartition:
    """One model's slice of the plan cache: an isolated LRU."""

    name: str
    capacity: int
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: "OrderedDict[str, CompiledEntry]" = field(default_factory=OrderedDict)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "size": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hits / total if total else 0.0,
        }


@dataclass
class PlanCache:
    """Partitioned LRU cache of :class:`CompiledEntry`, worker-thread safe.

    ``capacity`` is the *per-partition* size every model gets; eviction is
    strictly intra-partition, so model A filling its partition can never
    push model B's plans out.  The
    aggregate ``hits``/``misses``/``evictions`` properties sum partitions
    (the single-model shape is the one-partition special case).

    ``registry`` (optional) receives the aggregate ``serve_plan_cache_
    {hits,misses,evictions}`` counters and ``serve_plan_cache_size`` gauge,
    plus the same per-partition under ``serve_plan_cache_partition_*``
    with a ``partition`` label.  ``timer`` measures compile seconds
    (injectable: virtual-time servers pin it so manifests stay
    bit-deterministic).
    """

    capacity: int = 16
    registry: "MetricsRegistry | None" = None
    timer: Callable[[], float] = time.perf_counter
    _partitions: "OrderedDict[str, CachePartition]" = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _compile_locks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {self.capacity}")

    def __len__(self) -> int:
        return sum(len(p.entries) for p in self._partitions.values())

    # -- aggregates (the single-model manifest shape) -----------------------
    @property
    def hits(self) -> int:
        return sum(p.hits for p in self._partitions.values())

    @property
    def misses(self) -> int:
        return sum(p.misses for p in self._partitions.values())

    @property
    def evictions(self) -> int:
        return sum(p.evictions for p in self._partitions.values())

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def partition(self, model: str) -> CachePartition:
        """The model's partition, created on first touch."""
        part = self._partitions.get(model)
        if part is None:
            part = self._partitions[model] = CachePartition(model, self.capacity)
        return part

    def partition_stats(self) -> dict[str, dict]:
        with self._lock:
            return {name: p.stats()
                    for name, p in sorted(self._partitions.items())}

    # -- lookup / insert ----------------------------------------------------
    def get(self, key: PlanKey) -> CompiledEntry | None:
        digest = key.digest()
        with self._lock:
            part = self.partition(key.model)
            entry = part.entries.get(digest)
            if entry is None:
                part.misses += 1
                self._count("serve_plan_cache_misses")
                self._count("serve_plan_cache_partition_misses", part.name)
                return None
            part.entries.move_to_end(digest)
            entry.uses += 1
            part.hits += 1
            self._count("serve_plan_cache_hits")
            self._count("serve_plan_cache_partition_hits", part.name)
            return entry

    def put(self, entry: CompiledEntry) -> None:
        digest = entry.key.digest()
        with self._lock:
            part = self.partition(entry.key.model)
            part.entries[digest] = entry
            part.entries.move_to_end(digest)
            while len(part.entries) > part.capacity:
                part.entries.popitem(last=False)
                part.evictions += 1
                self._count("serve_plan_cache_evictions")
                self._count("serve_plan_cache_partition_evictions", part.name)
            self._gauge("serve_plan_cache_size", len(self))

    def get_or_compile(self, key: PlanKey,
                       compile_fn: Callable[[PlanKey], CompiledEntry]) -> tuple[CompiledEntry, bool]:
        """Return ``(entry, cache_hit)``; compiles and inserts on miss.

        Compiles are serialized per key (outside the entry lock, so other
        keys stay servable): two devices racing on a cold bucket yield one
        compile, with the loser waiting and then counting a hit -- it did
        reuse a cached plan.
        """
        digest = key.digest()
        with self._lock:
            compile_lock = self._compile_locks.setdefault(digest, threading.Lock())
        with compile_lock:
            entry = self.get(key)
            if entry is not None:
                return entry, True
            t0 = self.timer()
            entry = compile_fn(key)
            entry.compile_s = self.timer() - t0
            if self.registry is not None:
                self.registry.counter("serve_plan_compile_s").inc(entry.compile_s)
            self.put(entry)
            return entry, False

    def snapshot(self) -> list[dict]:
        """Per-entry descriptions, partition then LRU-oldest first."""
        with self._lock:
            return [e.describe()
                    for _, part in sorted(self._partitions.items())
                    for e in part.entries.values()]

    def _count(self, name: str, partition: str | None = None) -> None:
        if self.registry is not None:
            self.registry.counter(name, partition=partition).inc()

    def _gauge(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.gauge(name).set(value)
