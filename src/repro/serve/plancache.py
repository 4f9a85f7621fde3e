"""Persistent compiled-plan cache: per-model partitions with LRU eviction.

Compilation (partitioning + the brick-size and strategy models) is the
expensive, batch-dependent step of a BrickDL execution: batch size scales
every activation volume, which moves the L2-footprint partitioning and
therefore the whole plan.  The serving layer compiles once per *batch
bucket* and reuses the plan for every batch that lands in the bucket.

A fleet holds many models, and one model's compile storm must not evict
another's hot plans -- so the cache is *partitioned by model*: each
partition is its own LRU of the same capacity, and eviction never
crosses a partition boundary.  The registry is the one tally: every hit,
miss and eviction bumps an aggregate series (the single-model manifest
shape) and the same series per partition, under a ``partition`` label.

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
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.metrics.manifest import spec_dict

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.engine import BrickDLEngine
    from repro.core.plan import ExecutionPlan, Strategy
    from repro.gpusim.spec import GPUSpec
    from repro.metrics.registry import MetricsRegistry
    from repro.obs.tracer import TaskSpans

__all__ = ["PlanKey", "CompiledEntry", "PlanCache"]


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
    uses: int = 0
    # Wall-clock seconds the compile took (0.0 until measured); surfaced in
    # manifests and the per-stage breakdown, never diffed (wall time).
    compile_s: float = 0.0
    # What a simulated execution of the plan counted (None until one ran):
    # a pure function of the plan, so later executions that need
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
class PlanCache:
    """Partitioned LRU cache of :class:`CompiledEntry`, worker-thread safe.

    ``capacity`` is the *per-partition* size every model gets; eviction is
    strictly intra-partition, so model A filling its partition can never
    push model B's plans out.

    ``registry`` holds the only tallies: the aggregate ``serve_plan_cache_
    {hits,misses,evictions}`` counters and ``serve_plan_cache_size`` gauge,
    plus the same per partition under ``serve_plan_cache_partition_*``
    with a ``partition`` label.  ``timer`` measures compile seconds
    (injectable: virtual-time servers pin it so manifests stay
    bit-deterministic).
    """

    registry: "MetricsRegistry"
    capacity: int = 16
    timer: Callable[[], float] = time.perf_counter
    # One LRU per model, created on first touch.
    _partitions: "defaultdict[str, OrderedDict[str, CompiledEntry]]" = field(
        default_factory=lambda: defaultdict(OrderedDict))
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _compile_locks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {self.capacity}")

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions.values())

    def partition_stats(self) -> dict[str, dict]:
        """Each model's LRU size and tallies, read off the registry with
        ``total`` (a read that creates no series)."""
        out = {}
        with self._lock:
            for model, entries in sorted(self._partitions.items()):
                hits, misses, evictions = (
                    int(self.registry.total(f"serve_plan_cache_partition_{event}",
                                            partition=model))
                    for event in ("hits", "misses", "evictions"))
                out[model] = {
                    "capacity": self.capacity, "size": len(entries),
                    "hits": hits, "misses": misses, "evictions": evictions,
                    "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                }
        return out

    # -- lookup / insert ----------------------------------------------------
    def get(self, key: PlanKey) -> CompiledEntry | None:
        digest = key.digest()
        with self._lock:
            part = self._partitions[key.model]
            entry = part.get(digest)
            if entry is None:
                self._count("misses", key.model)
                return None
            part.move_to_end(digest)
            entry.uses += 1
            self._count("hits", key.model)
            return entry

    def put(self, entry: CompiledEntry) -> None:
        digest = entry.key.digest()
        with self._lock:
            part = self._partitions[entry.key.model]
            part[digest] = entry
            part.move_to_end(digest)
            while len(part) > self.capacity:
                part.popitem(last=False)
                self._count("evictions", entry.key.model)
            self.registry.gauge("serve_plan_cache_size").set(len(self))

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
            self.registry.counter("serve_plan_compile_s").inc(entry.compile_s)
            self.put(entry)
            return entry, False

    def snapshot(self) -> list[dict]:
        """Per-entry descriptions, partition then LRU-oldest first."""
        with self._lock:
            return [e.describe()
                    for _, part in sorted(self._partitions.items())
                    for e in part.values()]

    def _count(self, event: str, model: str) -> None:
        """One hit, miss or eviction: the aggregate and the partition series."""
        self.registry.counter(f"serve_plan_cache_{event}").inc()
        self.registry.counter(f"serve_plan_cache_partition_{event}",
                              partition=model).inc()
