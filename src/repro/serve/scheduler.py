"""Fleet scheduling: priority classes, tenant quotas, head/EDF batching.

The single-model server batched with one policy (head-anchored coalescing)
off one FIFO queue.  A fleet needs admission *classes*: interactive traffic
wants earliest-deadline-first ordering so a late-deadline straggler never
delays a tight one, while bulk traffic is happy with arrival order and a
longer coalescing window.  This module provides:

* :class:`PriorityClass` -- a named admission class with a rank (lower is
  served first), a batching mode (``head`` or ``edf``) and optional
  per-class wait/timeout overrides;
* :class:`AdmissionQueue` -- one bounded queue with a buffer per class:
  FIFO deques for head-anchored classes, ``(deadline, seq)`` heaps for EDF
  classes, all sharing a single depth bound so backpressure stays global;
* :class:`FleetBatcher` -- forms model-homogeneous batches from the
  highest-rank non-empty class, coalescing inside the head request's wait
  window (Clipper-style: greedy up to ``max_batch``, never holding the head
  longer than its class's ``max_wait_s`` or its own deadline) -- and
  *preempts* a lower class's coalescing window when higher-rank work
  arrives mid-wait.  :func:`batch_bucket` then rounds batch sizes up to a
  power of two so the plan cache holds O(log max_batch) plans.

EDF invariant (tested by hypothesis): within a formed batch, requests are
ordered by non-decreasing deadline, with deadline-free requests last in
arrival order.  Batch *membership* never affects result bits -- outputs
are per-request slices of an order-invariant batched execution -- so EDF
vs head-anchored only moves latency, never values.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.serve.request import InferenceRequest

__all__ = ["PriorityClass", "AdmissionQueue", "FleetBatcher",
           "batch_bucket", "edf_key"]

_BATCHING_MODES = ("head", "edf")


@dataclass(frozen=True)
class PriorityClass:
    """One admission class of the fleet scheduler."""

    name: str = "standard"
    rank: int = 0                 # lower rank = scheduled first
    batching: str = "head"        # "head" (arrival order) | "edf"
    max_wait_s: float | None = None       # coalescing window override
    default_timeout_s: float | None = None  # per-class deadline default

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("priority class needs a non-empty name")
        if self.batching not in _BATCHING_MODES:
            raise ValueError(
                f"batching must be one of {_BATCHING_MODES}, "
                f"got {self.batching!r}")
        if self.max_wait_s is not None and self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")


def edf_key(req: InferenceRequest) -> tuple[float, int]:
    """EDF ordering key: deadline first, arrival sequence as tie-break.

    Deadline-free requests sort last (``inf``) but stay FIFO among
    themselves -- they can always wait, so they never displace a deadline.
    """
    deadline = req.deadline_s if req.deadline_s is not None else math.inf
    return (deadline, req.request_id)


class AdmissionQueue:
    """Bounded multi-class admission queue with one buffer per class.

    The *depth* bound is shared across classes: total queued requests never
    exceed it, so saturation policy engages fleet-wide (a flood of bulk
    traffic saturates admission for everyone -- that is what the per-tenant
    quotas upstream are for).
    """

    def __init__(self, classes: Sequence[PriorityClass],
                 depth: int = 64) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        if not classes:
            raise ValueError("admission queue needs at least one class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        self.depth = depth
        # Scheduling order: rank, then declaration order for equal ranks.
        self.classes: tuple[PriorityClass, ...] = tuple(
            sorted(classes, key=lambda c: (c.rank, names.index(c.name))))
        self._heads: dict[str, deque[InferenceRequest]] = {}
        self._heaps: dict[str, list[tuple[tuple[float, int], InferenceRequest]]] = {}
        for cls in self.classes:
            if cls.batching == "edf":
                self._heaps[cls.name] = []
            else:
                self._heads[cls.name] = deque()
        self._size = 0
        self._arrival = asyncio.Event()

    # -- introspection ------------------------------------------------------
    def qsize(self) -> int:
        return self._size

    def empty(self) -> bool:
        return self._size == 0

    def class_size(self, name: str) -> int:
        if name in self._heads:
            return len(self._heads[name])
        return len(self._heaps[name])

    def top_class(self) -> PriorityClass | None:
        """Highest-rank class with queued work, or ``None`` when empty."""
        for cls in self.classes:
            if self.class_size(cls.name):
                return cls
        return None

    # -- producer side ------------------------------------------------------
    def put_nowait(self, req: InferenceRequest, class_name: str) -> None:
        if class_name not in self._heads and class_name not in self._heaps:
            raise KeyError(f"unknown priority class {class_name!r}")
        if self._size >= self.depth:
            raise asyncio.QueueFull
        if class_name in self._heads:
            self._heads[class_name].append(req)
        else:
            heapq.heappush(self._heaps[class_name], (edf_key(req), req))
        self._size += 1
        self._arrival.set()

    # -- consumer side ------------------------------------------------------
    def pop(self, class_name: str,
            model: str | None = None) -> InferenceRequest | None:
        """Pop the next request of one class, optionally model-filtered.

        Head-anchored classes pop in arrival order; EDF classes pop the
        earliest deadline.  With ``model`` set, other models' requests stay
        queued in place (batches are model-homogeneous; a mixed stream
        forms alternating batches instead of padding across models).
        """
        if class_name in self._heads:
            buf = self._heads[class_name]
            if not buf:
                return None
            if model is None:
                req = buf.popleft()
            else:
                req = next((r for r in buf if r.model == model), None)
                if req is None:
                    return None
                buf.remove(req)
        else:
            heap = self._heaps[class_name]
            if not heap:
                return None
            if model is None:
                _, req = heapq.heappop(heap)
            else:
                index = min((i for i, (_, r) in enumerate(heap)
                             if r.model == model),
                            key=lambda i: heap[i][0], default=None)
                if index is None:
                    return None
                _, req = heap[index]
                heap[index] = heap[-1]
                heap.pop()
                if index < len(heap):
                    heapq.heapify(heap)
        self._size -= 1
        return req

    async def wait_nonempty(self) -> None:
        while self.empty():
            self._arrival.clear()
            await self._arrival.wait()

    async def wait_arrival(self, timeout_s: float) -> bool:
        """Block up to ``timeout_s`` for a *new* admission; True if one came.

        Always clears-then-waits, even when other classes hold queued work:
        the caller just failed to pop from its own buffer, and treating
        stale occupancy as an arrival would spin without advancing time
        (fatal under a virtual-time loop).  Single-threaded asyncio makes
        the clear race-free: nothing can enqueue between the caller's
        failed pop and the ``clear()`` without an ``await`` in between.
        """
        self._arrival.clear()
        try:
            await asyncio.wait_for(self._arrival.wait(), timeout=timeout_s)
            return True
        except asyncio.TimeoutError:
            return False


def batch_bucket(n: int, max_batch: int) -> int:
    """Smallest power of two >= ``n``, capped at ``max_batch``."""
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    bucket = 1
    while bucket < n:
        bucket *= 2
    return min(bucket, max(max_batch, n))


class FleetBatcher:
    """Form class-aware, model-homogeneous batches off an admission queue.

    The wait window anchors at the head request (its class's ``max_wait_s``
    and its own deadline govern the flush), so a steady trickle cannot
    starve the first arrival.  EDF classes pick heads and coalesce in
    deadline order instead of arrival order.  When a strictly higher-rank
    class gets work while a lower class is still coalescing, the
    window flushes early so the urgent class reaches a device next --
    ``on_preempt`` observes every such cut.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        max_batch: int = 8,
        max_wait_s: float = 0.01,
        on_preempt: Callable[[PriorityClass, PriorityClass, int], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.queue = queue
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.on_preempt = on_preempt

    def _flush_at(self, now_s: float, cls: PriorityClass,
                  head: InferenceRequest) -> float:
        wait = cls.max_wait_s if cls.max_wait_s is not None else self.max_wait_s
        flush_at = now_s + wait
        if head.deadline_s is not None:
            flush_at = min(flush_at, head.deadline_s)
        return flush_at

    async def next_batch(self) -> tuple[PriorityClass, list[InferenceRequest]]:
        """Block for the next ``(class, batch)`` in scheduling order."""
        loop = asyncio.get_running_loop()
        while True:
            await self.queue.wait_nonempty()
            cls = self.queue.top_class()
            if cls is None:  # lost a race with another consumer
                continue
            head = self.queue.pop(cls.name)
            if head is not None:
                break
        batch = [head]
        flush_at = self._flush_at(loop.time(), cls, head)
        while len(batch) < self.max_batch:
            req = self.queue.pop(cls.name, model=head.model)
            if req is not None:
                batch.append(req)
                continue
            remaining = flush_at - loop.time()
            if remaining <= 0:
                break
            arrived = await self.queue.wait_arrival(remaining)
            if not arrived:
                break
            top = self.queue.top_class()
            if top is not None and top.rank < cls.rank:
                # Urgent work arrived mid-window: stop coalescing and ship
                # what we have so the higher class is next off the queue.
                if self.on_preempt is not None:
                    self.on_preempt(cls, top, len(batch))
                break
        if cls.batching == "edf":
            batch.sort(key=edf_key)
        formed_at = loop.time()
        for req in batch:
            req.batched_s = formed_at
        return cls, batch
