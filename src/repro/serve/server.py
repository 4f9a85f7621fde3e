"""The asyncio inference fleet over the simulated devices.

Request lifecycle::

    submit(model=, tenant=, priority=)
             -> per-tenant admission quota (over-quota sheds by name)
             -> admission queue (bounded; one buffer per priority class:
                FIFO for head-anchored classes, (deadline, seq) heap for
                EDF classes; saturation degrades or rejects)
             -> FleetBatcher (highest-rank class first; coalesce up to
                max_batch / max_wait, model-homogeneous; higher-rank
                arrivals preempt a lower class's coalescing window)
             -> DevicePool (idle FIFO rotation; the autoscaler grows and
                shrinks the fleet from queue-depth/burn-rate signals)
             -> PlanCache partition lookup by (model, batch bucket,
                GPUSpec, override) -- one LRU per model, isolated eviction
             -> an entry's first batch, and every profile-mode batch: a
                profile-mode BrickDLEngine.run of the cached plan on its
                sector-adapted device; the entry keeps what it counted
                (simulated time, task count, and on a traced server the task
                spans' fields)
             -> a functional batch: BrickDLEngine.values (no device) for
                the outputs; the simulated time is the entry's kept one
             -> InferenceServer._finish: the one place a request ends

A request ends in one of six ways, one row of the :class:`Outcome` table
each: served from a merged batch; degraded (it arrived at a saturated
queue, policy ``degrade``) or timed out (its deadline lapsed while queued),
which both skip batching and run single-shot through the cuDNN-fallback
baseline path -- the vendor-library execution the paper falls back to for
unmergeable work (section 3.3.3), so the server sheds load by serving
*slower, cheaper* rather than dropping; rejected at a saturated queue
(policy ``reject``, :class:`~repro.serve.request.QueueSaturatedError`) or
over its tenant's in-flight quota
(:class:`~repro.serve.request.TenantQuotaError`); or failed, when the
execution raised.  The row says which series move, how the root span
closes, whether the request can count as good and what the caller gets;
``_finish`` does it, and ``stats()`` reads the series back.

Execution modes: ``thread`` (default) runs the CPU-bound simulation in a
worker thread so the event loop keeps admitting -- wall-clock serving.
``inline`` runs it synchronously on the loop and charges the simulated
duration as an ``asyncio.sleep`` -- under a
:class:`~repro.serve.vtime.VirtualTimeLoop` this makes a whole serving
session a deterministic discrete-event simulation (the scenario packs'
mode).  Serve-path metrics flow into a
:class:`~repro.metrics.MetricsRegistry` and out through
:func:`~repro.metrics.manifest_from_serve`.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.errors import ExecutionError
from repro.graph.ir import Graph
from repro.gpusim.spec import A100, GPUSpec
from repro.metrics import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    RunManifest,
    manifest_from_serve,
)
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.tracer import TaskSpans
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig, DevicePool
from repro.serve.plancache import CompiledEntry, PlanCache, PlanKey
from repro.serve.request import (
    InferenceRequest,
    InferenceResponse,
    QueueSaturatedError,
    ServerClosedError,
    TenantQuotaError,
)
from repro.serve.scheduler import (
    AdmissionQueue,
    FleetBatcher,
    PriorityClass,
    batch_bucket,
)

__all__ = ["ServeConfig", "InferenceServer"]

_EXECUTION_MODES = ("thread", "inline")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving session."""

    devices: int = 2             # simulated device fleet size (baseline)
    max_batch: int = 8           # dynamic batcher cap (and largest bucket)
    max_wait_s: float = 0.02     # batcher hold on the head request
    queue_depth: int = 64        # admission queue bound (backpressure)
    cache_capacity: int = 16     # compiled-plan LRU entries per partition
    saturation_policy: str = "degrade"   # "degrade" | "reject"
    functional: bool = True      # False: profile mode (no NumPy arithmetic)
    strategy: Strategy | None = None     # engine strategy override
    brick: int | None = None             # engine brick override
    default_timeout_s: float | None = None  # per-request deadline default
    # SLO: deadline-attainment objective for burn-rate alerting, plus an
    # optional hard latency target (a request is "good" only if it also
    # completed inside it -- the deterministic CI straggler objective).
    slo_objective: float = 0.99
    slo_latency_target_s: float | None = None
    # Fault injection: add this much event-loop delay to every batch served
    # by one device (straggler emulation; never touches simulated metrics).
    straggler_device: int | None = None
    straggler_delay_s: float = 0.0
    # -- fleet knobs --------------------------------------------------------
    # Priority classes; () means one default class using ``batching``.
    classes: tuple[PriorityClass, ...] = ()
    default_class: str | None = None     # class used when submit() omits one
    batching: str = "head"               # default class's mode: head | edf
    # Per-tenant in-flight admission quotas; tenants not named are unlimited.
    tenant_quotas: Mapping[str, int] | None = None
    # Autoscaler; None pins the fleet at ``devices``.
    autoscaler: AutoscalerConfig | None = None
    # "thread": simulate in a worker thread (wall-clock serving).
    # "inline": simulate on the loop, charge sim time as virtual sleep.
    execution: str = "thread"

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.saturation_policy not in ("degrade", "reject"):
            raise ValueError(
                f"saturation_policy must be 'degrade' or 'reject', "
                f"got {self.saturation_policy!r}")
        if self.straggler_delay_s < 0:
            raise ValueError(
                f"straggler_delay_s must be >= 0, got {self.straggler_delay_s}")
        if self.batching not in ("head", "edf"):
            raise ValueError(
                f"batching must be 'head' or 'edf', got {self.batching!r}")
        if self.execution not in _EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {_EXECUTION_MODES}, "
                f"got {self.execution!r}")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate priority class names: {names}")
        if self.default_class is not None and self.classes \
                and self.default_class not in names:
            raise ValueError(
                f"default_class {self.default_class!r} not in classes {names}")
        for tenant, quota in dict(self.tenant_quotas or {}).items():
            if quota < 1:
                raise ValueError(
                    f"tenant quota for {tenant!r} must be >= 1, got {quota}")


@dataclass(frozen=True)
class Outcome:
    """One way a request ends.  The six rows below are the whole table:
    :meth:`InferenceServer._finish` does what the row it is handed says, and
    nothing else decides what ending a request means."""

    counters: tuple[str, ...] = ()   # session-wide counters bumped
    # One more counter, labelled reason (if any) / tenant / class: what the
    # per-class and per-tenant roll-ups read for requests with no response.
    series: str | None = None
    reason: str | None = None
    status: str = "ok"   # root span; "ok" closes "deadline_missed" when late
    # Can count as good (if it also met its deadline and the latency
    # target); the other rows debit the SLO unconditionally.
    can_be_good: bool = False
    # With no response the caller gets this raised out of submit() itself,
    # or (None) the execution's exception on its future.
    raises: type[Exception] | None = None
    degraded: bool = False   # the response's path flags
    timed_out: bool = False


SERVED = Outcome(("serve_requests_completed",), can_be_good=True)
DEGRADED = Outcome(
    SERVED.counters + ("serve_requests_degraded",),
    can_be_good=True, degraded=True)
TIMED_OUT = Outcome(
    DEGRADED.counters + ("serve_requests_timed_out",),
    can_be_good=True, degraded=True, timed_out=True)
REJECTED_SATURATED = Outcome(
    ("serve_requests_rejected",), "serve_requests_shed", "saturated",
    status="rejected", raises=QueueSaturatedError)
REJECTED_QUOTA = Outcome(
    ("serve_requests_rejected",), "serve_requests_shed", "quota",
    status="rejected", raises=TenantQuotaError)
# This series only exists once something failed, so a clean session's
# manifest (and its fingerprint) carries no trace of it.
FAILED = Outcome(series="serve_requests_failed", status="error")


class InferenceServer:
    """Serve one or many model graphs from a fleet-scheduling asyncio loop."""

    def __init__(
        self,
        graph: "Graph | Sequence[Graph] | Mapping[str, Graph]",
        spec: GPUSpec = A100,
        config: ServeConfig = ServeConfig(),
        registry: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        graphs = self._normalize_graphs(graph)
        for g in graphs:
            g.validate()
            if any(n.spec.batch != 1 for n in g.input_nodes):
                raise ExecutionError(
                    f"serve graphs must be built at batch 1 ({g.name!r} is "
                    f"not); the server rebatches per bucket itself")
        self.graphs: dict[str, Graph] = {g.name: g for g in graphs}
        if len(self.graphs) != len(graphs):
            raise ExecutionError(
                f"resident models need unique names, got "
                f"{[g.name for g in graphs]}")
        self.graph = graphs[0]   # primary model (single-model back-compat)
        self.spec = spec
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.set_base(model=self.graph.name)
        # The latency-bucketed histograms _finish writes and stats() reads;
        # the per-tenant / class / model ones double as tallies (``count``
        # is that dimension's completed requests).
        self._hist = functools.partial(self.registry.histogram,
                                       buckets=LATENCY_BUCKETS_S)
        self.cache = PlanCache(
            capacity=config.cache_capacity, registry=self.registry,
            timer=(self._loop_time if config.execution == "inline"
                   else time.perf_counter))
        # Priority classes: explicit set, or one default class built from
        # the config's ``batching`` mode.
        classes = config.classes or (
            PriorityClass(name="standard", rank=0, batching=config.batching),)
        self.classes: dict[str, PriorityClass] = {c.name: c for c in classes}
        self.default_class = config.default_class or classes[0].name
        # Observability: the tracer (and its flight dumps) are optional;
        # the SLO monitor is always on -- recording one outcome per request
        # is two appends, and burn rates belong in every manifest.
        self.tracer = tracer
        self.slo = SLOMonitor(
            SLOConfig(objective=config.slo_objective,
                      latency_target_s=config.slo_latency_target_s),
            registry=self.registry, tracer=tracer)
        if config.functional:
            for g in graphs:
                g.init_weights()

        self._queue: AdmissionQueue | None = None
        self._batcher: FleetBatcher | None = None
        self._pool: DevicePool | None = None
        self._autoscaler: Autoscaler | None = None
        self._tasks: list[asyncio.Task] = []
        self._pending: set[asyncio.Future] = set()
        self._ids = itertools.count()
        self._running = False
        self._started_s = 0.0
        self._stopped_s: float | None = None

        # Good requests per class: the one number stats() reports that has
        # no registry series (a series would move every manifest
        # fingerprint).  Written only by _finish, like the series.
        self._class_good = {name: 0 for name in self.classes}
        self._tenant_inflight: dict[str, int] = {}

    @staticmethod
    def _normalize_graphs(graph) -> list[Graph]:
        if isinstance(graph, Graph):
            return [graph]
        if isinstance(graph, Mapping):
            return list(graph.values())
        graphs = list(graph)
        if not graphs:
            raise ExecutionError("server needs at least one model graph")
        return graphs

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "InferenceServer":
        if self._running:
            return self
        loop = asyncio.get_running_loop()
        self._queue = AdmissionQueue(tuple(self.classes.values()),
                                     depth=self.config.queue_depth)
        self._batcher = FleetBatcher(
            self._queue, max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
            on_preempt=self._on_preempt)
        self._pool = DevicePool(self._device_loop)
        for _ in range(self.config.devices):
            self._pool.spawn()
        self._tasks = [asyncio.create_task(self._schedule_loop(),
                                           name="serve/scheduler")]
        if self.config.autoscaler is not None:
            self._autoscaler = Autoscaler(
                self.config.autoscaler, self._pool, self._autoscale_signals,
                registry=self.registry, tracer=self.tracer)
            self._tasks.append(asyncio.create_task(
                self._autoscaler.run(), name="serve/autoscaler"))
        self._running = True
        self._started_s = loop.time()
        self._stopped_s = None
        return self

    async def close(self) -> None:
        """Graceful shutdown: serve everything admitted, then stop."""
        if not self._running:
            return
        self._running = False  # no new admissions
        if self._pending:
            await asyncio.gather(*list(self._pending), return_exceptions=True)
        tasks = self._tasks + (self._pool.tasks() if self._pool else [])
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks = []
        self._stopped_s = asyncio.get_running_loop().time()

    async def __aenter__(self) -> "InferenceServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- admission ----------------------------------------------------------
    async def submit(
        self,
        x: np.ndarray | None = None,
        timeout_s: float | None = None,
        *,
        model: str | None = None,
        tenant: str = "default",
        priority: str | None = None,
    ) -> InferenceResponse:
        """Admit one request and await its response.

        ``x`` is the input activation: the model's batch-1 input shape, with
        or without its leading 1 (any other shape raises
        :class:`~repro.errors.ExecutionError` before admission); ``None`` is
        only valid on a profile-mode server.  ``timeout_s``
        (default: the class's, then :attr:`ServeConfig.default_timeout_s`)
        sets the queueing deadline: a request still waiting past it degrades
        to the fallback path rather than riding a batch.  ``model`` selects
        a resident model (default: the primary), ``tenant`` attributes the
        request for quotas and metrics, ``priority`` names an admission
        class.
        """
        if not self._running:
            raise ServerClosedError(f"server for {self.graph.name!r} is not running")
        if self.config.functional and x is None:
            raise ExecutionError("functional server requires an input array")
        model = model if model is not None else self.graph.name
        if model not in self.graphs:
            raise ExecutionError(
                f"model {model!r} is not resident "
                f"(have {sorted(self.graphs)})")
        if x is not None:
            # One bad input must not take its batch-mates down with it.
            spec = self.graphs[model].input_nodes[0].spec
            x = np.asarray(x, dtype=np.float32)
            if x.shape not in (spec.shape, spec.shape[1:]):
                raise ExecutionError(
                    f"input of shape {x.shape} does not fit model {model!r}: "
                    f"expected {spec.shape} or {spec.shape[1:]}")
        class_name = priority if priority is not None else self.default_class
        cls = self.classes.get(class_name)
        if cls is None:
            raise ValueError(f"unknown priority class {class_name!r} "
                             f"(have {sorted(self.classes)})")
        loop = asyncio.get_running_loop()
        if timeout_s is None:
            timeout_s = (cls.default_timeout_s
                         if cls.default_timeout_s is not None
                         else self.config.default_timeout_s)
        now = loop.time()
        request_id = next(self._ids)
        root = None
        if self.tracer is not None:
            root = self.tracer.start_span(
                "request", kind="request", start_s=now,
                request_id=request_id, model=model, tenant=tenant,
                **{"class": cls.name})
        req = InferenceRequest(
            request_id=request_id,
            input=x,
            deadline_s=now + timeout_s if timeout_s is not None else None,
            enqueued_s=now,
            future=loop.create_future(),
            trace=root,
            model=model,
            tenant=tenant,
            priority=cls.name,
        )
        self._pending.add(req.future)
        req.future.add_done_callback(self._pending.discard)
        quota = self._tenant_quota(tenant)
        if quota is not None and self._tenant_inflight.get(tenant, 0) >= quota:
            self._reject(req, loop.time(), REJECTED_QUOTA)
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        req.future.add_done_callback(
            lambda _f, t=tenant: self._release_tenant(t))
        try:
            self._queue.put_nowait(req, cls.name)
        except asyncio.QueueFull:
            if self.config.saturation_policy == "reject":
                self._reject(req, loop.time(), REJECTED_SATURATED)
            # Graceful degradation: shed to the single-shot fallback path.
            self.registry.counter("serve_saturation_fallbacks").inc()
            if self.tracer is not None:
                self.tracer.event("saturated", ctx=root,
                                  request_id=req.request_id, policy="degrade",
                                  queue_depth=self.config.queue_depth)
            await self._serve_fallback(req, DEGRADED)
        else:
            self._observe_queue_depth()
        return await req.future

    def _tenant_quota(self, tenant: str) -> int | None:
        return (self.config.tenant_quotas or {}).get(tenant)

    def _release_tenant(self, tenant: str) -> None:
        left = self._tenant_inflight.get(tenant, 0) - 1
        if left > 0:
            self._tenant_inflight[tenant] = left
        else:
            self._tenant_inflight.pop(tenant, None)

    def _reject(self, req: InferenceRequest, now_s: float,
                outcome: Outcome) -> None:
        """Shed one request by name: flight dump, event, terminal, raise."""
        if outcome is REJECTED_QUOTA:
            error = TenantQuotaError(
                f"request {req.request_id}: tenant {req.tenant!r} at its "
                f"in-flight quota ({self._tenant_quota(req.tenant)}); "
                f"retry later",
                tenant=req.tenant, request_id=req.request_id,
                trace_id=req.trace_id)
        else:
            error = QueueSaturatedError(
                f"request {req.request_id}: admission queue full "
                f"({self.config.queue_depth}); retry later",
                request_id=req.request_id, trace_id=req.trace_id)
        if self.tracer is not None:
            self.tracer.dump("reject", detail=str(error),
                             trace_id=req.trace_id,
                             request_id=req.request_id, time_s=now_s)
            self.tracer.event("reject", ctx=req.trace,
                              request_id=req.request_id, reason=outcome.reason,
                              queue_depth=self.config.queue_depth)
        self._finish(req, outcome, now_s, error=error)
        raise error from None

    def _observe_queue_depth(self) -> None:
        depth = self._queue.qsize() if self._queue is not None else 0
        self.registry.gauge("serve_queue_depth").set(depth)
        self.registry.histogram("serve_queue_depth_hist",
                                buckets=BATCH_BUCKETS).observe(depth)

    # -- scheduling ---------------------------------------------------------
    async def _schedule_loop(self) -> None:
        """Dispatch formed batches to idle devices.

        ``await acquire()`` on the pool is the backpressure: batch
        formation stalls while every device is busy, which in turn lets the
        admission queue fill and the saturation policy engage.
        """
        while True:
            _cls, batch = await self._batcher.next_batch()
            index = await self._pool.acquire()
            self._pool.dispatch(index, batch)

    def _on_preempt(self, cls: PriorityClass, by: PriorityClass,
                    batch_size: int) -> None:
        self.registry.counter("serve_preemptions",
                              **{"class": cls.name}).inc()
        if self.tracer is not None:
            now = self._loop_time()
            self.tracer.record_span(
                "preempt", parent=None, kind="preempt", start_s=now,
                end_s=now, preempted=cls.name, by=by.name,
                batch_size=batch_size)

    def _autoscale_signals(self) -> tuple[int, float]:
        depth = self._queue.qsize() if self._queue is not None else 0
        window = self.config.autoscaler.burn_window_s
        burn = self.slo.burn(window, self._loop_time())
        return depth, burn

    async def _device_loop(self, index: int, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await queue.get()
            if batch is None:   # retirement sentinel from the pool
                break
            self._observe_queue_depth()
            # Timeout -> fallback degradation: requests whose deadline
            # lapsed while queued leave the batch and run single-shot.
            now = loop.time()
            expired = [r for r in batch if r.expired(now)]
            live = [r for r in batch if not r.expired(now)]
            for req in expired:
                if self.tracer is not None:
                    self.tracer.event(
                        "timeout", ctx=req.trace, request_id=req.request_id,
                        queued_s=round(now - req.enqueued_s, 6), device=index)
                    self.tracer.dump(
                        "timeout",
                        detail=(f"request {req.request_id}: deadline lapsed "
                                f"after {now - req.enqueued_s:.4f}s queued"),
                        trace_id=req.trace_id,
                        request_id=req.request_id, time_s=now)
                await self._serve_fallback(req, TIMED_OUT, device=index)
            if live:
                await self._serve_batch(live, index)
            self._pool.release(index)

    # -- execution ----------------------------------------------------------
    async def _run_execute(self, batch: list[InferenceRequest], bucket: int,
                           strategy: Strategy | None, span, device: int):
        """Execute with the configured mode: worker thread (wall-clock) or
        inline with simulated time charged as (virtual) loop sleep.

        An execution that raises ends every member of ``batch`` as FAILED
        and returns ``None``: resolve, never wedge the worker.
        """
        try:
            if self.config.execution == "thread":
                return await asyncio.to_thread(
                    self._execute, batch, bucket, strategy, span, device)
            result = self._execute(batch, bucket, strategy, span, device)
            if result[3] > 0:
                await asyncio.sleep(result[3])
            return result
        except Exception as exc:
            now = self._loop_time()
            head = batch[0]
            request_ids = [r.request_id for r in batch]
            if self.tracer is not None:
                self.tracer.event(
                    "error", ctx=span if span is not None else head.trace,
                    error=repr(exc), device=device, request_ids=request_ids)
                if span is not None:
                    self.tracer.end_span(span, end_s=now, status="error")
            for req in batch:
                self._finish(req, FAILED, now, error=exc)
            if self.tracer is not None:   # after _finish: holds the closed roots
                self.tracer.dump(
                    "error",
                    detail=(f"batch on device {device} failed serving "
                            f"request(s) {request_ids}: {exc!r}"),
                    trace_id=head.trace_id,
                    request_id=head.request_id, time_s=now)
            return None

    async def _serve_batch(self, batch: list[InferenceRequest], device: int) -> None:
        loop = asyncio.get_running_loop()
        # The batch span parents onto the *head* request's trace (Clipper
        # batching anchors the wait window there too); the other members'
        # ids ride along as attributes, and each member's own request span
        # still closes with its response, so every trace stays rooted.
        batch_span = None
        if self.tracer is not None and batch[0].trace is not None:
            batch_span = self.tracer.start_span(
                "batch", parent=batch[0].trace, kind="batch",
                device=device, size=len(batch), model=batch[0].model,
                request_ids=[r.request_id for r in batch],
                member_traces=[r.trace_id for r in batch
                               if r.trace is not None])
        result = await self._run_execute(
            batch, batch_bucket(len(batch), self.config.max_batch),
            None, batch_span, device)
        if result is None:
            return
        _outputs, bucket, hit, sim_s = result
        if (self.config.straggler_delay_s > 0
                and device == self.config.straggler_device):
            await asyncio.sleep(self.config.straggler_delay_s)
        if batch_span is not None:
            self.tracer.end_span(batch_span, bucket=bucket, cache_hit=hit,
                                 sim_time_s=round(sim_s, 6))
        self.registry.counter("serve_batches").inc()
        self.registry.counter("serve_device_batches", device=device).inc()
        self.registry.counter("serve_sim_time_s").inc(sim_s)
        self.registry.histogram("serve_batch_size",
                                buckets=BATCH_BUCKETS).observe(len(batch))
        now = loop.time()
        for i, req in enumerate(batch):
            self._finish(req, SERVED, now, result=result, index=i,
                         size=len(batch), device=device)

    async def _serve_fallback(self, req: InferenceRequest, outcome: Outcome,
                              device: int = -1) -> None:
        """One request single-shot through the cuDNN fallback; ``outcome``
        is the rung of the degradation ladder that sent it here."""
        loop = asyncio.get_running_loop()
        fb_span = None
        if self.tracer is not None and req.trace is not None:
            fb_span = self.tracer.start_span(
                "fallback", parent=req.trace, kind="batch", device=device,
                request_id=req.request_id, timed_out=outcome.timed_out)
        result = await self._run_execute(
            [req], 1, Strategy.CUDNN, fb_span, device)
        if result is None:
            return
        _outputs, _bucket, hit, sim_s = result
        if fb_span is not None:
            self.tracer.end_span(fb_span, cache_hit=hit,
                                 sim_time_s=round(sim_s, 6))
        self._finish(req, outcome, loop.time(), result=result, device=device)

    def _loop_time(self) -> float:
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:
            return time.monotonic()

    def _finish(self, req: InferenceRequest, outcome: Outcome, now: float, *,
                result=None, index: int = 0, size: int = 1, device: int = -1,
                error: Exception | None = None) -> None:
        """The one terminal: however a request ends, it ends here, once.

        Nothing else touches a request's future, debits the SLO, moves a
        per-class / tenant / model series or closes a root span, so the
        counters, the roll-ups, the SLO and the trace cannot disagree about
        a session.  A request that is answered passes the execution's
        ``result`` -- ``(outputs, bucket, cache_hit, sim_s)`` -- and its
        place in it (``index`` of ``size`` riders on ``device``); any other
        passes the ``error`` its caller gets instead.
        """
        registry = self.registry
        trace_id = req.trace_id
        latency_s = now - req.enqueued_s
        deadline_met = req.deadline_s is None or now <= req.deadline_s
        target = self.slo.config.latency_target_s
        good = (outcome.can_be_good and deadline_met
                and (target is None or latency_s <= target))
        if good:
            self._class_good[req.priority] += 1
        for name in outcome.counters:
            registry.counter(name).inc()
        if outcome.series is not None:
            registry.counter(outcome.series, reason=outcome.reason,
                             tenant=req.tenant, **{"class": req.priority}).inc()
        response = None
        if result is not None:
            outputs, bucket, hit, sim_s = result
            mine = None if outputs is None else _slice(outputs, index)
            response = InferenceResponse(
                request_id=req.request_id,
                output=None if mine is None else next(iter(mine.values())),
                outputs=mine,
                batch_size=size,
                batch_bucket=bucket,
                cache_hit=hit,
                degraded=outcome.degraded,
                timed_out=outcome.timed_out,
                device=device,
                latency_s=latency_s,
                sim_time_s=sim_s,
                trace_id=trace_id,
                deadline_met=deadline_met,
                admitted_s=req.enqueued_s,
                batched_s=req.batched_s,
                completed_s=now,
                model=req.model,
                tenant=req.tenant,
                priority=req.priority,
            )
            if hit:
                # Rode an already-cached plan (no compile in its critical
                # path): the request-weighted cache hit numerator.
                registry.counter("serve_requests_on_cached_plan").inc()
            self._hist(
                "serve_latency_s",
                path="fallback" if outcome.degraded else "merged",
            ).observe(latency_s, exemplar=trace_id)
            # Fleet dimensions: per-tenant / per-class / per-model series.
            registry.counter("serve_tenant_requests", tenant=req.tenant).inc()
            self._hist("serve_tenant_latency_s",
                       tenant=req.tenant).observe(latency_s)
            self._hist("serve_class_latency_s",
                       **{"class": req.priority}).observe(latency_s)
            self._hist("serve_model_latency_s",
                       model=req.model).observe(latency_s)
            if req.batched_s is not None:
                self._hist("serve_stage_s", stage="queued").observe(
                    req.batched_s - req.enqueued_s)
                self._hist("serve_stage_s", stage="service").observe(
                    now - req.batched_s)
        self.slo.observe(now, good=good, trace_id=trace_id)
        if self.tracer is not None and req.trace is not None:
            if response is None:
                self.tracer.end_span(
                    req.trace, end_s=now, status=outcome.status,
                    error=repr(error) if outcome.raises is None else None)
            else:
                if req.batched_s is not None:
                    self.tracer.record_span(
                        "queued", parent=req.trace, kind="stage",
                        start_s=req.enqueued_s, end_s=req.batched_s)
                self.tracer.end_span(
                    req.trace, end_s=now,
                    status=(outcome.status if deadline_met
                            else "deadline_missed"),
                    degraded=outcome.degraded or None,
                    timed_out=outcome.timed_out or None,
                    latency_s=round(latency_s, 6),
                    batch_size=size, device=device)
        if req.future.done():   # the caller gave up on its submit()
            return
        if response is not None:
            req.future.set_result(response)
        elif outcome.raises is not None:
            req.future.cancel()   # submit() raises ``error`` itself
        else:
            req.future.set_exception(error)

    # In thread mode this runs in a worker thread (asyncio.to_thread):
    # everything here is CPU-bound simulation; the event loop keeps
    # admitting meanwhile.  In inline mode it runs on the loop and the
    # caller charges the simulated duration as virtual sleep.
    def _execute(self, batch: list[InferenceRequest], bucket: int,
                 strategy: Strategy | None = None, parent_span=None,
                 device_index: int | None = None):
        strategy = strategy if strategy is not None else self.config.strategy
        model = batch[0].model   # submit() admits resident models only
        graph = self.graphs[model]
        key = PlanKey(model=model, batch_bucket=bucket,
                      spec=self.spec, strategy=strategy,
                      brick=self.config.brick)
        tracer = self.tracer if parent_span is not None else None
        plan_t0 = tracer.clock() if tracer is not None else 0.0
        entry, hit = self.cache.get_or_compile(key, self._compile)
        if tracer is not None:
            tracer.record_span(
                "plan", parent=parent_span, kind="plan",
                start_s=plan_t0, end_s=tracer.clock(),
                cache_hit=hit, bucket=bucket, plan_digest=entry.plan_digest,
                compile_s=round(entry.compile_s, 4))
        inputs = None
        if self.config.functional:
            spec = graph.input_nodes[0].spec
            stacked = np.zeros((bucket, *spec.shape[1:]), dtype=spec.dtype)
            for i, req in enumerate(batch):
                stacked[i:i + 1] = req.input
            inputs = stacked
        exec_span = None
        if tracer is not None:
            exec_span = tracer.start_span(
                "execute", parent=parent_span, kind="execute",
                device=device_index, bucket=bucket,
                plan_digest=entry.plan_digest,
                strategy=strategy.value if strategy is not None else None)
        if entry.sim_time_s is None or not self.config.functional:
            # Counts depend on the plan alone, never on the values, so a
            # functional entry simulates once; a profile batch has nothing
            # else to do.
            result = entry.engine.run(plan=entry.plan)
            # Threads racing on a cold entry store equal counts; sim_time_s
            # goes last because the test above reads it.
            if self.tracer is not None:
                entry.task_spans = TaskSpans.of(result.trace.records)
            entry.num_tasks = result.metrics.num_tasks
            entry.sim_time_s = result.metrics.total_time
        outputs = (entry.engine.values(inputs, plan=entry.plan)
                   if self.config.functional else None)
        if exec_span is not None:
            tracer.end_span(exec_span, sim_time_s=round(entry.sim_time_s, 6),
                            num_tasks=entry.num_tasks)
            tracer.emit_task_spans(entry.task_spans, exec_span, device=device_index)
        return outputs, bucket, hit, entry.sim_time_s

    def _compile(self, key: PlanKey) -> CompiledEntry:
        engine = BrickDLEngine(
            self.graphs[key.model], spec=key.spec,
            strategy_override=key.strategy, brick_override=key.brick,
        ).for_batch(key.batch_bucket)
        plan = engine.compile()
        return CompiledEntry(key=key, engine=engine, plan=plan,
                             plan_digest=plan.digest())

    # -- reporting ----------------------------------------------------------
    def _wall_s(self) -> float:
        if not self._started_s:
            return 0.0
        try:
            end = self._stopped_s if self._stopped_s is not None \
                else asyncio.get_running_loop().time()
        except RuntimeError:  # no running loop (stats after the event loop)
            end = self._stopped_s if self._stopped_s is not None else self._started_s
        return max(end - self._started_s, 0.0)

    def latency_quantile(self, q: float) -> float:
        """``q``-quantile of served latencies, read off the registry."""
        merged = Histogram(buckets=LATENCY_BUCKETS_S)
        for s in self.registry.samples():
            if s.name == "serve_latency_s" and s.histogram:
                merged.merge_doc(s.histogram)
        return merged.quantile(q)

    def _count(self, name: str, **match: object) -> int:
        """A counter as the int ``stats()`` reports, summed over the series
        matching the labels.  Reads without creating: a series nothing
        bumped stays out of the manifest and out of its fingerprint."""
        return int(self.registry.total(name, **match))

    def stats(self) -> dict:
        """Serve-path rollup (the ``metrics.serve`` block of the manifest)."""
        wall = self._wall_s()
        batch_hist = self.registry.histogram("serve_batch_size", buckets=BATCH_BUCKETS)
        completed = self._count("serve_requests_completed")
        hits = self._count("serve_plan_cache_hits")
        misses = self._count("serve_plan_cache_misses")
        return {
            "requests": {
                "completed": completed,
                "degraded": self._count("serve_requests_degraded"),
                "timed_out": self._count("serve_requests_timed_out"),
                "rejected": self._count("serve_requests_rejected"),
            },
            "latency_s": {
                "p50": self.latency_quantile(0.50),
                "p99": self.latency_quantile(0.99),
            },
            "batches": {
                "count": self._count("serve_batches"),
                "mean_size": batch_hist.mean,
                "preemptions": self._count("serve_preemptions"),
            },
            "plan_cache": {
                "hits": hits,
                "misses": misses,
                "evictions": self._count("serve_plan_cache_evictions"),
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                # Fraction of requests whose batch rode an already-compiled
                # plan: the serving-level number (a warm max-batch bucket
                # serves 8 requests per lookup).
                "request_hit_ratio": (
                    self._count("serve_requests_on_cached_plan") / completed
                    if completed else 0.0),
                "size": len(self.cache),
                "partitions": self.cache.partition_stats(),
            },
            "sim_time_s": self.registry.counter("serve_sim_time_s").value,
            "wall_s": wall,
            "throughput_rps": completed / wall if wall > 0 else 0.0,
            "stages": self._stage_stats(),
            "slo": self.slo.stats(),
            "classes": self._class_rollup(),
            "tenants": self._tenant_rollup(),
            "models": self._model_rollup(),
            "devices": self._device_rollup(),
            "autoscaler": (self._autoscaler.stats()
                           if self._autoscaler is not None
                           else {"enabled": False,
                                 "devices": (self._pool.size if self._pool
                                             else self.config.devices),
                                 "scale_ups": 0, "scale_downs": 0,
                                 "events": []}),
        }

    def _class_rollup(self) -> dict:
        out = {}
        for name, cls in self.classes.items():
            latency = self._hist("serve_class_latency_s", **{"class": name})
            shed = self._count("serve_requests_shed", **{"class": name})
            total = (latency.count + shed
                     + self._count("serve_requests_failed", **{"class": name}))
            out[name] = {
                "batching": cls.batching,
                "completed": latency.count,
                "shed": shed,
                "shed_rate": shed / total if total else 0.0,
                "attainment": (self._class_good[name] / total
                               if total else 1.0),
                "p50_s": latency.quantile(0.50),
                "p99_s": latency.quantile(0.99),
            }
        return out

    def _tenant_rollup(self) -> dict:
        # Every tenant that completed or was shed at least once.
        tenants = {dict(labels)["tenant"]
                   for name in ("serve_tenant_requests", "serve_requests_shed")
                   for labels in self.registry.series(name)}
        return {
            name: {
                "completed": self._count("serve_tenant_requests", tenant=name),
                "shed": self._count("serve_requests_shed", tenant=name),
                "p99_s": self._hist("serve_tenant_latency_s",
                                    tenant=name).quantile(0.99),
            } for name in sorted(tenants)}

    def _model_rollup(self) -> dict:
        out = {}
        for name in self.graphs:
            latency = self._hist("serve_model_latency_s", model=name)
            out[name] = {
                "completed": latency.count,
                "p50_s": latency.quantile(0.50),
                "p99_s": latency.quantile(0.99),
            }
        return out

    def _device_rollup(self) -> dict:
        return {
            "configured": self.config.devices,
            "current": self._pool.size if self._pool else self.config.devices,
            "started": self._pool.started if self._pool else 0,
            "retired": self._pool.retired if self._pool else 0,
        }

    def _stage_stats(self) -> dict:
        """Per-stage time breakdown (queued / service / compile)."""
        queued = self._hist("serve_stage_s", stage="queued")
        service = self._hist("serve_stage_s", stage="service")
        return {
            "queued_mean_ms": queued.mean * 1e3,
            "queued_p99_ms": queued.quantile(0.99) * 1e3,
            "service_mean_ms": service.mean * 1e3,
            "service_p99_ms": service.quantile(0.99) * 1e3,
            "compile_total_s": self.registry.counter("serve_plan_compile_s").value,
        }

    def manifest(self, label: str = "serve", scale: str | None = None) -> RunManifest:
        """The serving session as a diffable run manifest."""
        return manifest_from_serve(
            self.graph.name, self.registry, self.spec,
            cached_plans=self.cache.snapshot(),
            serve_stats=self.stats(),
            label=label, scale=scale,
        )


def _slice(outputs: dict[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    return {k: v[i:i + 1] for k, v in outputs.items()}
