"""Traffic generation against an :class:`~repro.serve.server.InferenceServer`.

Two canonical load shapes:

* **open-loop Poisson** -- arrivals are a seeded Poisson process at
  ``rate`` requests/second, independent of completions (how production
  traffic behaves; exposes queueing delay honestly);
* **closed-loop** -- ``concurrency`` clients each keep exactly one request
  in flight (how most benchmark harnesses behave; throughput-bound).

Each request gets a deterministic input drawn from ``seed + request index``,
so any response can be re-verified bit-for-bit against a single-shot
:class:`~repro.core.engine.BrickDLEngine` run of the same input -- the
differential check ``verify`` samples.
"""

from __future__ import annotations

import asyncio
import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ExecutionError
from repro.serve.request import InferenceResponse, QueueSaturatedError
from repro.serve.server import InferenceServer

__all__ = ["LoadgenReport", "run_loadgen", "loadgen"]


@dataclass
class LoadgenReport:
    """What one traffic run observed, read back off the server registry."""

    model: str
    mode: str
    requests: int
    completed: int
    rejected: int
    degraded: int
    timed_out: int
    verified: int
    wall_s: float
    throughput_rps: float
    p50_s: float
    p99_s: float
    mean_batch: float
    cache_hit_ratio: float        # request-weighted: requests on a cached plan
    cache_lookup_ratio: float = 0.0   # per-lookup (one lookup per batch)
    cache_entries: int = 0
    stats: dict = field(default_factory=dict)

    def render(self) -> str:
        from repro.bench.reporting import format_table

        rows = [
            ["requests", f"{self.completed}/{self.requests} completed"],
            ["rejected", self.rejected],
            ["degraded (fallback)", self.degraded],
            ["timed out", self.timed_out],
            ["verified bit-identical", self.verified],
            ["wall time", f"{self.wall_s:.2f} s"],
            ["throughput", f"{self.throughput_rps:.1f} req/s"],
            ["latency p50", f"{self.p50_s * 1e3:.1f} ms"],
            ["latency p99", f"{self.p99_s * 1e3:.1f} ms"],
            ["mean batch size", f"{self.mean_batch:.2f}"],
            ["plan-cache hit ratio (requests)", f"{self.cache_hit_ratio:.1%}"],
            ["plan-cache hit ratio (lookups)", f"{self.cache_lookup_ratio:.1%}"],
            ["plan-cache entries", self.cache_entries],
        ]
        slo = self.stats.get("slo")
        if slo:
            rows.append(["SLO attainment",
                         f"{slo['attainment']:.2%} "
                         f"(objective {slo['objective']:.2%})"])
            for pair, burn in slo.get("burn_rates", {}).items():
                rows.append([f"burn rate ({pair})",
                             f"{burn['short']:.2f} / {burn['long']:.2f}"])
            rows.append(["burn alerts fired", slo.get("alerts_fired", 0)])
        return format_table(
            ["metric", "value"], rows,
            title=f"loadgen: {self.model} ({self.mode})")


def _request_input(graph, index: int, seed: int) -> np.ndarray:
    spec = graph.input_nodes[0].spec
    rng = np.random.default_rng(seed + index)
    return rng.standard_normal(spec.shape).astype(spec.dtype)


async def run_loadgen(
    server: InferenceServer,
    requests: int = 200,
    mode: str = "poisson",
    rate: float = 100.0,
    concurrency: int = 8,
    seed: int = 0,
    verify: int = 0,
    latency_csv: "str | Path | None" = None,
) -> LoadgenReport:
    """Drive ``server`` (already started) with synthetic traffic.

    ``verify`` re-runs that many evenly spaced requests single-shot through
    a fresh engine and asserts the served outputs are bit-identical.
    ``latency_csv`` optionally names a file to receive one row per request
    (arrival/admitted/batched/completed timestamps, deadline attainment,
    trace id) -- the raw data behind the aggregate percentiles.
    """
    if mode not in ("poisson", "closed"):
        raise ValueError(f"mode must be 'poisson' or 'closed', got {mode!r}")
    functional = server.config.functional
    graph = server.graph
    responses: dict[int, InferenceResponse] = {}
    arrivals: dict[int, float] = {}
    rejections: dict[int, QueueSaturatedError] = {}
    rejected = 0
    loop = asyncio.get_running_loop()
    t0 = loop.time()

    async def one(index: int) -> None:
        nonlocal rejected
        x = _request_input(graph, index, seed) if functional else None
        arrivals[index] = loop.time()
        try:
            responses[index] = await server.submit(x)
        except QueueSaturatedError as err:
            rejected += 1
            rejections[index] = err

    if mode == "poisson":
        if rate <= 0:
            raise ValueError(f"poisson mode needs rate > 0, got {rate}")
        arrival_rng = np.random.default_rng(seed)
        tasks = []
        next_at = t0
        for i in range(requests):
            next_at += float(arrival_rng.exponential(1.0 / rate))
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(i)))
        await asyncio.gather(*tasks)
    else:
        counter = iter(range(requests))

        async def client() -> None:
            for i in counter:
                await one(i)

        await asyncio.gather(*[client() for _ in range(max(1, concurrency))])

    wall = loop.time() - t0

    verified = 0
    if verify and functional:
        # Evenly spaced over the non-degraded responses.
        indices = sorted(i for i, r in responses.items() if not r.degraded)
        count = min(verify, len(responses)) if indices else 0
        picked = [indices[int(i * (len(indices) - 1) / max(count - 1, 1))]
                  for i in range(count)]
        verified = verify_served(
            server, [(i, responses[i]) for i in dict.fromkeys(picked)], seed)

    if latency_csv is not None:
        _write_latency_csv(latency_csv, t0, arrivals, responses, rejections)

    stats = server.stats()
    return LoadgenReport(
        model=graph.name,
        mode=mode,
        requests=requests,
        completed=len(responses),
        rejected=rejected,
        degraded=stats["requests"]["degraded"],
        timed_out=stats["requests"]["timed_out"],
        verified=verified,
        wall_s=wall,
        throughput_rps=len(responses) / wall if wall > 0 else 0.0,
        p50_s=stats["latency_s"]["p50"],
        p99_s=stats["latency_s"]["p99"],
        mean_batch=stats["batches"]["mean_size"],
        cache_hit_ratio=stats["plan_cache"]["request_hit_ratio"],
        cache_lookup_ratio=stats["plan_cache"]["hit_ratio"],
        cache_entries=stats["plan_cache"]["size"],
        stats=stats,
    )


LATENCY_CSV_COLUMNS = [
    "index", "request_id", "arrival_s", "admitted_s", "batched_s",
    "completed_s", "latency_s", "deadline_met", "degraded", "timed_out",
    "rejected", "trace_id",
]


def _write_latency_csv(path: "str | Path", t0: float,
                       arrivals: dict[int, float],
                       responses: dict[int, "InferenceResponse"],
                       rejections: dict[int, QueueSaturatedError]) -> None:
    """One row per request, timestamps relative to loadgen start."""
    def rel(t: float | None) -> str:
        return "" if t is None else f"{t - t0:.6f}"

    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LATENCY_CSV_COLUMNS)
        for index in sorted(arrivals):
            arrival = arrivals[index]
            r = responses.get(index)
            if r is not None:
                writer.writerow([
                    index, r.request_id, rel(arrival), rel(r.admitted_s),
                    rel(r.batched_s), rel(r.completed_s),
                    f"{r.latency_s:.6f}", r.deadline_met, r.degraded,
                    r.timed_out, False, r.trace_id or "",
                ])
            elif index in rejections:
                err = rejections[index]
                writer.writerow([
                    index, err.request_id if err.request_id is not None else "",
                    rel(arrival), "", "", "", "", False, False, False, True,
                    err.trace_id or "",
                ])


def verify_served(server: InferenceServer,
                  picked: list[tuple[int, InferenceResponse]],
                  seed: int) -> int:
    """Differential check: served outputs == single-shot engine outputs.

    ``picked`` is the caller's sample of ``(request index, response)``; each
    is re-computed single-shot (``BrickDLEngine.values`` at batch 1, the one
    producer of outputs) from its seeded input on an engine built from the
    server's own config, and must match bit for bit.  Callers sample
    non-degraded responses only.  A degraded one took the cuDNN-fallback
    plan, but a plan decides where and when values are computed, not what
    they are, so its outputs are these same bytes too.
    Returns how many were verified (all of ``picked``, or it raised).
    """
    from repro.core.engine import BrickDLEngine

    engines = {}
    for index, response in picked:
        graph = server.graphs[response.model]
        if response.model not in engines:
            engine = BrickDLEngine(graph, spec=server.spec,
                                   strategy_override=server.config.strategy,
                                   brick_override=server.config.brick)
            engines[response.model] = (engine, engine.compile())
        engine, plan = engines[response.model]
        x = _request_input(graph, index, seed)
        single = engine.values(x, plan)
        for name, want in single.items():
            got = response.outputs[name]
            if not np.array_equal(got, want):
                raise ExecutionError(
                    f"request {index}: served output {name!r} differs from "
                    f"single-shot (max |diff| "
                    f"{np.abs(got - want).max():.3e})")
    return len(picked)


def loadgen(server: InferenceServer, **kwargs) -> LoadgenReport:
    """Synchronous wrapper: start the server, run traffic, close it."""
    async def _run() -> LoadgenReport:
        async with server:
            return await run_loadgen(server, **kwargs)

    return asyncio.run(_run())
