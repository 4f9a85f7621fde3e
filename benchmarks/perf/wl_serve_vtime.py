"""Workload ``serve_vtime``: deterministic open loop on the virtual clock.

A benchmark-built all-fallback "head" model (every subgraph plans ``cudnn``,
about 20 tasks per batch) served inline and in profile mode under
``vtime.run_virtual``: two priority classes (``interactive``, EDF, rank 0 and
``batch``, head-anchored, rank 1; 70/30 by tenant), deadlines of 12 u and
60 u, an autoscaler between 2 and 6 devices, and thinned-Poisson arrivals at
utilisation 0.6 of the two-device capacity with a burst at 1.6 over the
middle fifth of the horizon.  u is the simulated service time of one full
batch, as the program's scenario pack calibrates it.

It is the only workload where the serve loop, the SLO monitor and the
metrics registry are most of the host time and the simulator a minority, so
it is where an observability or serve-loop change must show "no slower".
Host time and virtual time separate: loop and observer changes move host
time per request and must leave every virtual-time metric bit-identical;
policy changes move the virtual-time metrics.  The seed draws the arrival
times and tenants; the program sees only the resulting submit calls.

The request count is part of the workload: SLO windows never expire at this
virtual timescale, so host time per request grows with the count.
"""

from __future__ import annotations

import asyncio
import time

from perf_common import (Outcome, RunConfig, median, percentile,
                         response_metrics, run_passes, typical)

REQUESTS = 6000
SMOKE_REQUESTS = 40
DEVICES = 2
MAX_DEVICES = 6
MAX_BATCH = 8
RHO_BASE = 0.6
RHO_BURST = 1.6
BURST_SHARE = 0.2
INTERACTIVE_SHARE = 0.7
# (tenant, priority class, deadline in units of u)
INTERACTIVE = ("web", "interactive", 12.0)
BULK = ("pipeline", "batch", 60.0)
# Deep enough that the burst queues and scales the fleet instead of
# shedding: no operation of this workload fails.
QUEUE_DEPTH = 128


def _head_graph():
    from repro.graph.builder import GraphBuilder
    from repro.graph.tensorspec import TensorSpec

    b = GraphBuilder("head", TensorSpec(1, 8, (4, 4)))
    b.conv(8, 3, padding="same")
    b.relu()
    b.conv(8, 3, padding="same")
    b.relu()
    b.classifier(10)
    return b.finish()


def _calibrate(graph) -> float:
    """u: simulated seconds of one full batch."""
    from repro.bench.harness import adapt_sectors
    from repro.core.engine import BrickDLEngine
    from repro.gpusim.device import Device
    from repro.gpusim.spec import A100

    engine = BrickDLEngine(graph).for_batch(MAX_BATCH)
    plan = engine.compile()
    result = engine.run(inputs=None, functional=False,
                        device=Device(adapt_sectors(A100, plan)), plan=plan)
    return result.metrics.total_time


def _arrivals(seed: int, requests: int, unit_s: float) -> list:
    """Seeded non-homogeneous Poisson arrivals by thinning against the burst
    rate: ``(send time, tenant triple)`` per request."""
    import numpy as np

    rng = np.random.default_rng(seed)
    capacity_rps = DEVICES * MAX_BATCH / unit_s
    mean_rho = RHO_BASE * (1 - BURST_SHARE) + RHO_BURST * BURST_SHARE
    horizon = requests / (mean_rho * capacity_rps)
    burst_from = (0.5 - BURST_SHARE / 2) * horizon
    burst_to = (0.5 + BURST_SHARE / 2) * horizon
    rate = RHO_BURST * capacity_rps
    arrivals = []
    t = 0.0
    while len(arrivals) < requests:
        t += float(rng.exponential(1.0 / rate))
        rho = RHO_BURST if burst_from <= t % horizon < burst_to else RHO_BASE
        if float(rng.random()) * RHO_BURST > rho:
            continue
        tenant = INTERACTIVE if float(rng.random()) < INTERACTIVE_SHARE else BULK
        arrivals.append((t, tenant))
    return arrivals


def _config(u: float):
    from repro.serve.autoscaler import AutoscalerConfig
    from repro.serve.scheduler import PriorityClass
    from repro.serve.server import ServeConfig

    return ServeConfig(
        devices=DEVICES, max_batch=MAX_BATCH, max_wait_s=0.75 * u,
        queue_depth=QUEUE_DEPTH, saturation_policy="reject", functional=False,
        default_timeout_s=24 * u,
        classes=(
            PriorityClass("interactive", rank=0, batching="edf",
                          max_wait_s=0.75 * u),
            PriorityClass("batch", rank=1, batching="head", max_wait_s=3 * u),
        ),
        default_class="interactive",
        autoscaler=AutoscalerConfig(
            min_devices=DEVICES, max_devices=MAX_DEVICES, interval_s=2 * u,
            scale_up_queue_per_device=2.0 * MAX_BATCH,
            scale_down_queue_per_device=0.5, hysteresis_ticks=2,
            cooldown_s=6 * u, burn_window_s=50 * u),
        execution="inline",
    )


def setup(cfg: RunConfig) -> dict:
    """Imports, model, calibration of u and the seeded arrival plan."""
    import repro.serve.server  # noqa: F401
    import repro.serve.vtime  # noqa: F401

    graph = _head_graph()
    unit_s = _calibrate(graph)
    requests = SMOKE_REQUESTS if cfg.smoke else REQUESTS
    return {"graph": graph, "unit_s": unit_s,
            "arrivals": _arrivals(cfg.seed, requests, unit_s)}


def _one_pass(state: dict) -> dict:
    from repro.serve.request import QueueSaturatedError
    from repro.serve.scenarios import manifest_fingerprint
    from repro.serve.server import InferenceServer
    from repro.serve.vtime import run_virtual

    u = state["unit_s"]
    arrivals = state["arrivals"]
    server = InferenceServer(state["graph"], config=_config(u))
    responses: dict[int, object] = {}
    latency_u: dict[int, float] = {}
    errors: list[str] = []
    shed = 0

    async def drive() -> tuple[float, float]:
        nonlocal shed
        loop = asyncio.get_running_loop()
        async with server:
            t0 = loop.time()

            async def one(index: int, at: float, tenant) -> None:
                nonlocal shed
                name, priority, deadline_u = tenant
                try:
                    responses[index] = await server.submit(
                        None, timeout_s=deadline_u * u, tenant=name,
                        priority=priority)
                except QueueSaturatedError:
                    shed += 1
                    return
                except Exception as exc:
                    errors.append(f"request {index}: {exc!r}")
                    return
                # Timed from the scheduled send time, not the actual one.
                latency_u[index] = (loop.time() - (t0 + at)) / u

            tasks = []
            lateness = 0.0
            for index, (at, tenant) in enumerate(arrivals):
                delay = t0 + at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness = max(lateness, loop.time() - (t0 + at))
                tasks.append(asyncio.create_task(one(index, at, tenant)))
            await asyncio.gather(*tasks)
            return lateness, loop.time() - t0

    w0 = time.perf_counter()
    lateness, elapsed = run_virtual(drive())
    wall = time.perf_counter() - w0
    stats = server.stats()
    return {
        "wall_s": wall, "lateness_s": lateness, "elapsed_s": elapsed,
        "responses": responses, "latency_u": latency_u, "errors": errors,
        "shed": shed, "stats": stats,
        "fingerprint": manifest_fingerprint(server.manifest().as_dict()),
    }


def _devices_mean(stats: dict, elapsed_s: float) -> float:
    """Time-weighted mean fleet size over the session."""
    size, since, area = DEVICES, 0.0, 0.0
    for event in stats["autoscaler"]["events"]:
        area += size * (event["time_s"] - since)
        size, since = event["to"], event["time_s"]
    area += size * (elapsed_s - since)
    return area / elapsed_s


def measure(state: dict, cfg: RunConfig, rec) -> Outcome:
    out = Outcome()
    u = state["unit_s"]
    submitted = len(state["arrivals"])

    def one_pass(_index: int) -> dict:
        cfg.yard.sample_gap()
        return _one_pass(state)

    passes = run_passes(one_pass, cfg, min_passes=2)
    cfg.yard.sample_gap()
    first = passes[0]
    out.evidence = {"passes": passes}

    for p in passes:
        out.attempted += submitted
        unresolved = submitted - len(p["responses"]) - p["shed"]
        out.failed += p["shed"] + unresolved
        out.check_failures.extend(p["errors"][:3])
        if unresolved:
            out.check_failures.append(
                f"{unresolved} of {submitted} requests neither completed nor shed")
        if p["lateness_s"] != 0.0:
            out.check_failures.append(
                f"generator ran {p['lateness_s']:g} virtual seconds late")
    fingerprints = {p["fingerprint"] for p in passes}
    if len(fingerprints) != 1:
        out.check_failures.append(
            f"passes disagree on the manifest fingerprint {sorted(fingerprints)}")
    out.exact["manifest_fingerprint"] = first["fingerprint"][:16]

    done = list(first["responses"].values())
    if not done:
        out.check_failures.append("no request completed")
        return out
    stats = first["stats"]
    good = sum(1 for r in done
               if r.deadline_met and not r.degraded and not r.timed_out)
    latencies = list(first["latency_u"].values())
    wall = typical(p["wall_s"] for p in passes)
    out.metrics.update({
        "host_time_s": wall,
        "serve_host_us_per_req": wall / submitted * 1e6,
        "vt_latency_p50_units": median(latencies),
        "vt_latency_p99_units": percentile(latencies, 0.99),
        "vt_good_share": good / submitted,
        "vt_devices_mean": _devices_mean(stats, first["elapsed_s"]),
        **response_metrics(done),
        "serve.plancache.compile_s": stats["stages"]["compile_total_s"],
        "serve.preemptions": stats["batches"]["preemptions"],
        "serve.scale_ups": stats["autoscaler"]["scale_ups"],
        "serve.scale_downs": stats["autoscaler"]["scale_downs"],
        "serve.degraded": stats["requests"]["degraded"],
        "serve.timed_out": stats["requests"]["timed_out"],
        "serve.rejected": stats["requests"]["rejected"],
        "serve.shed": first["shed"],
        "sim_model_time_ms": stats["sim_time_s"] * 1e3,
    })
    return out


def traced_metrics(state: dict, cfg: RunConfig, rec, plain: Outcome,
                   traced: Outcome) -> dict:
    agg = rec.aggregate()
    requests = len(state["arrivals"])
    observe = agg["obs.slo_observe"]["total"] if "obs.slo_observe" in agg else 0.0
    lookups = agg["serve.plancache"]["durations"] if "serve.plancache" in agg else []
    wall = traced.evidence["passes"][0]["wall_s"]
    loop_self = wall - rec.server_engine_seconds() - observe
    return {
        "serve.plancache.lookup_us": median(lookups) * 1e6 if lookups else 0.0,
        "obs.slo_observe_us_per_req": observe / requests * 1e6,
        "serve.loop.self_us_per_req": loop_self / requests * 1e6,
    }
