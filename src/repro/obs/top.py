"""``repro top``: a live terminal dashboard over a serving session.

Renders the server's registry-backed state -- queue depth, batch sizes,
plan-cache hit ratio, latency quantiles, SLO burn rates, the per-stage
time breakdown, and (on a fleet server) per-class / per-tenant rollups
plus the autoscaler's device count and scale events -- as a plain-text
panel, refreshed while a loadgen drives traffic.  Everything is read off structures the serve path
maintains anyway, so a refresh costs a registry scan, not extra
instrumentation.
"""

from __future__ import annotations

import asyncio
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serve.loadgen import LoadgenReport
    from repro.serve.server import InferenceServer

__all__ = ["render_dashboard", "run_top"]

#: Width of the dashboard's rule lines, in characters.
WIDTH = 72


def _bar(value: float, peak: float, width: int = 24) -> str:
    if peak <= 0:
        return "." * width
    filled = min(width, round(value / peak * width))
    return "#" * filled + "." * (width - filled)


def render_dashboard(server: "InferenceServer") -> str:
    """One frame: the serving session's vitals as aligned text lines."""
    stats = server.stats()
    reqs = stats["requests"]
    cache = stats["plan_cache"]
    depth = server._queue.qsize() if server._queue is not None else 0
    slo = stats.get("slo", {})
    stages = stats.get("stages", {})
    devices = stats.get("devices", {})
    auto = stats.get("autoscaler", {})
    current = devices.get("current", server.config.devices)
    fleet = f"{current} device(s)"
    if auto.get("enabled"):
        fleet += (f" [{auto['min']}..{auto['max']}, +{auto['scale_ups']}"
                  f"/-{auto['scale_downs']} scale]")
    title = server.graph.name
    if len(server.graphs) > 1:
        title += f" (+{len(server.graphs) - 1} model(s))"

    lines = [
        f"repro top · {title} · {fleet} "
        f"· wall {stats['wall_s']:.1f} s",
        "-" * WIDTH,
        f"requests   completed {reqs['completed']:>6}   degraded "
        f"{reqs['degraded']:>5}   timed out {reqs['timed_out']:>5}   "
        f"rejected {reqs['rejected']:>5}",
        f"throughput {stats['throughput_rps']:>8.1f} rps   batches "
        f"{stats['batches']['count']:>5}   mean size "
        f"{stats['batches']['mean_size']:>5.2f}",
        f"latency    p50 {stats['latency_s']['p50'] * 1e3:>8.1f} ms   "
        f"p99 {stats['latency_s']['p99'] * 1e3:>8.1f} ms",
        f"queue      depth {depth:>4}/{server.config.queue_depth:<4} "
        f"[{_bar(depth, server.config.queue_depth)}]",
        f"plan cache hits {cache['hits']:>5}   misses {cache['misses']:>4}   "
        f"request hit ratio {cache['request_hit_ratio']:>6.1%}   "
        f"entries {cache['size']}",
    ]
    classes = stats.get("classes", {})
    if len(classes) > 1:
        for name, c in sorted(classes.items()):
            lines.append(
                f"class      {name:<12} ({c['batching']})  done {c['completed']:>5}   "
                f"shed {c['shed_rate']:>6.1%}   attain {c['attainment']:>7.2%}   "
                f"p99 {c['p99_s'] * 1e3:>7.1f} ms")
    tenants = stats.get("tenants", {})
    if len(tenants) > 1:
        for name, t in sorted(tenants.items()):
            lines.append(
                f"tenant     {name:<12} done {t['completed']:>5}   "
                f"shed {t['shed']:>4}   p99 {t['p99_s'] * 1e3:>7.1f} ms")
    if stages:
        lines.append(
            f"stages     queued mean {stages.get('queued_mean_ms', 0.0):>7.2f} ms   "
            f"service mean {stages.get('service_mean_ms', 0.0):>7.2f} ms   "
            f"compile total {stages.get('compile_total_s', 0.0):>6.3f} s")
    if slo:
        burns = slo.get("burn_rates", {})
        burn_bits = "   ".join(
            f"{pair}: {v['short']:.2f}/{v['long']:.2f}"
            for pair, v in burns.items())
        state = (f"ALERT x{slo['alerts_fired']}" if slo.get("alerts_fired")
                 else "ok")
        lines.append(
            f"slo        attainment {slo['attainment']:>7.2%} "
            f"(objective {slo['objective']:.2%})   burn {burn_bits}   {state}")
    lines.append("-" * WIDTH)
    return "\n".join(lines)


async def _top_loop(server: "InferenceServer", loadgen_kwargs: dict,
                    refresh_s: float, stream) -> "LoadgenReport":
    from repro.serve.loadgen import run_loadgen

    clear = "\x1b[2J\x1b[H" if stream.isatty() else ""
    async with server:
        traffic = asyncio.create_task(run_loadgen(server, **loadgen_kwargs))
        while not traffic.done():
            stream.write(clear + render_dashboard(server) + "\n")
            stream.flush()
            await asyncio.wait({traffic}, timeout=refresh_s)
        stream.write(clear + render_dashboard(server) + "\n")
        stream.flush()
        return await traffic


def run_top(server: "InferenceServer", refresh_s: float = 0.5,
            stream=None, **loadgen_kwargs) -> "LoadgenReport":
    """Drive a loadgen against ``server`` while rendering the dashboard."""
    stream = stream if stream is not None else sys.stdout
    return asyncio.run(_top_loop(server, loadgen_kwargs, refresh_s, stream))
