"""Serving-layer benchmark: dynamic batching under open-loop traffic.

Drives the ``repro.serve`` stack (admission queue, dynamic batcher, plan
cache, round-robin device fleet) with Poisson arrivals at a few rates and
reports latency quantiles, throughput, batch formation, and plan-cache
behavior -- the Clipper-style serving numbers the ROADMAP's
"heavy traffic" north star is measured by.
"""

from benchlib import run_once

from repro.bench.harness import run_serve_loadgen, scale_preset
from repro.bench.reporting import format_table
from repro.serve import ServeConfig

_REQUESTS = {"small": 60, "half": 200, "full": 500}
_RATES = (50.0, 200.0)


def test_serve_poisson_sweep(benchmark):
    requests = _REQUESTS[scale_preset()]

    def experiment():
        out = {}
        for rate in _RATES:
            report, _ = run_serve_loadgen(
                "mobilenet_v1", ServeConfig(devices=2, functional=False),
                requests=requests, rate=rate, reduced=True, seed=0)
            out[rate] = report
        return out

    out = run_once(benchmark, experiment)
    rows = []
    for rate, r in out.items():
        rows.append([f"{rate:.0f}/s", r.completed,
                     f"{r.throughput_rps:.1f}/s",
                     f"{r.p50_s * 1e3:.1f}", f"{r.p99_s * 1e3:.1f}",
                     f"{r.mean_batch:.2f}", f"{r.cache_hit_ratio:.1%}"])
    print()
    print(format_table(
        ["arrival rate", "served", "throughput", "p50 ms", "p99 ms",
         "mean batch", "plan-cache hits"],
        rows, title=f"mobilenet_v1 serving: {requests} requests, 2 devices"))
