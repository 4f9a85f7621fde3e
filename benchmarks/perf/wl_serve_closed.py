"""Workload ``serve_closed``: wall-clock serving, closed loop of 8 clients.

``InferenceServer(zoo.build("mobilenet_v1", reduced=True),
ServeConfig(devices=2, max_batch=8, functional=True))`` in thread mode; eight
coroutine clients in this process each keep one request in flight until the
run's seconds are used.  It is the one workload where the NumPy kernels and
the executors' functional, batch-8 data path carry the time -- the same core
and gpusim code ``sim_full`` uses, used differently, so a profile-mode gain
paid for on the data path shows here.  Closed, because open-loop wall-clock
tails moved +-12 % run to run when the workload was sized; 16 clients gave no
more throughput (one interpreter lock) and noisier latency.

The eight clients ride one batch in lockstep, so throughput is about
8 / service time and queue wait about a millisecond: serve-loop changes
should show nothing here, kernel and executor data-path changes everything.
Request ``i`` carries the input drawn from ``seed + i``.
"""

from __future__ import annotations

import asyncio
import time

from perf_common import (Outcome, RunConfig, median, percentile,
                         response_metrics)

CLIENTS = 8
DEVICES = 2
MAX_BATCH = 8
SMOKE_REQUESTS = 16
REPLAYED = 5
# The run's seconds are served in this many windows, with yardstick samples
# between them: it cannot be sampled while a batch runs (it would contend
# with the worker thread for the interpreter lock), and two samples at the
# ends of one long window missed the box's slow spells in sizing.
WINDOWS = 4
# The warm-up batch draws its inputs far from any measured request's.
WARMUP_INDEX = 1_000_000


def request_input(spec, seed: int, index: int):
    """The input of request ``index``: drawn from ``seed + index``, as the
    program's own load generator draws it, so any response can be replayed
    single-shot."""
    import numpy as np

    rng = np.random.default_rng(seed + index)
    return rng.standard_normal(spec.shape).astype(spec.dtype)


def setup(cfg: RunConfig) -> dict:
    """Imports, model, server start and one warm-up batch, which compiles
    the batch-8 plan: everything a deployment does before it takes load."""
    from repro.models import zoo
    from repro.serve.server import InferenceServer, ServeConfig

    graph = zoo.build("mobilenet_v1", reduced=True)
    server = InferenceServer(graph, config=ServeConfig(
        devices=DEVICES, max_batch=MAX_BATCH, functional=True))
    loop = asyncio.new_event_loop()
    spec = graph.input_nodes[0].spec

    async def warm() -> None:
        await server.start()
        await asyncio.gather(*[
            server.submit(request_input(spec, cfg.seed, WARMUP_INDEX + i))
            for i in range(CLIENTS)])

    loop.run_until_complete(warm())
    return {"graph": graph, "server": server, "loop": loop, "spec": spec,
            "next_index": 0}


def teardown(state: dict) -> None:
    loop = state["loop"]
    loop.run_until_complete(state["server"].close())
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()


def measure(state: dict, cfg: RunConfig, rec) -> Outcome:
    from repro.serve.request import QueueSaturatedError

    out = Outcome()
    server, spec = state["server"], state["spec"]
    # A traced invocation measures twice; the second phase must not resend
    # the first one's inputs.
    first_index = state["next_index"]
    budget = SMOKE_REQUESTS if cfg.smoke else None
    seconds = cfg.seconds / 2 if cfg.passes is not None else cfg.seconds
    windows = 1 if cfg.smoke else WINDOWS
    responses: dict[int, object] = {}
    latencies: list[float] = []
    shed = 0
    before = server.stats()

    async def drive() -> float:
        nonlocal shed
        t0 = time.perf_counter()
        deadline = t0 + seconds / windows

        async def client() -> None:
            nonlocal shed
            while True:
                index = state["next_index"]
                sent = index - first_index
                if budget is not None and sent >= budget:
                    return
                if budget is None and time.perf_counter() >= deadline:
                    return
                state["next_index"] = index + 1
                x = request_input(spec, cfg.seed, index)
                out.attempted += 1
                sent_at = time.perf_counter()
                try:
                    responses[index] = await server.submit(x)
                except QueueSaturatedError:
                    shed += 1
                    out.failed += 1
                    continue
                except Exception as exc:
                    out.failed += 1
                    out.check_failures.append(f"request {index}: {exc!r}")
                    continue
                latencies.append(time.perf_counter() - sent_at)

        await asyncio.gather(*[client() for _ in range(CLIENTS)])
        return time.perf_counter() - t0

    wall = 0.0
    cfg.yard.sample_gap(after_threads=True)
    for _ in range(windows):
        wall += state["loop"].run_until_complete(drive())
        cfg.yard.sample_gap(after_threads=True)
    after = server.stats()
    out.evidence = {"responses": responses}
    done = list(responses.values())
    if not done:
        out.check_failures.append("no request completed")
        return out

    service = [r.completed_s - r.batched_s for r in done if r.batched_s is not None]
    # A batch's service time once, not once per rider.
    busy = sum((r.completed_s - r.batched_s) / r.batch_size
               for r in done if r.batched_s is not None)

    def grew(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    out.metrics.update({
        # Seconds per 100 requests at the median latency (eight in flight):
        # a median over the batches rejects the box's slow spells, which the
        # mean behind ``serve_rps`` absorbs.
        "host_time_s": median(latencies) * 100.0 / CLIENTS,
        "serve_rps": len(done) / wall,
        "serve_latency_p50_ms": median(latencies) * 1e3,
        "serve_latency_p90_ms": percentile(latencies, 0.90) * 1e3,
        **response_metrics(done),
        "serve.service_ms_p50": median(service) * 1e3,
        "serve.device_busy_share": busy / (DEVICES * wall),
        # Cumulative, warm-up included: the compile is paid in set-up.
        "serve.plancache.compile_s": after["stages"]["compile_total_s"],
        "serve.degraded": grew("requests", "degraded"),
        "serve.timed_out": grew("requests", "timed_out"),
        "serve.rejected": grew("requests", "rejected"),
        "serve.shed": shed,
        "sim_model_time_ms": grew("sim_time_s") * 1e3,
    })
    return out


def verify(state: dict, cfg: RunConfig, out: Outcome) -> None:
    """Replay evenly spaced responses single-shot (bit-identical), and one of
    them through the reference executor."""
    import numpy as np

    from repro.core.engine import BrickDLEngine
    from repro.core.reference import ReferenceExecutor

    responses = out.evidence["responses"]
    indices = sorted(i for i, r in responses.items() if not r.degraded)
    if not indices:
        out.check_failures.append("no undegraded response to replay")
        return
    count = min(REPLAYED, len(indices))
    picked = sorted({indices[round(k * (len(indices) - 1) / max(count - 1, 1))]
                     for k in range(count)})
    engine = BrickDLEngine(state["graph"])
    plan = engine.compile()
    for index in picked:
        x = request_input(state["spec"], cfg.seed, index)
        single = engine.run(x, functional=True, plan=plan).outputs
        for name, want in single.items():
            if not np.array_equal(responses[index].outputs[name], want):
                out.check_failures.append(
                    f"request {index}: output {name!r} differs from single-shot")
    index = picked[len(picked) // 2]
    x = request_input(state["spec"], cfg.seed, index)
    for name, want in ReferenceExecutor(state["graph"]).run(x).items():
        got = responses[index].outputs[name]
        if not np.allclose(got, want, rtol=1e-5, atol=1e-6):
            out.check_failures.append(
                f"request {index}: output {name!r} differs from the reference "
                f"executor (max |diff| {np.abs(got - want).max():.3e})")


def traced_metrics(state: dict, cfg: RunConfig, rec, plain: Outcome,
                   traced: Outcome) -> dict:
    lookups = rec.aggregate().get("serve.plancache", {}).get("durations", [])
    return {"serve.plancache.lookup_us": median(lookups) * 1e6 if lookups else 0.0}
