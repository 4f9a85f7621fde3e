"""Serving layer: batcher, plan cache, server lifecycle, degradation paths."""

import asyncio

import numpy as np
import pytest

from repro.core.plan import Strategy
from repro.gpusim.spec import A100, GPUSpec
from repro.metrics import MetricsRegistry
from repro.serve import (
    AdmissionQueue,
    FleetBatcher,
    InferenceServer,
    PlanCache,
    PlanKey,
    PriorityClass,
    QueueSaturatedError,
    ServeConfig,
    batch_bucket,
    loadgen,
    run_loadgen,
)
from repro.serve.plancache import CompiledEntry
from repro.serve.request import InferenceRequest, ServerClosedError

from testlib import input_for, small_chain_graph


def _request(loop, request_id=0, deadline_s=None):
    now = loop.time()
    return InferenceRequest(
        request_id=request_id, input=None,
        deadline_s=None if deadline_s is None else now + deadline_s,
        enqueued_s=now, future=loop.create_future())


def profile_server(graph=None, **overrides) -> InferenceServer:
    graph = graph if graph is not None else small_chain_graph(name="serve_chain")
    overrides.setdefault("functional", False)
    overrides.setdefault("max_wait_s", 0.005)
    return InferenceServer(graph, config=ServeConfig(**overrides))


# ---------------------------------------------------------------------------
# batch buckets
# ---------------------------------------------------------------------------

def test_batch_bucket_rounds_up_to_power_of_two():
    assert [batch_bucket(n, 8) for n in (1, 2, 3, 4, 5, 7, 8)] == \
        [1, 2, 4, 4, 8, 8, 8]


def test_batch_bucket_caps_at_max_batch():
    assert batch_bucket(5, 4) == 5  # never smaller than the batch itself
    assert batch_bucket(3, 4) == 4


def test_batch_bucket_rejects_nonpositive():
    with pytest.raises(ValueError):
        batch_bucket(0, 8)


# ---------------------------------------------------------------------------
# fleet batcher over one default class (the single-model batching contract)
# ---------------------------------------------------------------------------

def _default_queue():
    return AdmissionQueue([PriorityClass()])


def test_batcher_coalesces_queued_requests():
    async def scenario():
        loop = asyncio.get_running_loop()
        queue = _default_queue()
        batcher = FleetBatcher(queue, max_batch=4, max_wait_s=0.05)
        for i in range(6):
            queue.put_nowait(_request(loop, i), "standard")
        batches = [(await batcher.next_batch())[1] for _ in range(2)]
        return batches, queue.qsize()

    (first, second), left = asyncio.run(scenario())
    assert [r.request_id for r in first] == [0, 1, 2, 3]  # capped at max_batch
    assert [r.request_id for r in second] == [4, 5]       # flushed on timeout
    assert left == 0   # the two batches drained the queue
    assert all(r.batched_s is not None for r in first + second)


def test_batcher_head_anchored_wait_admits_stragglers():
    async def scenario():
        loop = asyncio.get_running_loop()
        queue = _default_queue()
        batcher = FleetBatcher(queue, max_batch=8, max_wait_s=0.2)
        queue.put_nowait(_request(loop, 0), "standard")

        async def straggler():
            await asyncio.sleep(0.02)
            queue.put_nowait(_request(loop, 1), "standard")

        task = asyncio.create_task(straggler())
        cls, batch = await batcher.next_batch()
        await task
        return cls, batch

    cls, batch = asyncio.run(scenario())
    assert cls.name == "standard"
    assert [r.request_id for r in batch] == [0, 1]


def test_batcher_flushes_early_for_head_deadline():
    async def scenario():
        loop = asyncio.get_running_loop()
        queue = _default_queue()
        # max_wait is huge; only the head's deadline can trigger the flush.
        batcher = FleetBatcher(queue, max_batch=8, max_wait_s=10.0)
        queue.put_nowait(_request(loop, 0, deadline_s=0.03), "standard")
        t0 = loop.time()
        _, batch = await batcher.next_batch()
        return batch, loop.time() - t0

    batch, waited = asyncio.run(scenario())
    assert [r.request_id for r in batch] == [0]
    assert waited < 1.0  # flushed around the deadline, not max_wait


def test_batcher_validates_parameters():
    queue = _default_queue()
    with pytest.raises(ValueError):
        FleetBatcher(queue, max_batch=0)
    with pytest.raises(ValueError):
        FleetBatcher(queue, max_wait_s=-1.0)


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

def _entry(key: PlanKey) -> CompiledEntry:
    class _Plan:
        subgraphs = ()

    return CompiledEntry(key=key, engine=None, plan=_Plan(), plan_digest="d" * 16)


def _key(bucket: int, model: str = "m", **kwargs) -> PlanKey:
    return PlanKey(model=model, batch_bucket=bucket, spec=A100, **kwargs)


def test_plan_key_digest_covers_every_field():
    base = _key(4)
    assert base.digest() == _key(4).digest()
    assert base.digest() != _key(8).digest()
    assert base.digest() != _key(4, model="other").digest()
    assert base.digest() != _key(4, strategy=Strategy.PADDED).digest()
    assert base.digest() != _key(4, brick=16).digest()
    small = GPUSpec(name="tiny", l2_bytes=A100.l2_bytes // 2)
    assert base.digest() != PlanKey(model="m", batch_bucket=4, spec=small).digest()


def test_plan_cache_hit_after_warmup_and_counters():
    registry = MetricsRegistry()
    cache = PlanCache(registry, capacity=4)
    key = _key(2)
    compiles = []

    def compile_fn(k):
        compiles.append(k)
        return _entry(k)

    entry, hit = cache.get_or_compile(key, compile_fn)
    assert not hit and len(compiles) == 1
    entry2, hit2 = cache.get_or_compile(key, compile_fn)
    assert hit2 and entry2 is entry and len(compiles) == 1  # warm: no recompile
    assert registry.total("serve_plan_cache_hits") == 1
    assert registry.total("serve_plan_cache_misses") == 1
    assert cache.partition_stats()["m"]["hit_ratio"] == 0.5


def test_plan_cache_lru_eviction():
    registry = MetricsRegistry()
    cache = PlanCache(registry, capacity=2)
    cache.put(_entry(_key(1)))
    cache.put(_entry(_key(2)))
    assert cache.get(_key(1)) is not None  # touch 1 -> 2 becomes LRU
    cache.put(_entry(_key(4)))             # evicts bucket 2
    assert registry.total("serve_plan_cache_evictions") == 1
    assert cache.get(_key(2)) is None
    assert cache.get(_key(1)) is not None
    assert cache.get(_key(4)) is not None
    assert len(cache) == 2


def test_plan_cache_snapshot_describes_entries():
    cache = PlanCache(MetricsRegistry(), capacity=2)
    cache.put(_entry(_key(2, strategy=Strategy.WAVEFRONT)))
    (desc,) = cache.snapshot()
    assert desc["batch_bucket"] == 2
    assert desc["strategy"] == "wavefront"
    assert desc["plan_digest"] == "d" * 16


def test_plan_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PlanCache(MetricsRegistry(), capacity=0)


# ---------------------------------------------------------------------------
# server end-to-end
# ---------------------------------------------------------------------------

def test_serve_requires_batch_one_graph():
    from repro.errors import ExecutionError
    from repro.graph.transforms import rebatch_graph

    batched = rebatch_graph(small_chain_graph(), 4)
    with pytest.raises(ExecutionError, match="batch 1"):
        InferenceServer(batched)


def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(devices=0)
    with pytest.raises(ValueError):
        ServeConfig(queue_depth=0)
    with pytest.raises(ValueError):
        ServeConfig(saturation_policy="drop")


def test_submit_on_closed_server_raises():
    server = profile_server()
    with pytest.raises(ServerClosedError):
        asyncio.run(server.submit(None))


def test_serve_closed_loop_cache_warmup_and_stats():
    server = profile_server(devices=2, max_batch=4, cache_capacity=4)
    report = loadgen(server, requests=24, mode="closed", concurrency=6)
    assert report.completed == 24
    assert report.rejected == 0
    stats = server.stats()
    assert stats["requests"]["completed"] == 24
    # Warmup compiles at most one plan per pow2 bucket; everything after
    # rides the cache.
    assert stats["plan_cache"]["misses"] <= 3  # buckets 1, 2, 4
    assert stats["plan_cache"]["hits"] > 0
    assert stats["plan_cache"]["request_hit_ratio"] > 0.5
    assert stats["batches"]["count"] \
        == server.registry.counter("serve_batches").value > 0
    assert stats["latency_s"]["p99"] >= stats["latency_s"]["p50"] > 0
    assert stats["throughput_rps"] > 0
    assert stats["sim_time_s"] > 0


def test_serve_functional_batched_matches_single_shot():
    graph = small_chain_graph(name="serve_func")
    server = InferenceServer(
        graph, config=ServeConfig(devices=1, max_batch=4, max_wait_s=0.005))

    async def scenario():
        async with server:
            # verify=4 re-runs responses single-shot and raises on any
            # bitwise difference.
            return await run_loadgen(server, requests=8, mode="closed",
                                     concurrency=4, verify=4)

    report = asyncio.run(scenario())
    assert report.completed == 8
    assert report.verified == 4


def test_served_response_holds_one_view_of_its_primary_output():
    """A functional response's ``output`` is its ``outputs`` entry of the
    graph's primary output, the same object, and the response has slots,
    no ``__dict__``: a client keeping responses keeps one view per output."""
    graph = small_chain_graph(name="serve_one_view")
    server = InferenceServer(graph, config=ServeConfig(devices=1, max_batch=4, max_wait_s=0.005))

    async def scenario():
        async with server:
            return await asyncio.gather(*[server.submit(input_for(graph, seed=i)) for i in range(4)])

    for response in asyncio.run(scenario()):
        primary = next(iter(response.outputs))
        assert response.output is response.outputs[primary]
        assert response.output.shape[0] == 1
        assert not hasattr(response, "__dict__")


def test_batched_fallback_convs_match_single_shot():
    """Reduced resnet50 runs its late convs through the fallback path's
    full-tensor kernels; batched, each sample still takes the batch-1 GEMM,
    so a served batch of 8 verifies bit for bit."""
    from repro.models import zoo

    server = InferenceServer(zoo.build("resnet50", reduced=True), config=ServeConfig(
        devices=1, max_batch=8, max_wait_s=0.005))

    async def scenario():
        async with server:
            return await run_loadgen(server, requests=16, mode="closed",
                                     concurrency=8, verify=8)

    report = asyncio.run(scenario())
    assert report.mean_batch >= 2
    assert report.verified == 8


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_functional_cache_hits_compute_values_only(traced, monkeypatch):
    """Three batches on one bucket: the first simulates, the hits run
    ``BrickDLEngine.values`` and report what the first one counted -- the
    same simulated time a fresh profile run of the entry gives, the same
    span tree -- with outputs bit-identical to single-shot."""
    from repro.core.plan import adapt_sectors
    from repro.gpusim.device import Device
    from repro.obs import Tracer, check_completeness
    from repro.serve.loadgen import _request_input, verify_served

    graph = small_chain_graph(name="serve_hits")
    tracer = Tracer() if traced else None
    server = InferenceServer(graph, tracer=tracer, config=ServeConfig(
        devices=1, max_batch=4, max_wait_s=0.005))
    submits = []
    real_submit = Device.submit
    monkeypatch.setattr(Device, "submit",
                        lambda self, task: submits.append(1) or real_submit(self, task))

    async def scenario():
        rounds = []
        async with server:
            for r in range(3):
                rounds.append(await asyncio.gather(*[
                    server.submit(_request_input(graph, 4 * r + i, 0)) for i in range(4)]))
                rounds[-1] = (rounds[-1], len(submits))
        return rounds

    rounds = asyncio.run(scenario())
    assert [len(batch) for batch, _ in rounds] == [4, 4, 4]
    first_submits = rounds[0][1]
    assert first_submits > 0 and all(n == first_submits for _, n in rounds)
    responses = [(4 * r + i, resp) for r, (batch, _) in enumerate(rounds)
                 for i, resp in enumerate(batch)]
    assert [resp.cache_hit for _, resp in responses] == [False] * 4 + [True] * 8
    assert {resp.batch_size for _, resp in responses} == {4}
    assert verify_served(server, responses, 0) == 12

    (entry,) = server.cache._partitions[graph.name].values()
    fresh = entry.engine.run(device=Device(adapt_sectors(server.spec, entry.plan)),
                             plan=entry.plan).metrics
    assert all(resp.sim_time_s == fresh.total_time for _, resp in responses)
    assert entry.num_tasks == fresh.num_tasks
    assert (entry.task_spans is not None) == traced

    if traced:
        report = check_completeness(tracer.entries)
        assert report.ok, report.problems
        spans = [e for e in tracer.entries if e["type"] == "span"]
        executes = [s for s in spans if s["kind"] == "execute"]
        assert len(executes) == 3
        children = [sum(1 for s in spans if s["kind"] == "task"
                        and s["parent_id"] == e["span_id"]) for e in executes]
        assert children == [min(fresh.num_tasks, 2048)] * 3
        assert all(e["attrs"]["num_tasks"] == fresh.num_tasks for e in executes)


def test_device_threads_racing_on_a_cold_entry_agree():
    """Four worker threads share each entry's kept counts: whichever thread
    simulated first, every batch of a bucket reports the same simulated
    time, and every response is bit-identical to single-shot."""
    import sys

    from repro.serve.loadgen import _request_input, verify_served

    graph = small_chain_graph(name="serve_race")
    server = InferenceServer(graph, config=ServeConfig(devices=4, max_batch=2, max_wait_s=0.001))

    async def scenario():
        async with server:
            return await asyncio.wait_for(asyncio.gather(*[
                server.submit(_request_input(graph, i, 0)) for i in range(32)]), timeout=120)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        responses = asyncio.run(scenario())
    finally:
        sys.setswitchinterval(interval)
    entries = {e.key.batch_bucket: e for e in server.cache._partitions[graph.name].values()}
    assert len({r.device for r in responses}) > 1
    assert all(r.sim_time_s == entries[r.batch_bucket].sim_time_s for r in responses)
    assert verify_served(server, list(enumerate(responses)), 0) == 32
    # One plan-cache lookup per batch, however the devices raced: a lost
    # registry update would break the sum.
    stats = server.stats()
    cache = stats["plan_cache"]
    assert cache["hits"] + cache["misses"] == stats["batches"]["count"]
    assert cache["partitions"][graph.name]["misses"] == cache["misses"] == len(entries)


@pytest.mark.parametrize("bad",[np.zeros((1, 3, 49, 48), np.float32), np.float32(1.0)],
                         ids=["wrong-spatial", "scalar"])
def test_bad_input_is_refused_before_admission_and_spares_its_batch(bad):
    """A request whose input does not fit the model fails alone, at submit,
    like an unknown model: no series moves, no SLO debit, no future; the
    requests it arrived with are served as if it had not come."""
    from repro.errors import ExecutionError

    graph = small_chain_graph(name="serve_shapes")
    server = InferenceServer(graph, config=ServeConfig(
        devices=1, max_batch=4, max_wait_s=0.005))
    x = input_for(graph, seed=0)

    async def scenario():
        async with server:
            results = await asyncio.gather(
                server.submit(x), server.submit(bad), server.submit(x),
                server.submit(x[0]), return_exceptions=True)
            return results, len(server._pending)

    results, pending = asyncio.run(scenario())
    assert isinstance(results[1], ExecutionError) and "does not fit" in str(results[1])
    good = [results[0], results[2], results[3]]
    assert all(r.output.shape == (1, 10) and r.batch_size == 3 for r in good)
    assert all(np.array_equal(r.output, good[0].output) for r in good)
    assert pending == 0
    stats = server.stats()
    assert stats["requests"]["completed"] == 3 and stats["slo"]["events"] == 3
    assert server.registry.total("serve_requests_failed") == 0


def test_serve_backpressure_rejects_when_saturated():
    server = profile_server(devices=1, max_batch=2, queue_depth=1,
                            saturation_policy="reject")

    async def scenario():
        async with server:
            results = await asyncio.gather(
                *[server.submit(None) for _ in range(16)],
                return_exceptions=True)
        return results

    results = asyncio.run(scenario())
    served = [r for r in results if not isinstance(r, Exception)]
    rejected = [r for r in results if isinstance(r, QueueSaturatedError)]
    assert len(served) + len(rejected) == 16
    assert rejected, "queue_depth=1 under a 16-burst must shed load"
    assert server.stats()["requests"]["rejected"] == len(rejected)
    assert not any(r.degraded for r in served)  # reject policy never degrades


def test_serve_saturation_degrades_to_fallback():
    server = profile_server(devices=1, max_batch=2, queue_depth=1,
                            saturation_policy="degrade")

    async def scenario():
        async with server:
            return await asyncio.gather(
                *[server.submit(None) for _ in range(16)])

    results = asyncio.run(scenario())
    assert len(results) == 16
    degraded = [r for r in results if r.degraded]
    assert degraded, "degrade policy must shed load via the fallback path"
    assert server.stats()["requests"]["rejected"] == 0
    assert all(r.batch_size == 1 for r in degraded)  # fallback is single-shot


def test_serve_timeout_degrades_to_fallback():
    # deadline 0: every request expires while queued and must take the
    # single-shot cuDNN-fallback path instead of riding a batch.
    server = profile_server(devices=1, default_timeout_s=0.0)

    async def scenario():
        async with server:
            return await asyncio.gather(
                *[server.submit(None) for _ in range(6)])

    results = asyncio.run(scenario())
    assert all(r.timed_out and r.degraded for r in results)
    stats = server.stats()
    assert stats["requests"]["timed_out"] == 6
    assert server.registry.counter("serve_requests_timed_out").value == 6
    assert stats["requests"]["degraded"] == 6


@pytest.mark.parametrize("overrides", [{"queue_depth": 1, "saturation_policy": "degrade"},
                                       {"default_timeout_s": 0.0}], ids=["saturated", "timed-out"])
def test_degraded_responses_equal_single_shot_values(overrides):
    """A degraded response took the all-cuDNN fallback plan, whose values
    come from the same layer-by-layer sweep as the merged plan's: its
    outputs equal a single-shot ``engine.values`` of the server's own plan
    bit for bit."""
    from repro.core.engine import BrickDLEngine

    graph = small_chain_graph(name="serve_degraded")
    server = InferenceServer(graph, config=ServeConfig(devices=1, max_batch=2, max_wait_s=0.005,
                                                       **overrides))
    xs = [input_for(graph, seed=i) for i in range(16)]

    async def scenario():
        async with server:
            return await asyncio.gather(*[server.submit(x) for x in xs])

    degraded = [(x, r) for x, r in zip(xs, asyncio.run(scenario())) if r.degraded]
    assert degraded
    engine = BrickDLEngine(server.graphs[degraded[0][1].model], spec=server.spec)
    plan = engine.compile()
    assert plan.merged_count >= 1  # the fallback plan is another plan
    for x, response in degraded:
        want = engine.values(x, plan)
        assert response.outputs.keys() == want.keys()
        for name in want:
            assert response.outputs[name].tobytes() == want[name].tobytes(), name


# ---------------------------------------------------------------------------
# every request ends in one place: failures, and a mixed-outcome session
# ---------------------------------------------------------------------------

def _fail_engine_runs(monkeypatch, should_fail):
    """Make ``BrickDLEngine.run`` raise whenever ``should_fail()`` is true."""
    from repro.core.engine import BrickDLEngine

    real_run = BrickDLEngine.run

    def run(self, *args, **kwargs):
        if should_fail():
            raise RuntimeError("injected device fault")
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(BrickDLEngine, "run", run)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_failed_batch_is_accounted_once_and_server_keeps_serving(
        traced, tmp_path, monkeypatch):
    from repro.obs import Tracer, check_completeness

    tracer = Tracer(log_path=tmp_path / "spans.jsonl") if traced else None
    server = InferenceServer(
        small_chain_graph(name="serve_fail"), tracer=tracer,
        config=ServeConfig(devices=1, max_batch=4, functional=False,
                           max_wait_s=0.005))
    runs = []
    _fail_engine_runs(monkeypatch, lambda: runs.append(1) or len(runs) == 1)

    async def scenario():
        async with server:
            first = await asyncio.gather(
                *[server.submit(None) for _ in range(8)],
                return_exceptions=True)
            inflight = dict(server._tenant_inflight)
            second = await asyncio.gather(
                *[server.submit(None) for _ in range(4)])
        return first, inflight, second

    first, inflight, second = asyncio.run(scenario())
    failed = [r for r in first if isinstance(r, Exception)]
    assert len(failed) == 4                         # the whole first batch
    assert all(isinstance(e, RuntimeError) and "injected" in str(e)
               for e in failed)
    assert len({id(e) for e in failed}) == 1        # the execution's own
    assert inflight == {} and server._tenant_inflight == {}
    assert not server._pending
    # The second wave is served normally on the same server.
    assert all(r.deadline_met and not r.degraded for r in second)

    stats = server.stats()
    assert "failed" not in stats["requests"]        # the manifest shape holds
    assert stats["requests"] == {"completed": 8, "degraded": 0,
                                 "timed_out": 0, "rejected": 0}
    # Debited exactly once each, and every roll-up agrees with the SLO.
    assert stats["slo"]["events"] == 12
    assert stats["slo"]["attainment"] == pytest.approx(8 / 12)
    cls = stats["classes"]["standard"]
    assert cls["attainment"] == stats["slo"]["attainment"]
    n_failed = server.registry.total("serve_requests_failed",
                                     **{"class": "standard"})
    assert cls["completed"] + cls["shed"] + n_failed == 12
    assert n_failed == 4

    if traced:
        completeness = check_completeness(tracer.entries)
        assert completeness.ok, completeness.problems
        assert completeness.request_roots == 12
        roots = [e for e in tracer.entries
                 if e["type"] == "span" and e["kind"] == "request"]
        errored = [r for r in roots if r["status"] == "error"]
        assert len(errored) == 4
        assert all("injected" in r["attrs"]["error"] for r in errored)
        assert sum(r["status"] == "ok" for r in roots) == 8
        errors = [e for e in tracer.entries
                  if e["type"] == "event" and e["name"] == "error"]
        assert len(errors) == 1                     # one failed batch
        # ... and one flight dump for it, naming the batch's head request.
        dump = server.tracer.dumps["error"]
        assert dump["request_id"] == 0
        assert (tmp_path / "flightrec-error.json").exists()
        # Taken after the batch's requests resolved: it holds their roots.
        dumped = [e for e in dump["entries"] if e["type"] == "span"
                  and e["kind"] == "request" and e["status"] == "error"]
        assert len(dumped) == 4


def test_mixed_outcomes_each_request_reaches_the_terminal_once(monkeypatch):
    """ok + quota reject + saturated reject + timed-out fallback + failure
    in one session: one ``_finish`` per request, and every roll-up adds up."""
    from repro.serve import TenantQuotaError, server as srv

    server = profile_server(devices=1, max_batch=2, queue_depth=1,
                            saturation_policy="reject",
                            tenant_quotas={"greedy": 1})
    finished = []
    real_finish = server._finish

    def finish(req, outcome, *args, **kwargs):
        finished.append((req.request_id, outcome))
        return real_finish(req, outcome, *args, **kwargs)

    server._finish = finish
    failing = []
    _fail_engine_runs(monkeypatch, lambda: bool(failing))

    async def scenario():
        async with server:
            # The second greedy request finds its tenant at quota.
            quota = await asyncio.gather(
                server.submit(None, tenant="greedy"),
                server.submit(None, tenant="greedy"),
                return_exceptions=True)
            # queue_depth=1: the burst's first request queues, the rest shed.
            burst = await asyncio.gather(
                *[server.submit(None) for _ in range(3)],
                return_exceptions=True)
            late = await server.submit(None, timeout_s=0.0)
            failing.append(True)
            broken = (await asyncio.gather(server.submit(None),
                                           return_exceptions=True))[0]
            failing.clear()
            ok = await server.submit(None)
        return quota, burst, late, broken, ok

    quota, burst, late, broken, ok = asyncio.run(scenario())
    assert not isinstance(quota[0], Exception)
    assert isinstance(quota[1], TenantQuotaError)
    assert not isinstance(burst[0], Exception)
    assert all(type(r) is QueueSaturatedError for r in burst[1:])
    assert late.timed_out and late.degraded
    assert isinstance(broken, RuntimeError)
    assert not ok.degraded and ok.deadline_met

    # One terminal call per request, with the outcome each one met.
    assert sorted(rid for rid, _ in finished) == list(range(8))
    assert [outcome for _, outcome in sorted(finished, key=lambda f: f[0])] == [
        srv.SERVED, srv.REJECTED_QUOTA,
        srv.SERVED, srv.REJECTED_SATURATED, srv.REJECTED_SATURATED,
        srv.TIMED_OUT, srv.FAILED, srv.SERVED]

    stats = server.stats()
    assert stats["requests"] == {"completed": 4, "degraded": 1,
                                 "timed_out": 1, "rejected": 3}
    assert stats["slo"]["events"] == 8
    cls = stats["classes"]["standard"]
    assert (cls["completed"], cls["shed"]) == (4, 3)
    assert cls["shed_rate"] == pytest.approx(3 / 8)
    assert cls["attainment"] == stats["slo"]["attainment"]
    assert server.registry.total("serve_requests_failed") == 1
    assert stats["tenants"]["greedy"]["completed"] == 1
    assert stats["tenants"]["greedy"]["shed"] == 1
    assert stats["tenants"]["default"]["completed"] == 3
    assert stats["tenants"]["default"]["shed"] == 2
    assert server._tenant_inflight == {} and not server._pending


def test_serve_metrics_land_in_manifest():
    server = profile_server(devices=2, max_batch=4)
    loadgen(server, requests=12, mode="closed", concurrency=4)
    manifest = server.manifest(label="test", scale="small")
    doc = manifest.as_dict()
    assert doc["label"] == "test"
    assert doc["model"] == server.graph.name
    serve = doc["metrics"]["serve"]
    assert serve["requests"]["completed"] == 12
    assert serve["plan_cache"]["hits"] > 0
    assert doc["plan"]["cached"], "manifest must list the cached plans"
    for entry in doc["plan"]["cached"]:
        assert entry["plan_digest"]
        assert entry["batch_bucket"] >= 1
    names = {s["name"] for s in doc["registry"]["series"]}
    assert "serve_latency_s" in names
    assert "serve_batch_size" in names
    assert "serve_queue_depth" in names
    # A clean session leaves no trace of the failure series.
    assert "serve_requests_failed" not in names


@pytest.mark.parametrize("flags, fleet", [
    ([], 2), (["--devices", "3"], 3), (["--autoscale", "1:3"], 1)])
def test_cli_serve_reports_the_fleet_it_ran_on(capsys, flags, fleet):
    """``--autoscale MIN:MAX`` starts MIN devices whatever ``--devices``
    says; the summary line names the fleet the session ended with (two
    requests cannot queue deep enough to trip a scale-up)."""
    from repro.cli import main

    assert main(["serve", "mobilenet_v1", "--requests", "2", "--profile",
                 *flags]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"served 2 requests on {fleet} simulated device(s): ")


def test_loadgen_poisson_seeded_inputs_are_deterministic():
    from repro.serve.loadgen import _request_input

    graph = small_chain_graph()
    a = _request_input(graph, 3, seed=7)
    b = _request_input(graph, 3, seed=7)
    c = _request_input(graph, 4, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == graph.input_nodes[0].spec.shape


def test_loadgen_rejects_bad_mode_and_rate():
    server = profile_server()

    async def bad_mode():
        async with server:
            await run_loadgen(server, requests=1, mode="bursty")

    with pytest.raises(ValueError, match="mode"):
        asyncio.run(bad_mode())

    server2 = profile_server()

    async def bad_rate():
        async with server2:
            await run_loadgen(server2, requests=1, mode="poisson", rate=0.0)

    with pytest.raises(ValueError, match="rate"):
        asyncio.run(bad_rate())


def test_rebatch_graph_shares_weights_and_engine_for_batch():
    from repro.core.engine import BrickDLEngine
    from repro.graph.transforms import rebatch_graph

    graph = small_chain_graph(name="rebatch")
    graph.init_weights()
    batched = rebatch_graph(graph, 4)
    assert batched is not graph
    assert all(n.spec.batch == 4 for n in batched.input_nodes)
    for node in graph.nodes:
        if node.weights:
            twin = batched.node(node.name)
            # The audited clone: a fresh dict (mutating the clone cannot leak
            # into the source graph) holding the *same* arrays (no copies).
            assert twin.weights is not node.weights
            assert twin.weights.keys() == node.weights.keys()
            for key, array in node.weights.items():
                assert twin.weights[key] is array
    assert rebatch_graph(graph, 1) is graph  # no-op at the same batch

    engine = BrickDLEngine(graph)
    engine4 = engine.for_batch(4)
    assert all(n.spec.batch == 4 for n in engine4.graph.input_nodes)
    x = input_for(graph, seed=0)
    single = engine.run(x, functional=True).outputs
    stacked = np.concatenate([x] * 4, axis=0)
    batched_out = engine4.run(stacked, functional=True).outputs
    for name, want in single.items():
        assert np.array_equal(batched_out[name][0:1], want)

# ---------------------------------------------------------------------------
# plan-cache partitions (multi-model isolation)
# ---------------------------------------------------------------------------

def test_partition_compile_storm_cannot_evict_other_model():
    """Model A churning through its partition never touches B's hot plans."""
    registry = MetricsRegistry()
    cache = PlanCache(registry, capacity=2)
    cache.put(_entry(_key(1, model="b")))
    cache.put(_entry(_key(2, model="b")))
    for bucket in (1, 2, 4, 8, 16, 32):   # A's compile storm: 6 plans, room for 2
        cache.put(_entry(_key(bucket, model="a")))
    parts = cache.partition_stats()
    assert parts["a"]["evictions"] == 4 and parts["a"]["size"] == 2
    assert parts["b"]["evictions"] == 0 and parts["b"]["size"] == 2
    assert cache.get(_key(1, model="b")) is not None
    assert cache.get(_key(2, model="b")) is not None
    # Aggregates are exactly the partition sums (single-model manifest shape).
    assert registry.total("serve_plan_cache_evictions") == 4
    assert len(cache) == 4


def test_partition_counters_accurate_across_wraparound():
    """Hit/miss/eviction counters stay exact while an LRU partition wraps."""
    registry = MetricsRegistry()
    cache = PlanCache(registry, capacity=2)
    compiled = []

    def compile_fn(k):
        compiled.append(k.batch_bucket)
        return _entry(k)

    # Two passes over 4 buckets through a 2-entry partition: every lookup
    # misses (the bucket was evicted before its reuse) and every insert past
    # the first two evicts.
    for _ in range(2):
        for bucket in (1, 2, 4, 8):
            cache.get_or_compile(_key(bucket, model="wrap"), compile_fn)
    stats = cache.partition_stats()["wrap"]
    assert stats == {"capacity": 2, "size": 2, "hits": 0, "misses": 8,
                     "evictions": 6, "hit_ratio": 0.0}
    assert compiled == [1, 2, 4, 8] * 2
    # A hot key in LRU position survives: touch 8 then insert -> 4 evicted.
    assert cache.get(_key(8, model="wrap")) is not None
    cache.put(_entry(_key(16, model="wrap")))
    assert cache.get(_key(8, model="wrap")) is not None
    stats = cache.partition_stats()["wrap"]
    assert stats["hits"] == 2 and stats["evictions"] == 7
    assert registry.counter("serve_plan_cache_partition_hits",
                            partition="wrap").value == 2
    assert registry.counter("serve_plan_cache_partition_misses",
                            partition="wrap").value == 8
    assert registry.counter("serve_plan_cache_partition_evictions",
                            partition="wrap").value == 7
    # Aggregate counters (no partition label) match the partition's.
    assert registry.counter("serve_plan_cache_hits").value == 2
    assert registry.counter("serve_plan_cache_misses").value == 8


def test_partition_quota_defaults_and_validation():
    """Every partition gets the cache's uniform capacity."""
    cache = PlanCache(MetricsRegistry(), capacity=5)
    for model in ("anyone", "special"):
        cache.get(_key(1, model=model))   # first touch creates the partition
    parts = cache.partition_stats()
    assert parts["anyone"]["capacity"] == 5
    assert parts["special"]["capacity"] == 5
    with pytest.raises(ValueError, match="capacity"):
        PlanCache(MetricsRegistry(), capacity=0)


# ---------------------------------------------------------------------------
# multi-model fleet serving
# ---------------------------------------------------------------------------

def test_multi_model_server_routes_and_partitions():
    chain = small_chain_graph(name="chain_a")
    other = small_chain_graph(size=32, name="chain_b")
    server = InferenceServer(
        {"chain_a": chain, "chain_b": other},
        config=ServeConfig(functional=False, max_wait_s=0.005,
                           cache_capacity=1))

    async def run():
        async with server:
            ra = await server.submit(model="chain_a")
            rb = await server.submit(model="chain_b")
            rb2 = await server.submit(model="chain_b")
            return ra, rb, rb2

    ra, rb, rb2 = asyncio.run(run())
    assert ra.model == "chain_a" and rb.model == "chain_b"
    stats = server.stats()
    assert set(stats["models"]) == {"chain_a", "chain_b"}
    assert stats["models"]["chain_b"]["completed"] == 2
    parts = stats["plan_cache"]["partitions"]
    assert parts["chain_a"]["misses"] >= 1 and parts["chain_a"]["capacity"] == 1
    assert parts["chain_b"]["capacity"] == 1 and parts["chain_b"]["hits"] >= 1


def test_multi_model_server_rejects_unknown_model_and_dup_names():
    from repro.errors import ExecutionError

    chain = small_chain_graph(name="dup")
    with pytest.raises(ExecutionError, match="unique names"):
        InferenceServer([chain, small_chain_graph(size=32, name="dup")])
    server = profile_server()

    async def run():
        async with server:
            await server.submit(model="ghost")

    with pytest.raises(ExecutionError, match="not resident"):
        asyncio.run(run())
