"""Fleet scheduling: priority classes, EDF batching, quotas, pool, autoscaler.

The EDF property test (hypothesis) pins the scheduler's ordering
invariant: within any formed batch of an EDF class, requests are in
non-decreasing deadline order -- no admitted request is deadline-inverted
inside its batch.  The head-vs-EDF bit-identity test pins the complementary
serving invariant: batching *order* never changes result bits, only
latency.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionQueue,
    Autoscaler,
    AutoscalerConfig,
    DevicePool,
    FleetBatcher,
    InferenceServer,
    PriorityClass,
    ServeConfig,
    TenantQuotaError,
)
from repro.serve.request import InferenceRequest
from repro.serve.scheduler import edf_key

from testlib import input_for, small_chain_graph


def _request(loop, request_id=0, deadline_s=None, model="m", priority="edf"):
    now = loop.time()
    return InferenceRequest(
        request_id=request_id, input=None,
        deadline_s=None if deadline_s is None else now + deadline_s,
        enqueued_s=now, future=loop.create_future(),
        model=model, priority=priority)


EDF = PriorityClass(name="edf", rank=0, batching="edf")
HEAD = PriorityClass(name="head", rank=1, batching="head")


# ---------------------------------------------------------------------------
# EDF ordering property (hypothesis)
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(st.none(),
                          st.floats(min_value=0.001, max_value=10.0)),
                min_size=1, max_size=24))
def test_edf_batches_never_deadline_inverted(deadline_offsets):
    """Every batch an EDF class forms is sorted by (deadline, arrival)."""

    async def run():
        loop = asyncio.get_running_loop()
        queue = AdmissionQueue([EDF], depth=len(deadline_offsets) + 1)
        for i, offset in enumerate(deadline_offsets):
            queue.put_nowait(_request(loop, i, offset), "edf")
        batcher = FleetBatcher(queue, max_batch=8, max_wait_s=0.0)
        batches = []
        while not queue.empty() or not batches:
            _cls, batch = await batcher.next_batch()
            batches.append(batch)
        return batches

    batches = asyncio.run(run())
    served = [r.request_id for batch in batches for r in batch]
    assert sorted(served) == list(range(len(deadline_offsets)))
    for batch in batches:
        keys = [edf_key(r) for r in batch]
        assert keys == sorted(keys), f"deadline inversion in batch {keys}"


def test_edf_key_orders_deadline_free_last_fifo():
    async def run():
        loop = asyncio.get_running_loop()
        reqs = [_request(loop, 0, None), _request(loop, 1, 5.0),
                _request(loop, 2, None), _request(loop, 3, 1.0)]
        return sorted(reqs, key=edf_key)

    ordered = asyncio.run(run())
    assert [r.request_id for r in ordered] == [3, 1, 0, 2]


# ---------------------------------------------------------------------------
# head vs EDF: identical membership -> identical result bits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batching", ["head", "edf"])
def test_batching_mode_does_not_change_bits(batching):
    """A 4-request burst rides batches under either mode; every per-request
    output must be bit-identical to its mode-free single-shot run, so head
    vs EDF can only move latency, never values."""
    graph = small_chain_graph(name="serve_chain")
    config = ServeConfig(devices=1, max_batch=4, max_wait_s=0.2,
                         batching=batching)
    server = InferenceServer(graph, config=config)
    inputs = [input_for(graph, seed=i) for i in range(4)]

    async def run():
        async with server:
            # Decreasing deadlines: EDF reverses arrival order, head keeps it.
            return await asyncio.gather(*[
                server.submit(inputs[i], timeout_s=10.0 - i)
                for i in range(4)])

    responses = asyncio.run(run())
    assert any(r.batch_size > 1 for r in responses)
    from repro.core.engine import BrickDLEngine

    engine = BrickDLEngine(graph, spec=server.spec)
    plan = engine.compile()
    for i, resp in enumerate(responses):
        single = engine.run(inputs[i], functional=True, plan=plan).outputs
        for name, want in single.items():
            assert np.array_equal(resp.outputs[name], want), \
                f"{batching}: request {i} output {name} differs"


# ---------------------------------------------------------------------------
# admission queue and priority scheduling
# ---------------------------------------------------------------------------

def test_admission_queue_depth_is_shared_across_classes():
    async def run():
        loop = asyncio.get_running_loop()
        queue = AdmissionQueue([EDF, HEAD], depth=3)
        queue.put_nowait(_request(loop, 0, 1.0), "edf")
        queue.put_nowait(_request(loop, 1, priority="head"), "head")
        queue.put_nowait(_request(loop, 2, priority="head"), "head")
        with pytest.raises(asyncio.QueueFull):
            queue.put_nowait(_request(loop, 3, 1.0), "edf")
        assert queue.qsize() == 3
        assert queue.class_size("edf") == 1

    asyncio.run(run())


def test_admission_queue_rejects_unknown_class():
    async def run():
        loop = asyncio.get_running_loop()
        queue = AdmissionQueue([EDF], depth=4)
        with pytest.raises(KeyError):
            queue.put_nowait(_request(loop, 0), "nope")

    asyncio.run(run())


def test_pop_filters_by_model_leaving_others_queued():
    async def run():
        loop = asyncio.get_running_loop()
        queue = AdmissionQueue([EDF, HEAD], depth=8)
        queue.put_nowait(_request(loop, 0, 1.0, model="a"), "edf")
        queue.put_nowait(_request(loop, 1, 0.5, model="b"), "edf")
        queue.put_nowait(_request(loop, 2, 0.7, model="b"), "edf")
        got = queue.pop("edf", model="b")
        assert got.request_id == 1  # earliest deadline among model b
        assert queue.class_size("edf") == 2
        assert queue.pop("edf", model="c") is None
        # Head classes filter in arrival order.
        queue.put_nowait(_request(loop, 3, model="a", priority="head"), "head")
        queue.put_nowait(_request(loop, 4, model="b", priority="head"), "head")
        assert queue.pop("head", model="b").request_id == 4

    asyncio.run(run())


def test_higher_rank_class_is_served_first():
    async def run():
        loop = asyncio.get_running_loop()
        queue = AdmissionQueue([EDF, HEAD], depth=8)
        queue.put_nowait(_request(loop, 0, priority="head"), "head")
        queue.put_nowait(_request(loop, 1, priority="head"), "head")
        queue.put_nowait(_request(loop, 2, 1.0), "edf")
        batcher = FleetBatcher(queue, max_batch=8, max_wait_s=0.0)
        cls, batch = await batcher.next_batch()
        return cls.name, [r.request_id for r in batch]

    name, ids = asyncio.run(run())
    assert name == "edf" and ids == [2]


def test_preemption_cuts_lower_class_coalescing_window():
    async def run():
        loop = asyncio.get_running_loop()
        queue = AdmissionQueue([EDF, HEAD], depth=8)
        cuts = []
        batcher = FleetBatcher(queue, max_batch=8, max_wait_s=0.5,
                               on_preempt=lambda c, t, n: cuts.append((c.name, t.name, n)))
        queue.put_nowait(_request(loop, 0, priority="head"), "head")
        task = asyncio.create_task(batcher.next_batch())
        await asyncio.sleep(0.02)   # batcher is now coalescing the head class
        queue.put_nowait(_request(loop, 1, 1.0), "edf")
        cls, batch = await asyncio.wait_for(task, timeout=1.0)
        assert cls.name == "head" and len(batch) == 1
        assert len(cuts) == 1   # one on_preempt call per cut
        assert cuts == [("head", "edf", 1)]
        cls2, batch2 = await batcher.next_batch()
        assert cls2.name == "edf" and batch2[0].request_id == 1

    asyncio.run(run())


# ---------------------------------------------------------------------------
# tenant quotas
# ---------------------------------------------------------------------------

def test_tenant_quota_sheds_flood_but_not_other_tenants():
    graph = small_chain_graph(name="serve_chain")
    config = ServeConfig(devices=1, max_batch=4, max_wait_s=0.02,
                         functional=False, tenant_quotas={"greedy": 2})
    server = InferenceServer(graph, config=config)

    async def run():
        async with server:
            results = await asyncio.gather(
                *[server.submit(None, tenant="greedy") for _ in range(4)],
                server.submit(None, tenant="polite"),
                return_exceptions=True)
        return results

    results = asyncio.run(run())
    quota_errors = [r for r in results if isinstance(r, TenantQuotaError)]
    assert len(quota_errors) == 2
    assert all(e.tenant == "greedy" for e in quota_errors)
    assert not isinstance(results[-1], Exception)   # polite tenant admitted
    stats = server.stats()
    assert stats["tenants"]["greedy"]["shed"] == 2
    assert stats["tenants"]["greedy"]["completed"] == 2
    assert stats["tenants"]["polite"]["shed"] == 0
    shed = server.registry.counter("serve_requests_shed", reason="quota",
                                   tenant="greedy",
                                   **{"class": "standard"})
    assert shed.value == 2


# ---------------------------------------------------------------------------
# device pool
# ---------------------------------------------------------------------------

async def _idle_worker(index, queue):
    while True:
        item = await queue.get()
        if item is None:
            return


def test_device_pool_retires_idle_device_and_skips_stale_token():
    async def run():
        pool = DevicePool(_idle_worker)
        a = pool.spawn()
        b = pool.spawn()
        assert pool.size == 2
        first = await pool.acquire()   # FIFO rotation: oldest first
        assert first == a and pool.busy == 1
        retired = pool.retire_one()
        assert retired == b            # LIFO retirement: newest goes first
        assert pool.size == 1
        # b was idle: its sentinel lands now and its task exits.
        await asyncio.wait_for(pool._tasks[b], timeout=1.0)
        pool.release(a)
        # Idle queue now holds [b (dead token), a]; acquire must skip b.
        index = await asyncio.wait_for(pool.acquire(), timeout=1.0)
        assert index == a
        pool.release(a)
        for t in pool.tasks():
            t.cancel()

    asyncio.run(run())


def test_device_pool_busy_device_finishes_before_retiring():
    served = []

    async def worker(index, queue):
        while True:
            item = await queue.get()
            if item is None:
                return
            served.append(item)
            pool.release(index)

    async def run():
        nonlocal pool
        pool = DevicePool(worker)
        a = pool.spawn()
        index = await pool.acquire()
        assert index == a and pool.busy == 1
        pool.retire_one()              # busy: retirement is deferred
        pool.dispatch(index, "batch-1")
        await asyncio.sleep(0.01)
        assert served == ["batch-1"]   # in-flight work completed
        await asyncio.wait_for(asyncio.gather(*pool.tasks()), timeout=1.0)
        assert pool.size == 0

    pool = None
    asyncio.run(run())


# ---------------------------------------------------------------------------
# autoscaler control law
# ---------------------------------------------------------------------------

def test_autoscaler_hysteresis_cooldown_and_bounds():
    async def run():
        pool = DevicePool(_idle_worker)
        pool.spawn()
        signals = {"depth": 0, "burn": 0.0}
        config = AutoscalerConfig(min_devices=1, max_devices=3,
                                  interval_s=1.0, hysteresis_ticks=2,
                                  cooldown_s=5.0,
                                  scale_up_queue_per_device=4.0,
                                  scale_down_queue_per_device=0.5)
        scaler = Autoscaler(config, pool,
                            lambda: (signals["depth"], signals["burn"]))
        signals["depth"] = 10
        assert scaler.tick(1.0) is None          # 1 hot tick: hysteresis holds
        event = scaler.tick(2.0)                 # 2nd hot tick: scale up
        assert event.direction == "up" and pool.size == 2
        assert scaler.tick(3.0) is None          # cooling down
        assert scaler.tick(4.0) is None
        event = scaler.tick(8.0)                 # cooldown over, still hot
        assert event.direction == "up" and pool.size == 3
        signals["depth"] = 50
        assert scaler.tick(14.0) is None         # at max_devices: no event
        assert scaler.tick(15.0) is None
        signals["depth"] = 0
        assert scaler.tick(20.0) is None         # 1 idle tick
        event = scaler.tick(21.0)                # 2nd idle tick: scale down
        assert event.direction == "down" and event.reason == "idle"
        assert pool.size == 2
        assert scaler.scale_ups == 2 and scaler.scale_downs == 1
        assert [e.direction for e in scaler.events] == ["up", "up", "down"]
        for t in pool.tasks():
            t.cancel()

    asyncio.run(run())


def test_autoscaler_burn_signal_scales_up():
    async def run():
        pool = DevicePool(_idle_worker)
        pool.spawn()
        config = AutoscalerConfig(min_devices=1, max_devices=2,
                                  hysteresis_ticks=1)
        scaler = Autoscaler(config, pool, lambda: (0, 5.0))
        event = scaler.tick(1.0)
        assert event.direction == "up" and event.reason == "burn"
        for t in pool.tasks():
            t.cancel()

    asyncio.run(run())
