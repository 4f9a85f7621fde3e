"""Observability: tracing, SLO burn rates, flight recorder, dashboards."""

import asyncio
import csv
import io
import json
import math

import pytest

from repro.metrics import MetricsRegistry
from repro.obs import (
    Tracer,
    check_completeness,
    list_traces,
    load_entries,
    merged_chrome_trace,
    render_dashboard,
    render_span_tree,
    run_top,
)
from repro.obs.context import Span
from repro.obs import tracer as tracer_module
from repro.obs.slo import SLOConfig, SLOMonitor, burn_rate
from repro.serve import InferenceServer, QueueSaturatedError, ServeConfig, loadgen
from repro.serve.loadgen import LATENCY_CSV_COLUMNS, run_loadgen

from testlib import small_chain_graph


def traced_server(tmp_path, **overrides):
    """Profile-mode server over the small chain graph, tracing to tmp_path."""
    graph = small_chain_graph(name="obs_chain")
    overrides.setdefault("functional", False)
    overrides.setdefault("max_wait_s", 0.005)
    tracer = Tracer(log_path=tmp_path / "spans.jsonl")
    server = InferenceServer(graph, config=ServeConfig(**overrides),
                             tracer=tracer)
    return server, tracer


def assert_log_slice(dump, entries):
    """A flight dump's entries are one contiguous run of the tracer's log:
    its last ``DUMP_ENTRIES`` entries when taken, all of it if shorter."""
    got = dump["entries"]
    start = (0 if len(got) < tracer_module.DUMP_ENTRIES
             else next(i for i, e in enumerate(entries) if e is got[0]))
    window = entries[start:start + len(got)]
    assert len(window) == len(got)
    assert all(a is b for a, b in zip(window, got))


# ---------------------------------------------------------------------------
# burn-rate math
# ---------------------------------------------------------------------------

def test_burn_rate_math():
    assert burn_rate(0, 100, 0.99) == 0.0
    assert burn_rate(1, 100, 0.99) == pytest.approx(1.0)
    assert burn_rate(5, 100, 0.99) == pytest.approx(5.0)
    assert burn_rate(0, 0, 0.99) == 0.0          # no traffic burns nothing
    assert burn_rate(1, 10, 1.0) == math.inf     # zero budget
    assert burn_rate(0, 10, 1.0) == 0.0


def test_slo_config_validation():
    with pytest.raises(ValueError):
        SLOConfig(objective=0.0)
    with pytest.raises(ValueError):
        SLOConfig(windows=((30.0, 5.0),))   # short > long
    with pytest.raises(ValueError):
        SLOConfig(burn_threshold=0.0)


def _oracle_alerts(events, config):
    """Brute-force reference: after every event, rescan the whole history
    for each window pair (no pruning, no shared scans); each pair fires
    once.  Returns ``(time_s, short_burn, long_burn)`` per alert."""
    fired, out = set(), []
    for n, (now, _) in enumerate(events, start=1):
        seen = events[:n]
        for pair in config.windows:
            counts = []
            for window in pair:
                inside = [g for t, g in seen if t >= now - window]
                counts.append((sum(not g for g in inside), len(inside)))
            burns = [burn_rate(bad, total, config.objective)
                     for bad, total in counts]
            if (pair not in fired and counts[0][1] >= config.min_events
                    and min(burns) > config.burn_threshold):
                fired.add(pair)
                out.append((now, *burns))
    return out


def _observe_all(monitor, events):
    return [a for now, good in events for a in monitor.observe(now, good)]


def test_burn_monitor_alert_needs_both_windows_and_latches():
    config = SLOConfig(objective=0.9, windows=((1.0, 10.0),),
                       burn_threshold=5.0, min_events=4)
    registry = MetricsRegistry()
    monitor = SLOMonitor(config, registry=registry)
    # Old good traffic keeps the long window healthy through a bad burst...
    healthy = ([(i * 0.2, True) for i in range(40)]
               + [(8.0 + i * 0.01, False) for i in range(6)])
    assert _observe_all(monitor, healthy) == []   # long window burn still low
    assert monitor.burn(1.0, 8.05) > 5.0 > monitor.burn(10.0, 8.05)
    # ...until the failure rate sustains across both windows.
    failing = [(20.0 + i * 0.2, False) for i in range(40)]
    alerts = _observe_all(monitor, failing)
    assert len(alerts) == 1              # latched: one alert per window pair
    assert alerts[0].short_burn > 5.0 and alerts[0].long_burn > 5.0
    assert monitor.observe(29.0, False) == []
    assert [(a.time_s, a.short_burn, a.long_burn) for a in alerts] == \
        _oracle_alerts(healthy + failing, config)
    # The gauges carry the same burns the alert test saw last.
    gauges = {s.label_dict()["window"]: s.value for s in registry.samples()
              if s.name == "slo_burn_rate"}
    assert gauges == {"1s": monitor.burn(1.0, 29.0),
                      "10s": monitor.burn(10.0, 29.0)}
    stats = monitor.stats()
    assert stats["alerts_fired"] == 1 and stats["events"] == 87
    assert stats["alerts"] == [alerts[0].as_dict()]


def test_burn_monitor_min_events_guard():
    config = SLOConfig(objective=0.5, min_events=10, burn_threshold=1.0)
    monitor = SLOMonitor(config)
    events = [(float(i) * 0.01, False) for i in range(9)]
    assert _observe_all(monitor, events) == []   # 9 events < min_events
    assert _oracle_alerts(events, config) == []
    assert len(monitor.observe(0.09, False)) == 1   # the tenth arms it


# ---------------------------------------------------------------------------
# tracer + span log
# ---------------------------------------------------------------------------

def test_tracer_jsonl_roundtrip(tmp_path):
    tracer = Tracer(log_path=tmp_path / "t.jsonl")
    root = tracer.start_span("request", kind="request", request_id=7)
    child = tracer.start_span("batch", parent=root, kind="batch", size=2)
    tracer.end_span(child)
    tracer.event("timeout", ctx=root, queued_s=0.5)
    tracer.end_span(root, status="deadline_missed")
    tracer.close()

    entries = load_entries(tmp_path / "t.jsonl")
    assert [e["type"] for e in entries] == ["span", "event", "span"]
    spans = [Span.from_dict(e) for e in entries if e["type"] == "span"]
    assert {s.name for s in spans} == {"request", "batch"}
    for span, entry in zip(spans, [e for e in entries if e["type"] == "span"]):
        assert span.as_dict() == entry   # lossless dict <-> Span roundtrip
    assert spans[0].parent_id == spans[1].span_id  # completion-ordered log
    event = next(e for e in entries if e["type"] == "event")
    assert event["trace_id"] == root.trace_id
    assert event["attrs"]["queued_s"] == 0.5


def test_tracer_ids_are_deterministic():
    a, b = Tracer(), Tracer()
    sa = a.start_span("request")
    sb = b.start_span("request")
    assert (sa.trace_id, sa.span_id) == (sb.trace_id, sb.span_id)


def test_task_spans_keep_the_first_2048_tasks_and_the_whole_makespan():
    from repro.gpusim.trace import Task
    from repro.obs.tracer import TaskSpans

    tasks = [Task(f"t{i}", flops=2, node_id=1, worker=i % 4, start_s=float(i), end_s=i + 1.0,
                  brick=(i, 0), batch_index=0, seq=i, dram_txns=i)
             for i in range(2050)]
    kept = TaskSpans.of(tasks)
    assert (len(kept.rows), kept.sim_span, kept.count) == (2048, 2050.0, 2050)
    assert not hasattr(kept.rows[0], "accesses")

    tracer = Tracer()
    parent = tracer.start_span("execute", kind="execute", start_s=0.0)
    tracer.end_span(parent, end_s=1.0)
    assert tracer.emit_task_spans(kept, parent) == 2048
    spans = [e for e in tracer.entries if e["type"] == "span" and e["kind"] == "task"]
    assert spans[-1]["attrs"]["sim_end_s"] == 2048.0
    assert spans[-1]["end_s"] == pytest.approx(2048 / 2050)
    (event,) = [e for e in tracer.entries if e["type"] == "event"]
    assert event["attrs"] == {"dropped": 2, "limit": 2048}


def test_traced_loadgen_every_task_span_reaches_a_request_root(tmp_path):
    server, tracer = traced_server(tmp_path, devices=2, max_batch=4)
    report = loadgen(server, requests=16, mode="closed", concurrency=4)
    tracer.close()

    assert report.completed == 16
    entries = load_entries(tmp_path / "spans.jsonl")
    completeness = check_completeness(entries)
    assert completeness.ok, completeness.problems
    assert completeness.request_roots == 16
    assert completeness.task_spans > 0   # device tasks made it into traces
    rows = list_traces(entries)
    assert len(rows) == 16
    # The head request of each batch carries the device-task subtree.
    tree = render_span_tree(entries, rows[0]["trace_id"])
    assert "request [request]" in tree
    assert "[execute]" in tree and "[task]" in tree


def test_traced_responses_carry_trace_ids(tmp_path):
    server, tracer = traced_server(tmp_path, devices=1, max_batch=4)

    async def scenario():
        async with server:
            return await asyncio.gather(*[server.submit(None) for _ in range(4)])

    responses = asyncio.run(scenario())
    assert all(r.trace_id is not None for r in responses)
    assert len({r.trace_id for r in responses}) == 4
    assert all(r.deadline_met for r in responses)
    assert all(r.batched_s is not None and r.completed_s >= r.batched_s
               for r in responses)


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

def test_flight_recorder_fires_exactly_once_per_reason(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer_module, "DUMP_ENTRIES", 3)
    tracer = Tracer(log_path=tmp_path / "spans.jsonl")
    for i in range(5):
        tracer.event(f"e{i}")
    dump = tracer.dump("timeout", detail="first", trace_id="t1", request_id=9)
    assert dump is not None
    assert [e["name"] for e in dump["entries"]] == ["e2", "e3", "e4"]  # tail
    assert tracer.dump("timeout", detail="second") is None   # exactly once
    assert tracer.dump("error") is not None                  # other reasons ok

    on_disk = json.loads((tmp_path / "flightrec-timeout.json").read_text())
    assert on_disk == dump      # the dump round-trips through JSON
    assert on_disk["request_id"] == 9 and on_disk["detail"] == "first"


def test_reject_names_the_offending_request(tmp_path):
    server, tracer = traced_server(
        tmp_path, devices=1, queue_depth=1, saturation_policy="reject",
        max_wait_s=0.05)

    async def scenario():
        async with server:
            results = await asyncio.gather(
                *[server.submit(None) for _ in range(12)],
                return_exceptions=True)
        return results

    results = asyncio.run(scenario())
    errors = [r for r in results if isinstance(r, QueueSaturatedError)]
    assert errors, "queue depth 1 with 12 concurrent submits must reject"
    err = errors[0]
    assert err.request_id is not None
    assert f"request {err.request_id}" in str(err)
    assert err.trace_id is not None
    # The flight recorder froze context for the *first* reject, by name.
    dump = server.tracer.dumps["reject"]
    assert dump["request_id"] is not None
    assert str(dump["request_id"]) in dump["detail"]
    assert (tmp_path / "flightrec-reject.json").exists()
    assert_log_slice(dump, tracer.entries)
    # Rejected request's root span closed with the rejection status.
    rejected_roots = [e for e in tracer.entries
                      if e["type"] == "span" and e["status"] == "rejected"]
    assert rejected_roots


def test_timeout_path_marks_deadline_and_dumps(tmp_path):
    server, tracer = traced_server(tmp_path, devices=1, default_timeout_s=0.0)

    async def scenario():
        async with server:
            return await asyncio.gather(*[server.submit(None) for _ in range(4)])

    responses = asyncio.run(scenario())
    assert all(r.timed_out and r.degraded for r in responses)
    assert all(not r.deadline_met for r in responses)
    assert "timeout" in server.tracer.dumps
    assert (tmp_path / "flightrec-timeout.json").exists()
    events = [e for e in tracer.entries if e["type"] == "event"]
    assert any(e["name"] == "timeout" for e in events)
    # Deadline-missed roots closed with the failure status, not "ok".
    roots = [e for e in tracer.entries
             if e["type"] == "span" and e["kind"] == "request"]
    assert roots and all(r["status"] == "deadline_missed" for r in roots)


# ---------------------------------------------------------------------------
# SLO monitoring on the serve path
# ---------------------------------------------------------------------------

def test_straggler_device_trips_burn_alert_and_flight_dump(tmp_path):
    server, tracer = traced_server(
        tmp_path, devices=1, max_batch=4,
        straggler_device=0, straggler_delay_s=0.03,
        slo_objective=0.99, slo_latency_target_s=1e-4)
    report = loadgen(server, requests=16, mode="closed", concurrency=4)
    tracer.close()

    assert report.completed == 16
    slo = server.stats()["slo"]
    assert slo["attainment"] < 0.5          # straggler made latencies bad
    assert slo["alerts_fired"] >= 1
    assert slo["alerts"][0]["short_burn"] > slo["threshold"]
    assert "slo_breach" in server.tracer.dumps
    assert (tmp_path / "flightrec-slo_breach.json").exists()
    assert_log_slice(server.tracer.dumps["slo_breach"], tracer.entries)
    assert any(e["type"] == "event" and e["name"] == "slo_breach"
               for e in tracer.entries)
    assert server.registry.counter("slo_burn_alerts").value >= 1


def test_healthy_run_fires_no_alert(tmp_path):
    server, tracer = traced_server(tmp_path, devices=2, max_batch=4)
    loadgen(server, requests=12, mode="closed", concurrency=4)
    slo = server.stats()["slo"]
    assert slo["attainment"] == 1.0
    assert slo["alerts_fired"] == 0
    assert "slo_breach" not in server.tracer.dumps


def test_latency_exemplars_link_histograms_to_traces(tmp_path):
    server, tracer = traced_server(tmp_path, devices=1, max_batch=4)
    loadgen(server, requests=8, mode="closed", concurrency=4)
    latency = [s for s in server.registry.samples()
               if s.name == "serve_latency_s" and s.histogram]
    assert latency
    exemplars = latency[0].histogram.get("exemplars")
    assert exemplars, "traced runs must attach exemplars to latency buckets"
    trace_ids = {e["trace_id"] for e in exemplars.values()}
    served = {e["trace_id"] for e in tracer.entries
              if e["type"] == "span" and e["kind"] == "request"}
    assert trace_ids <= served    # every exemplar points at a real trace


def test_exemplar_roundtrips_through_registry_dump():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.1, 1.0))
    hist.observe(0.05, exemplar="t00000001")
    hist.observe(5.0)
    assert hist.exemplars[0]["trace_id"] == "t00000001"
    assert 2 not in hist.exemplars    # overflow observe carried no exemplar

    restored = MetricsRegistry.from_dict(registry.as_dict())
    sample = next(s for s in restored.samples() if s.name == "lat")
    assert sample.histogram["exemplars"]["0"] == {
        "trace_id": "t00000001", "value": 0.05}
    # A histogram with no exemplars serializes without the key at all.
    bare = MetricsRegistry()
    bare.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    sample = next(s for s in bare.samples() if s.name == "lat")
    assert "exemplars" not in sample.histogram


def test_tracing_off_leaves_no_observable_residue():
    graph = small_chain_graph(name="obs_plain")
    server = InferenceServer(
        graph, config=ServeConfig(functional=False, max_wait_s=0.005,
                                  devices=1, max_batch=4))

    async def scenario():
        async with server:
            return await asyncio.gather(*[server.submit(None) for _ in range(4)])

    responses = asyncio.run(scenario())
    assert all(r.trace_id is None for r in responses)
    # No exemplars sneak into the registry dump: manifests stay bit-stable.
    doc = server.manifest(scale="small").as_dict()
    for series in doc["registry"]["series"]:
        if series.get("histogram"):
            assert "exemplars" not in series["histogram"]
    # SLO accounting still ran (it is always on).
    assert server.stats()["slo"]["events"] == 4


# ---------------------------------------------------------------------------
# loadgen CSV + dashboards + export
# ---------------------------------------------------------------------------

def test_latency_csv_has_one_row_per_request(tmp_path):
    server, tracer = traced_server(tmp_path, devices=2, max_batch=4)
    out = tmp_path / "latency.csv"

    async def scenario():
        async with server:
            return await run_loadgen(server, requests=10, mode="closed",
                                     concurrency=4, latency_csv=out)

    report = asyncio.run(scenario())
    assert report.completed == 10
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert list(rows[0]) == LATENCY_CSV_COLUMNS
    for row in rows:
        assert row["trace_id"].startswith("t")
        assert row["deadline_met"] == "True"
        assert float(row["completed_s"]) >= float(row["batched_s"]) \
            >= float(row["arrival_s"])


def test_merged_chrome_trace_lays_out_serve_and_device_lanes(tmp_path):
    server, tracer = traced_server(tmp_path, devices=1, max_batch=4)
    loadgen(server, requests=4, mode="closed", concurrency=4)
    tracer.close()
    doc = merged_chrome_trace(load_entries(tmp_path / "spans.jsonl"))
    events = doc["traceEvents"]
    pids = {e["pid"] for e in events}
    assert 0 in pids           # serve lanes
    assert 1000 in pids        # device-0 task lane
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"request", "batch", "execute", "task"} <= cats
    assert all(e["ts"] >= 0 for e in events if e["ph"] == "X")


def test_dashboard_renders_fleet_vitals(tmp_path):
    server, tracer = traced_server(tmp_path, devices=2, max_batch=4)
    loadgen(server, requests=8, mode="closed", concurrency=4)
    panel = render_dashboard(server)
    assert "obs_chain" in panel
    assert "p99" in panel and "plan cache" in panel
    assert "slo" in panel and "attainment" in panel
    assert "queue" in panel


def test_run_top_drives_traffic_and_returns_report():
    graph = small_chain_graph(name="obs_top")
    server = InferenceServer(
        graph, config=ServeConfig(functional=False, max_wait_s=0.005,
                                  devices=1, max_batch=4))
    stream = io.StringIO()
    report = run_top(server, refresh_s=0.05, stream=stream,
                     requests=6, mode="closed", concurrency=3)
    assert report.completed == 6
    assert "repro top" in stream.getvalue()
