"""Profiling subsystem tests: collector reconciliation against RunMetrics,
trace-export schema, run-to-run determinism, and the CLI/harness wiring."""

import csv
import io
import json
import re

import pytest

from repro.core.engine import BrickDLEngine, EngineResult
from repro.core.plan import Strategy, adapt_sectors
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.models import zoo
from repro.profiling import DeviceObserver, TraceCollector, chrome_trace, summary_csv

from testlib import small_chain_graph

COUNTERS = ("l1_txns", "l2_txns", "dram_txns", "atomics_compulsory", "atomics_conflict")


def _profile(graph, **engine_kwargs):
    engine = BrickDLEngine(graph, **engine_kwargs)
    plan = engine.compile()
    device = Device(A100)
    collector = device.attach(TraceCollector())
    result = engine.run(inputs=None, functional=False, device=device, plan=plan)
    return plan, collector, result


@pytest.fixture(scope="module")
def profiled_run():
    graph = small_chain_graph(size=48)
    plan, collector, result = _profile(graph)
    return graph, plan, collector, result


def _metric_counters(metrics):
    return {
        "l1_txns": metrics.memory.l1_txns,
        "l2_txns": metrics.memory.l2_txns,
        "dram_txns": metrics.memory.dram_read_txns + metrics.memory.dram_write_txns,
        "atomics_compulsory": metrics.atomics.compulsory,
        "atomics_conflict": metrics.atomics.conflict,
    }


class TestCollector:
    def test_engine_attaches_and_returns_the_collector(self, profiled_run):
        _, _, collector, result = profiled_run
        assert result.trace is collector
        assert collector.finished
        assert collector.records

    def test_totals_reconcile_exactly_with_run_metrics(self, profiled_run):
        """Every transaction and atomic lands in exactly one task record or
        residual bucket: the rollup sums equal the device's counters."""
        _, _, collector, result = profiled_run
        totals = collector.totals()
        expected = _metric_counters(result.metrics)
        for key in COUNTERS:
            assert totals[key] == expected[key], key
        assert totals["num_tasks"] == result.metrics.num_tasks
        assert totals["flops"] == pytest.approx(result.metrics.total_flops)

    def test_per_node_column_sums_equal_totals(self, profiled_run):
        _, _, collector, _ = profiled_run
        table = collector.per_node()
        totals = collector.totals()
        for key in COUNTERS:
            assert sum(row[key] for row in table.values()) == totals[key], key
        assert sum(row["num_tasks"] for row in table.values()) == totals["num_tasks"]
        assert sum(row["flops"] for row in table.values()) == pytest.approx(totals["flops"])

    def test_per_node_keys_are_graph_nodes(self, profiled_run):
        graph, _, collector, _ = profiled_run
        ids = {n.node_id for n in graph.nodes}
        assert all(k is None or k in ids for k in collector.per_node())

    def test_per_subgraph_matches_plan_and_result(self, profiled_run):
        _, plan, collector, result = profiled_run
        rows = collector.per_subgraph(len(plan.subgraphs))
        assert len(rows) == len(plan.subgraphs)
        assert result.per_subgraph == rows
        attributed = sum(1 for r in collector.records if r.subgraph_index is not None)
        assert sum(row["num_tasks"] for row in rows) == attributed

    def test_records_carry_structured_identity(self, profiled_run):
        _, plan, collector, _ = profiled_run
        strategies = {s.strategy.value for s in plan.subgraphs} | {None}
        for r in collector.records:
            assert r.strategy in strategies
            assert 0 <= r.worker < A100.num_sms
            assert r.end_s >= r.start_s >= 0.0
        # conversion tasks have node ids too: the vast majority of records
        # attribute to a concrete graph node.
        assert sum(r.node_id is not None for r in collector.records) >= len(collector.records) * 0.9

    @pytest.mark.parametrize("strategy",
                             [Strategy.PADDED, Strategy.MEMOIZED, Strategy.CUDNN])
    def test_records_are_the_device_tasks_themselves(self, strategy):
        """No copy layer: the collector keeps the very Task objects the device
        stamped, for merged and fallback subgraphs alike."""
        engine = BrickDLEngine(small_chain_graph(size=32), strategy_override=strategy)
        plan = engine.compile()
        assert strategy in {s.strategy for s in plan.subgraphs}
        device = Device(A100)
        result = engine.run(inputs=None, functional=False, device=device, plan=plan)
        records = result.trace.records
        assert len(records) == len(device.tasks) > 0
        for i, task in enumerate(device.tasks):
            assert records[i] is task
            assert task.seq == i
        assert strategy.value in {t.strategy for t in records}
        assert sum(t.dram_txns for t in records) <= result.metrics.memory.dram_txns

    def test_timeline_well_nested_per_lane(self, profiled_run):
        _, _, collector, _ = profiled_run
        lanes = {}
        for r in collector.records:
            lanes.setdefault(r.worker, []).append(r)
        for records in lanes.values():
            records.sort(key=lambda r: r.start_s)
            for prev, nxt in zip(records, records[1:]):
                assert nxt.start_s >= prev.end_s - 1e-12

    def test_alloc_events_track_live_bytes(self, profiled_run):
        _, _, collector, _ = profiled_run
        assert collector.allocs
        live = 0
        for ev in collector.allocs:
            live += ev.nbytes
            assert ev.live_bytes == live
            assert ev.live_bytes >= 0


class _LedgerOracle(DeviceObserver):
    """The per-task ledger the collector used to be, kept as the reference:
    on every task and scope boundary it diffs ``counter_state()`` against the
    previous event, subtracts the task's own delta and files the rest into a
    residual bucket keyed by subgraph index, None (graph level) or "flush";
    the rollups re-add tasks and buckets."""

    def __init__(self):
        self.records, self.syncs, self.residuals = [], [], {}
        self._scopes, self._last, self.spec = [], None, None

    def _settle(self, device, bucket_key, task=None):
        now = device.counter_state()
        if self._last is not None:
            for key in COUNTERS + ("overhead_s",):
                grown = now[key] - self._last[key]
                if task is not None:
                    grown -= getattr(task, key, 0)
                if grown:
                    bucket = self.residuals.setdefault(
                        bucket_key, {k: 0 for k in COUNTERS} | {"overhead_s": 0.0})
                    bucket[key] += grown
        self._last = now

    def _active(self):
        return self._scopes[-1] if self._scopes else None

    def on_scope_begin(self, device, subgraph_index, strategy):
        self._settle(device, self._active())
        self._scopes.append(subgraph_index)

    def on_scope_end(self, device, subgraph_index, strategy):
        self._settle(device, subgraph_index)
        self._scopes.pop()

    def on_task_submit(self, device, task):
        self.spec = device.spec
        self._settle(device, self._active(), task)
        self.records.append(task)

    def on_sync(self, device, time_s):
        self.syncs.append(self._active())

    def on_finish(self, device, metrics):
        self._settle(device, "flush")

    def _accumulate(self, row, r):
        row["num_tasks"] += 1
        row["calls"] += r.calls
        row["flops"] += r.flops
        row["busy_s"] += r.duration_s
        for k in COUNTERS:
            row[k] += getattr(r, k)

    def per_node(self):
        def blank(label):
            return {"label": label, "num_tasks": 0, "calls": 0, "flops": 0.0,
                    "busy_s": 0.0, "strategies": set(), "subgraphs": set(),
                    **{k: 0 for k in COUNTERS}}
        table = {}
        for r in self.records:
            row = table.setdefault(r.node_id, blank(r.label))
            self._accumulate(row, r)
            if r.strategy:
                row["strategies"].add(r.strategy)
            if r.subgraph_index is not None:
                row["subgraphs"].add(r.subgraph_index)
        for residual in self.residuals.values():
            row = table.setdefault(None, blank("(residual)"))
            for k in COUNTERS:
                row[k] += residual[k]
        for row in table.values():
            row["dram_time_s"] = row["dram_txns"] / self.spec.txn_rate
        return table

    def per_subgraph(self, n):
        rows = [{**{k: 0 for k in COUNTERS}, "num_tasks": 0, "calls": 0,
                 "flops": 0.0, "busy_s": 0.0, "syncs": 0, "overhead_s": 0.0}
                for _ in range(n)]
        for r in self.records:
            if r.subgraph_index is not None:
                self._accumulate(rows[r.subgraph_index], r)
        for key, residual in self.residuals.items():
            if isinstance(key, int):
                for k in COUNTERS + ("overhead_s",):
                    rows[key][k] += residual[k]
        for index in self.syncs:
            if index is not None:
                rows[index]["syncs"] += 1
        for row in rows:
            row["dram_time_s"] = row["dram_txns"] / self.spec.txn_rate
        return rows

    def totals(self):
        out = {k: 0 for k in COUNTERS} | {"num_tasks": len(self.records), "flops": 0.0}
        for r in self.records:
            out["flops"] += r.flops
            for k in COUNTERS:
                out[k] += getattr(r, k)
        for residual in self.residuals.values():
            for k in COUNTERS:
                out[k] += residual[k]
        return out


class TestScopeSnapshotsAgainstTheLedger:
    """Attribution from two snapshots per scope equals the per-task ledger,
    field for field and float for float."""

    @pytest.mark.parametrize("strategy", [None, "padded", "memoized", "wavefront"])
    @pytest.mark.parametrize("model", sorted(zoo.MODELS))
    def test_zoo_rollups_equal_the_ledger(self, model, strategy):
        graph = zoo.build(model, reduced=True)
        engine = BrickDLEngine(
            graph, strategy_override=Strategy(strategy) if strategy else None)
        plan = engine.compile()
        device = Device(adapt_sectors(A100, plan))
        oracle = device.attach(_LedgerOracle())
        result = engine.run(inputs=None, functional=False, device=device, plan=plan)
        assert result.per_subgraph == oracle.per_subgraph(len(plan.subgraphs))
        assert result.trace.per_node() == oracle.per_node()
        assert result.trace.totals() == oracle.totals()

    def test_scopeless_run_is_tasks_plus_one_residual(self):
        """A baseline run opens no scope: nothing lands in a subgraph row and
        everything beyond the stamped tasks is the residual."""
        from repro.baselines import CudnnBaseline

        device = Device(A100)
        collector = device.attach(TraceCollector())
        oracle = device.attach(_LedgerOracle())
        result = CudnnBaseline(zoo.build("mobilenet_v1", reduced=True)).run(device=device)
        assert collector.scopes == [] and collector.per_subgraph(0) == []
        assert collector.per_node() == oracle.per_node()
        assert collector.totals() == oracle.totals()
        residual = collector.per_node()[None]
        assert residual["num_tasks"] == 0 and residual["dram_txns"] > 0
        assert collector.totals()["dram_txns"] == result.metrics.memory.dram_txns

    def test_counters_are_read_per_scope_not_per_task(self, monkeypatch):
        reads = []
        original = Device.counter_state
        monkeypatch.setattr(Device, "counter_state",
                            lambda self: reads.append(1) or original(self))
        plan, collector, result = _profile(small_chain_graph(size=48))
        assert len(collector.scopes) == len(plan.subgraphs)
        assert 0 < len(reads) <= 2 * len(plan.subgraphs) + 1
        assert len(reads) < result.metrics.num_tasks


class TestExporters:
    def test_chrome_trace_round_trips_as_json(self, profiled_run, tmp_path):
        graph, _, collector, _ = profiled_run
        names = {n.node_id: n.name for n in graph.nodes}
        doc = json.loads(json.dumps(chrome_trace(collector, names=names)))
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["spec"] == A100.name
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    def test_chrome_trace_flops_serialize_as_floats(self, profiled_run):
        """Executors hand the device integer flop counts; the exported JSON
        text must still spell them as floats (``12.0``, not ``12``)."""
        _, _, collector, _ = profiled_run
        assert any(isinstance(r.flops, int) for r in collector.records)
        text = json.dumps(chrome_trace(collector))
        assert '"flops": ' in text
        assert re.search(r'"flops": \d+[,}]', text) is None

    def test_chrome_trace_events_schema(self, profiled_run):
        graph, _, collector, _ = profiled_run
        doc = chrome_trace(collector, names={n.node_id: n.name for n in graph.nodes})
        tasks = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(tasks) == len(collector.records)
        named_lanes = {e["tid"] for e in doc["traceEvents"]
                       if e["ph"] == "M" and e["name"] == "thread_name"}
        for e in tasks:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["tid"] in named_lanes
            assert "dram_txns" in e["args"] and "flops" in e["args"]

    def test_chrome_trace_lanes_well_nested(self, profiled_run):
        _, _, collector, _ = profiled_run
        doc = chrome_trace(collector)
        lanes = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                lanes.setdefault(e["tid"], []).append(e)
        for events in lanes.values():
            events.sort(key=lambda e: e["ts"])
            for prev, nxt in zip(events, events[1:]):
                assert nxt["ts"] >= prev["ts"] + prev["dur"] - 1e-6

    def test_counter_tracks_are_cumulative(self, profiled_run):
        _, _, collector, result = profiled_run
        doc = chrome_trace(collector)
        dram = [e["args"]["txns"] for e in doc["traceEvents"]
                if e["ph"] == "C" and e["name"] == "DRAM txns"]
        assert dram == sorted(dram)
        # The last sample is the sum of all per-task DRAM deltas.
        assert dram[-1] == sum(r.dram_txns for r in collector.records)

    def test_summary_csv_reconciles(self, profiled_run):
        graph, _, collector, result = profiled_run
        text = summary_csv(collector, names={n.node_id: n.name for n in graph.nodes})
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        expected = _metric_counters(result.metrics)
        for key in COUNTERS:
            assert sum(int(r[key]) for r in rows) == expected[key], key


class TestEngineResult:
    def test_per_subgraph_defaults_to_independent_lists(self, profiled_run):
        _, _, _, result = profiled_run
        a = EngineResult(outputs=None, metrics=result.metrics, plan=result.plan)
        b = EngineResult(outputs=None, metrics=result.metrics, plan=result.plan)
        assert a.per_subgraph == [] and b.per_subgraph == []
        assert a.per_subgraph is not b.per_subgraph
        a.per_subgraph.append({"num_tasks": 0})
        assert b.per_subgraph == []

    def test_attribution_tables_render(self, profiled_run):
        _, _, _, result = profiled_run
        assert "per-subgraph attribution" in result.attribution_table()
        assert "per-node attribution" in result.node_attribution_table()
        bare = EngineResult(outputs=None, metrics=result.metrics, plan=result.plan)
        assert "per-subgraph attribution" in bare.attribution_table()
        assert bare.node_attribution_table() == "(no trace collected)"


class TestDeterminism:
    def test_memoized_runs_are_byte_identical(self):
        """Two identical memoized runs produce identical conflict, compulsory,
        and transaction counts -- the trace layer must not perturb them."""
        graph = small_chain_graph(size=48)
        first = _profile(graph, strategy_override=Strategy.MEMOIZED)
        second = _profile(graph, strategy_override=Strategy.MEMOIZED)
        m1, m2 = first[2].metrics, second[2].metrics
        assert _metric_counters(m1) == _metric_counters(m2)
        assert m1.num_tasks == m2.num_tasks
        assert m1.total_flops == m2.total_flops
        assert first[1].totals() == second[1].totals()
        assert first[2].per_subgraph == second[2].per_subgraph

    def test_observer_does_not_change_counters(self):
        """A device with the collector attached counts exactly what a bare
        device counts (observation must be free of side effects)."""
        from repro.gpusim.trace import Task

        def run(device):
            buf = device.allocate("x", 1 << 16)
            for i in range(8):
                task = Task(label=f"t{i}", node_id=i % 2)
                task.read(buf, 0, 4096)
                task.write(buf, 4096, 4096)
                task.flops = 1e6
                device.submit(task)
            device.synchronize()
            return device.finish()

        bare = run(Device(A100))
        device = Device(A100)
        collector = device.attach(TraceCollector())
        observed = run(device)
        assert _metric_counters(bare) == _metric_counters(observed)
        assert collector.totals()["dram_txns"] == _metric_counters(observed)["dram_txns"]


class TestWiring:
    def test_run_brickdl_emits_trace_file(self, tmp_path):
        from repro.bench.harness import run_brickdl

        out = tmp_path / "run.json"
        run_brickdl(small_chain_graph(size=48), trace=out)
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_cli_profile_writes_trace_and_csv(self, tmp_path, capsys):
        from repro.cli import main

        out, csv_out = tmp_path / "t.json", tmp_path / "t.csv"
        rc = main(["profile", "resnet50", "--reduced",
                   "--trace", str(out), "--csv", str(csv_out), "--per-node"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert list(csv.DictReader(io.StringIO(csv_out.read_text())))
        text = capsys.readouterr().out
        assert "per-node attribution" in text
