"""Memoization-protocol checkers: small-model exploration and trace replay.

The seeded-mutation tests are the checker's own coverage proof (satellite
4): protocol variants with a deliberately broken tag transition must be
caught by the explorer, and a deliberately corrupted task trace must be
caught by the replay pass.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import (
    GridModel,
    ProtocolModel,
    explore_protocol,
    replay_tasks_from_chrome_trace,
    replay_trace,
)
from repro.bench.harness import adapt_sectors
from repro.core.engine import BrickDLEngine
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.models import build
from repro.profiling import TraceCollector, chrome_trace


class TestExplorer:
    def test_correct_protocol_is_clean(self):
        report = explore_protocol(GridModel(), ProtocolModel())
        assert report.ok, report.summary("default grid")
        assert not report.by_code("protocol.truncated")

    def test_correct_protocol_three_workers(self):
        report = explore_protocol(GridModel(workers=3), ProtocolModel())
        assert report.ok, report.summary("3 workers")

    def test_correct_protocol_longer_compute(self):
        report = explore_protocol(GridModel(compute_turns=2), ProtocolModel())
        assert report.ok, report.summary("compute_turns=2")

    def test_dropped_release_is_caught(self):
        """Remove the 1->2 release CAS: consumers spin on bricks that are
        finished but never tagged COMPLETE."""
        report = explore_protocol(GridModel(), ProtocolModel(release=False))
        codes = {d.code for d in report.errors}
        assert codes & {"protocol.stall-deadlock", "protocol.lost-release"}, codes

    def test_nonatomic_acquire_is_caught(self):
        """Split the 0->1 acquire CAS into read-then-write: two workers can
        both observe tag 0 and both compute the brick."""
        report = explore_protocol(GridModel(), ProtocolModel(atomic_acquire=False))
        assert report.by_code("protocol.double-compute")

    def test_counterexample_interleaving_attached(self):
        report = explore_protocol(GridModel(), ProtocolModel(atomic_acquire=False))
        diag = report.by_code("protocol.double-compute")[0]
        assert isinstance(diag.detail, list) and diag.detail, diag
        assert all(0 <= w < GridModel().workers for w in diag.detail)

    def test_truncation_is_reported(self):
        report = explore_protocol(GridModel(), ProtocolModel(), max_states=10)
        warned = report.by_code("protocol.truncated")
        assert warned and report.ok  # truncation warns, never errors


def _traced_run(name="resnet50"):
    graph = build(name, reduced=True)
    engine = BrickDLEngine(graph)
    plan = engine.compile()
    device = Device(adapt_sectors(A100, plan))
    trace = device.attach(TraceCollector())
    engine.run(inputs=None, functional=False, device=device, plan=plan)
    return plan, trace


@pytest.fixture(scope="module")
def resnet_run():
    return _traced_run()


class TestReplay:
    def test_real_run_is_clean(self, resnet_run):
        plan, trace = resnet_run
        report = replay_trace(plan, trace.records)
        assert report.ok, report.summary("resnet50 replay")
        assert any(r.brick is not None for r in trace.records)

    def test_chrome_trace_roundtrip(self, resnet_run):
        plan, trace = resnet_run
        tasks = replay_tasks_from_chrome_trace(chrome_trace(trace))
        assert tasks
        report = replay_trace(plan, tasks)
        assert report.ok, report.summary("chrome roundtrip")

    def test_one_shot_iterable_is_replayed_whole(self, resnet_run):
        """Regression: the old type sniff peeked with ``next(iter(records))``
        and so dropped the first task of a generator."""
        plan, trace = resnet_run
        report = replay_trace(plan, (r for r in trace.records))
        assert report.ok, report.summary("generator replay")

    def test_chrome_trace_roundtrip_still_rejects_mutants(self, resnet_run):
        plan, trace = resnet_run
        tasks = replay_tasks_from_chrome_trace(chrome_trace(trace))
        assert all(t.strategy == "memoized" and t.brick is not None for t in tasks)
        dup = replace(tasks[0], seq=len(trace.records))
        assert replay_trace(plan, tasks + [dup]).by_code("replay.double-compute")
        exit_ids = {eid for sub in plan.subgraphs if sub.strategy.value == "memoized"
                    for eid in sub.subgraph.exit_ids}
        victim = next(t for t in tasks if t.node_id in exit_ids)
        dropped = [t for t in tasks if t is not victim]
        assert replay_trace(plan, dropped).by_code("replay.missing-brick")

    def _memo_records(self, trace):
        return [r for r in trace.records
                if r.strategy == "memoized" and r.brick is not None]

    def test_duplicated_task_is_caught(self, resnet_run):
        plan, trace = resnet_run
        dup = self._memo_records(trace)[0]
        records = list(trace.records) + [replace(dup, seq=len(trace.records))]
        report = replay_trace(plan, records)
        assert report.by_code("replay.double-compute")

    def test_missing_exit_brick_is_caught(self, resnet_run):
        plan, trace = resnet_run
        memo = self._memo_records(trace)
        exit_ids = {eid for sub in plan.subgraphs if sub.strategy.value == "memoized"
                    for eid in sub.subgraph.exit_ids}
        victim = next(r for r in memo if r.node_id in exit_ids)
        records = [r for r in trace.records if r is not victim]
        report = replay_trace(plan, records)
        assert report.by_code("replay.missing-brick")

    def test_inverted_order_is_caught(self, resnet_run):
        """Swap a producer's seq with a later consumer's: the read no longer
        happens-after the completion."""
        plan, trace = resnet_run
        memo = self._memo_records(trace)
        # Find a consumer whose producer is another memoized record.
        graph = plan.graph
        swap = None
        for r in memo:
            for pred in graph.node(r.node_id).inputs:
                p = next((q for q in memo if q.node_id == pred
                          and q.batch_index == r.batch_index and q.seq < r.seq), None)
                if p is not None:
                    swap = (p, r)
                    break
            if swap:
                break
        assert swap, "no member-edge producer/consumer pair in trace"
        p, r = swap
        records = [replace(q, seq=r.seq) if q is p else
                   replace(q, seq=p.seq) if q is r else q
                   for q in trace.records]
        report = replay_trace(plan, records)
        assert report.by_code("replay.read-before-produce")

    def test_foreign_brick_is_caught(self, resnet_run):
        plan, trace = resnet_run
        victim = self._memo_records(trace)[0]
        bad = replace(victim, brick=tuple(9999 for _ in victim.brick))
        records = [bad if r is victim else r for r in trace.records]
        report = replay_trace(plan, records)
        codes = {d.code for d in report.errors}
        assert "replay.invalid-brick" in codes

    def test_strict_engine_runs_clean(self):
        graph = build("resnet50", reduced=True)
        engine = BrickDLEngine(graph, strict=True)
        result = engine.run(inputs=None, functional=False)
        assert result.metrics.total_time > 0
