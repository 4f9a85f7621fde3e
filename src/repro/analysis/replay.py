"""Trace-replay verification of the memoized runtime (§3.2.2, Kitsune-style).

The small-model checker (:mod:`repro.analysis.protocol`) proves the tag
protocol correct in the abstract; this pass checks that a *real* run obeyed
it.  It consumes the device's stamped :class:`~repro.gpusim.trace.Task`
stream (``TraceCollector.records``, or tasks rebuilt from a Chrome-trace
JSON exported from one) plus the :class:`ExecutionPlan` that produced the
run, and asserts, for every memoized subgraph:

* **exactly once** -- no (node, brick, batch) was computed twice, and every
  exit brick of every exit node was computed;
* **happens-before** -- every member-brick dependency a task read
  (:func:`~repro.core.bricktask.member_deps` over the same geometry rows the
  scheduler resolved them from) was produced by a task submitted strictly
  earlier.  Device lane
  clocks are per-worker, so cross-worker ordering is judged by submission
  order (``seq``), the order the simulated memory system observed; within
  one worker lane the timeline itself must also nest (producer end <=
  consumer start);
* **valid identity** -- every brick position lies inside the node's grid
  and every batch index inside the node's batch extent.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, cast

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.core.bricktask import member_deps
from repro.core.geometry import SubgraphGeometry
from repro.core.plan import ExecutionPlan, SubgraphPlan
from repro.gpusim.trace import Task

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graph.ir import Graph

    class _BrickTask(Protocol):
        """How the checks below see a ``Task`` that passed ``replay_trace``'s
        filter: the identity fields they read are known to be set."""

        seq: int
        node_id: int
        brick: tuple[int, ...]
        batch_index: int
        worker: int
        start_s: float
        end_s: float

__all__ = ["replay_trace", "replay_tasks_from_chrome_trace"]

_PASS = "trace-replay"


def _diag(report: AnalysisReport, code: str, message: str,
          subgraph_index: int | None = None, node_id: int | None = None,
          severity: Severity = Severity.ERROR) -> None:
    report.add(Diagnostic(pass_name=_PASS, code=code, severity=severity,
                          message=message, node_id=node_id,
                          subgraph_index=subgraph_index))


def replay_tasks_from_chrome_trace(doc: Mapping) -> list[Task]:
    """Rebuild the memoized brick tasks of an exported Chrome-trace JSON."""
    out = []
    for e in doc.get("traceEvents", ()):
        if e.get("ph") != "X" or e.get("cat") != "memoized":
            continue
        args = e.get("args", {})
        if "brick" not in args or "node_id" not in args:
            continue
        out.append(Task(
            label=e.get("name", ""), seq=args["seq"], node_id=args["node_id"],
            subgraph_index=args.get("subgraph"), strategy="memoized",
            brick=tuple(args["brick"]), batch_index=args.get("batch", 0),
            worker=e.get("tid", 0),
            start_s=e["ts"] / 1e6, end_s=(e["ts"] + e["dur"]) / 1e6))
    return out


def replay_trace(plan: ExecutionPlan, records: Iterable[Task]) -> AnalysisReport:
    """Verify a run's memoized task stream against ``plan``.

    ``records`` may be ``TraceCollector.records`` or the output of
    :func:`replay_tasks_from_chrome_trace`; tasks that are not memoized
    brick computations are ignored.
    """
    report = AnalysisReport()
    by_sub: dict[int | None, list[_BrickTask]] = {}
    for t in records:
        if (t.strategy == "memoized" and t.brick is not None
                and t.node_id is not None and t.batch_index is not None):
            by_sub.setdefault(t.subgraph_index, []).append(cast("_BrickTask", t))

    checked = 0
    for sub in plan.subgraphs:
        if sub.strategy.value != "memoized" or not sub.brick_shape:
            continue
        checked += 1
        _replay_subgraph(plan.graph, sub, by_sub.get(sub.index, []), report)
    if checked == 0:
        _diag(report, "replay.no-memoized-subgraphs",
              f"plan for {plan.graph.name!r} has no memoized subgraphs; nothing "
              f"to replay", severity=Severity.INFO)
    return report


def _replay_subgraph(graph: "Graph", sub: SubgraphPlan, tasks: list[_BrickTask],
                     report: AnalysisReport) -> None:
    geom = SubgraphGeometry(sub.subgraph, sub.brick_shape)
    if not tasks:
        _diag(report, "replay.no-tasks",
              f"subgraph {sub.index} is memoized but the trace has no memoized "
              f"brick tasks for it", sub.index)
        return

    # Index the producer of every (node, brick, batch); flag duplicates.
    producer: dict[tuple[int, tuple[int, ...], int], _BrickTask] = {}
    for t in sorted(tasks, key=lambda t: t.seq):
        node = graph.node(t.node_id)
        if t.node_id not in geom.members:
            _diag(report, "replay.foreign-node",
                  f"subgraph {sub.index}: memoized task for non-member node "
                  f"{node.name!r}", sub.index, t.node_id)
            continue
        grid = geom.grid(t.node_id)
        if grid is None or len(t.brick) != len(grid.grid_shape) or any(
                not 0 <= p < g for p, g in zip(t.brick, grid.grid_shape)):
            _diag(report, "replay.invalid-brick",
                  f"subgraph {sub.index}: task brick {t.brick} outside the grid "
                  f"of {node.name!r}", sub.index, t.node_id)
            continue
        if not 0 <= t.batch_index < node.spec.batch:
            _diag(report, "replay.invalid-batch",
                  f"subgraph {sub.index}: task batch {t.batch_index} outside "
                  f"batch extent {node.spec.batch} of {node.name!r}",
                  sub.index, t.node_id)
            continue
        key = (t.node_id, t.brick, t.batch_index)
        if key in producer:
            _diag(report, "replay.double-compute",
                  f"subgraph {sub.index}: brick {t.brick} of {node.name!r} "
                  f"(batch {t.batch_index}) computed twice (tasks "
                  f"{producer[key].seq} and {t.seq}): the exactly-once guarantee "
                  f"is broken", sub.index, t.node_id)
            continue
        producer[key] = t

    # Exactly-once completeness: every exit brick must have been computed.
    for eid in sub.subgraph.exit_ids:
        grid = geom.grid(eid)
        if grid is None:
            continue
        missing = sum(
            (eid, gpos, b) not in producer
            for gpos in itertools.product(*map(range, grid.grid_shape))
            for b in range(graph.node(eid).spec.batch))
        if missing:
            _diag(report, "replay.missing-brick",
                  f"subgraph {sub.index}: {missing} exit brick task(s) of "
                  f"{graph.node(eid).name!r} never ran", sub.index, eid)

    # Happens-before: every member-brick dependency was produced earlier.
    for t in producer.values():
        for dnid, dpos, _ in member_deps(geom, t.node_id, t.brick):
            p = producer.get((dnid, dpos, t.batch_index))
            if p is None:
                _diag(report, "replay.missing-producer",
                      f"subgraph {sub.index}: task {t.seq} read brick {dpos} of "
                      f"{graph.node(dnid).name!r} which no task produced",
                      sub.index, t.node_id)
                continue
            if p.seq >= t.seq:
                _diag(report, "replay.read-before-produce",
                      f"subgraph {sub.index}: task {t.seq} ({graph.node(t.node_id).name!r} "
                      f"brick {t.brick}) was submitted before its producer task "
                      f"{p.seq} ({graph.node(dnid).name!r} brick {dpos}): consumer "
                      f"read did not happen-after the producer's completion",
                      sub.index, t.node_id)
            elif p.worker == t.worker and p.end_s > t.start_s + 1e-12:
                _diag(report, "replay.lane-overlap",
                      f"subgraph {sub.index}: producer task {p.seq} and consumer "
                      f"task {t.seq} overlap on worker lane {t.worker}",
                      sub.index, t.node_id)
