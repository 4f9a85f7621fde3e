"""The graph linter: structural, geometric, and serialization checks.

The linter is the machine check for the properties the rest of the library
silently assumes about a :class:`~repro.graph.ir.Graph`:

* **structure** -- delegated to :meth:`Graph.structural_errors` (dangling /
  backward edges, arity, consumer bookkeeping, name index, outputs), so the
  linter and ``Graph.validate`` can never disagree;
* **shape & dtype consistency** -- every node's recorded output spec must
  equal what its operator infers from its inputs' specs today (a mutated or
  hand-edited graph fails here even though construction-time inference
  passed);
* **op geometric contract** -- for mergeable (``is_local``) operators the
  receptive-field maps must agree with shape inference
  (``m.out_extent(input extent) == output extent`` per dimension) and with
  the paper's ``alpha X + beta`` linear form (section 3.2): the input
  interval required for an output block of size ``X`` must have length
  ``alpha * X + beta`` -- that linearity is what makes the halo analysis
  (and everything downstream of it) sound;
* **serialize round-trip** -- ``graph_from_dict(graph_to_dict(g))`` must
  reproduce the structure exactly (names, ops, edges, specs, outputs).
"""

from __future__ import annotations

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.errors import ReproError
from repro.graph.ir import Graph, Node
from repro.graph.regions import GlobalMap, Interval
from repro.graph.traversal import ancestors

__all__ = ["lint_graph"]

_PASS = "graph-lint"


def _diag(code: str, severity: Severity, message: str, node_id: int | None = None) -> Diagnostic:
    return Diagnostic(pass_name=_PASS, code=code, severity=severity,
                      message=message, node_id=node_id)


def lint_graph(graph: Graph) -> AnalysisReport:
    """Run every graph check; returns the full :class:`AnalysisReport`."""
    report = AnalysisReport()
    _check_structure(graph, report)
    # Deeper checks index nodes by edge; skip them on a structurally broken
    # graph rather than crash chasing dangling ids.
    if report.errors:
        return report
    for node in graph.nodes:
        if node.is_input:
            continue
        _check_shapes(graph, node, report)
        _check_contract(graph, node, report)
    _check_reachability(graph, report)
    _check_roundtrip(graph, report)
    return report


# -- structure ---------------------------------------------------------------
def _check_structure(graph: Graph, report: AnalysisReport) -> None:
    for err in graph.structural_errors():
        report.add(_diag("graph.structure", Severity.ERROR, str(err)))


# -- shape / dtype consistency ----------------------------------------------
def _check_shapes(graph: Graph, node: Node, report: AnalysisReport) -> None:
    input_specs = [graph.node(i).spec for i in node.inputs]
    try:
        inferred = node.op.infer(input_specs)
    except ReproError as exc:
        report.add(_diag("graph.infer-failure", Severity.ERROR,
                         f"node {node.name!r}: op {node.op.kind} rejects its "
                         f"current input specs: {exc}", node.node_id))
        return
    if inferred.shape != node.spec.shape:
        report.add(_diag("graph.shape-mismatch", Severity.ERROR,
                         f"node {node.name!r}: recorded output shape {node.spec.shape} "
                         f"but op {node.op.kind} infers {inferred.shape}", node.node_id))
    if inferred.dtype != node.spec.dtype:
        report.add(_diag("graph.dtype-mismatch", Severity.ERROR,
                         f"node {node.name!r}: recorded dtype {node.spec.dtype} "
                         f"but op {node.op.kind} infers {inferred.dtype}", node.node_id))


# -- the alpha X + beta mergeability contract --------------------------------
def _check_contract(graph: Graph, node: Node, report: AnalysisReport) -> None:
    """Receptive-field maps must agree with shape inference and be linear."""
    if not node.op.is_local or node.op.is_global:
        return
    input_specs = [graph.node(i).spec for i in node.inputs]
    if not node.spec.spatial:
        return
    for input_index, pred in enumerate(node.inputs):
        in_spec = input_specs[input_index]
        if len(in_spec.spatial) != len(node.spec.spatial):
            continue  # rank-changing local ops have no per-dim map to check
        try:
            maps = node.op.rf_maps(input_specs, input_index)
        except ReproError as exc:
            report.add(_diag("graph.rfmap-failure", Severity.ERROR,
                             f"node {node.name!r}: rf_maps failed on edge "
                             f"{pred} -> {node.node_id}: {exc}", node.node_id))
            continue
        if len(maps) != len(node.spec.spatial):
            report.add(_diag("graph.rfmap-rank", Severity.ERROR,
                             f"node {node.name!r}: {len(maps)} receptive-field maps "
                             f"for {len(node.spec.spatial)} spatial dims", node.node_id))
            continue
        for d, (m, in_extent, out_extent) in enumerate(
                zip(maps, in_spec.spatial, node.spec.spatial)):
            if isinstance(m, GlobalMap):
                report.add(_diag("graph.global-marked-local", Severity.ERROR,
                                 f"node {node.name!r}: dim {d} uses a GlobalMap but the "
                                 f"op claims is_local (breaks the merge contract)",
                                 node.node_id))
                continue
            try:
                forward = m.out_extent(in_extent)
            except ReproError as exc:
                report.add(_diag("graph.rfmap-extent", Severity.ERROR,
                                 f"node {node.name!r}: dim {d} map rejects input extent "
                                 f"{in_extent}: {exc}", node.node_id))
                continue
            if forward != out_extent:
                report.add(_diag("graph.rfmap-extent", Severity.ERROR,
                                 f"node {node.name!r}: dim {d} map gives extent "
                                 f"{forward}, spec says {out_extent}", node.node_id))
            ab = m.alpha_beta()
            if ab is None:
                continue  # no exact linear form (e.g. strided transposed conv)
            alpha, beta = ab
            for x in (1, 2, 5):
                need = m.in_interval(Interval(0, x)).length
                if need != alpha * x + beta:
                    report.add(_diag("graph.contract-violation", Severity.ERROR,
                                     f"node {node.name!r}: dim {d} claims input size "
                                     f"{alpha}*X+{beta} but needs {need} elements for "
                                     f"an output block of X={x}", node.node_id))
                    break


# -- reachability ------------------------------------------------------------
def _check_reachability(graph: Graph, report: AnalysisReport) -> None:
    """Nodes feeding no graph output are dead weight (warning, not error)."""
    outputs = {n.node_id for n in graph.output_nodes}
    live = outputs | ancestors(graph, outputs)
    for node in graph.nodes:
        if node.node_id not in live:
            report.add(_diag("graph.unreachable", Severity.WARNING,
                             f"node {node.name!r} does not reach any graph output",
                             node.node_id))


# -- serialization round-trip -------------------------------------------------
def _check_roundtrip(graph: Graph, report: AnalysisReport) -> None:
    from repro.graph.serialize import graph_from_dict, graph_to_dict

    try:
        doc = graph_to_dict(graph)
        restored = graph_from_dict(doc)
        doc2 = graph_to_dict(restored)
    except ReproError as exc:
        report.add(_diag("graph.serialize-failure", Severity.ERROR,
                         f"graph {graph.name!r} does not serialize: {exc}"))
        return
    if doc != doc2:
        report.add(_diag("graph.roundtrip-unstable", Severity.ERROR,
                         f"graph {graph.name!r}: serialize -> load -> serialize is not "
                         f"a fixpoint (structure drifts on round-trip)"))
        return
    for orig, back in zip(graph.nodes, restored.nodes):
        if orig.spec != back.spec:
            report.add(_diag("graph.roundtrip-spec", Severity.ERROR,
                             f"node {orig.name!r}: spec {orig.spec} re-infers as "
                             f"{back.spec} after round-trip", orig.node_id))
