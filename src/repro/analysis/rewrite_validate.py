"""Translation validation for graph rewrites.

Given the graph *before* a rule application and the :class:`Rewrite` the
rule returned, this pass independently re-derives soundness -- it trusts
the provenance only as a statement of *what to check*, never that the
claim holds:

* **well-formedness** -- the rewritten graph passes the full graph linter
  (acyclicity / ``structural_errors``, shape and dtype inference, contract
  checks) with no errors (``rewrite.malformed``);
* **interface** -- graph input/output node names and specs are preserved
  (modulo the declared interface batch for rebatch) (``rewrite.interface``);
* **removals** -- every node that disappeared is justified, and every
  justification is re-proved: liveness analysis for ``dead``
  (``rewrite.live-node-dropped``), a value-preservation proof for
  ``identity`` (``rewrite.not-identity``), op/weights/resolved-input
  equality with the surviving twin for ``merged``
  (``rewrite.merge-mismatch``);
* **fusions** -- each fused host's stage pipeline and weights are exactly
  the flattened chain it claims to have absorbed, and that chain really
  was a sole-consumer run in the source graph (``rewrite.fused-chain``,
  ``rewrite.fused-weights``);
* **dataflow** -- every surviving node keeps its op, its weights (shared
  arrays when the rule declares ``shares_weights``), and edges that
  resolve to the same producers as before (``rewrite.op-changed``,
  ``rewrite.dataflow``, ``rewrite.weights-changed``,
  ``rewrite.weights-not-shared``);
* **differential** (optional) -- the before and after graphs are run
  through the reference executor on seeded random inputs and compared
  bit-for-bit when the rule declares ``exact`` (``rewrite.differential``).

The pass never plans: ``verify_plan`` proves subgraph convexity on the plan
that runs (``plan.contiguity``, ``plan.convexity``).

Every diagnostic names the offending rule and (when the caller supplies
it) the runner step, so an unsound rewrite in a long pipeline is pinned to
the exact application that introduced it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.errors import ReproError
from repro.graph.ir import Graph, Node, same_weights
from repro.graph.ops import BatchNorm, Bias, FusedOp, OpSpec, Pool
from repro.graph.traversal import ancestors

if TYPE_CHECKING:
    from repro.graph.tensorspec import TensorSpec
    from repro.rewrite.rule import RemovedNode, Rewrite, Rule

__all__ = ["validate_rewrite"]

PASS_NAME = "rewrite-validate"


def validate_rewrite(
    before: Graph,
    rewrite: "Rewrite",
    rule: "Rule | None" = None,
    *,
    step: int | None = None,
    differential: bool = False,
    seeds: Sequence[int] = (0,),
) -> AnalysisReport:
    """Prove (or refute) that ``rewrite`` soundly transforms ``before``."""
    report = AnalysisReport()
    ctx = _Context(before=before, rewrite=rewrite, report=report,
                   rule=rule.name if rule is not None else rewrite.rule,
                   step=step,
                   exact=rule.exact if rule is not None else True,
                   preserves_interface=(rule.preserves_interface
                                        if rule is not None else True),
                   shares_weights=(rule.shares_weights
                                   if rule is not None else False))
    _check_wellformed(ctx)
    if report.errors:
        # Name/edge-based obligations need a sound graph to be meaningful.
        return report
    _check_interface(ctx)
    _check_removals(ctx)
    _check_fusions(ctx)
    _check_dataflow(ctx)
    if differential:
        _check_differential(ctx, seeds)
    return report


class _Context:
    """The before/after pair plus the rule's declared obligations."""

    def __init__(self, before: Graph, rewrite: "Rewrite", report: AnalysisReport,
                 rule: str, step: int | None, exact: bool,
                 preserves_interface: bool, shares_weights: bool) -> None:
        self.before = before
        self.after = rewrite.graph
        self.rewrite = rewrite
        self.report = report
        self.rule = rule
        self.step = step
        self.exact = exact
        self.preserves_interface = preserves_interface
        self.shares_weights = shares_weights
        self.removed = {r.name: r for r in rewrite.removed}
        self.before_by_name = {n.name: n for n in before.nodes}
        self.after_by_name = {n.name: n for n in self.after.nodes}

    def diag(self, code: str, message: str, severity: Severity = Severity.ERROR,
             node_id: int | None = None) -> None:
        where = f"rule {self.rule!r}"
        if self.step is not None:
            where += f" (step {self.step})"
        self.report.add(Diagnostic(
            pass_name=PASS_NAME, code=code, severity=severity,
            message=f"{where}: {message}", node_id=node_id,
            detail={"rule": self.rule, "step": self.step}))

    def resolve(self, name: str) -> str | None:
        """The after-graph node that stands for before-node ``name``, chasing
        removal provenance transitively; None for dead ends / cycles."""
        hops = 0
        while name in self.removed:
            entry = self.removed[name]
            if entry.into is None:
                return None
            name = entry.into
            hops += 1
            if hops > len(self.removed) + 1:  # provenance cycle
                return None
        return name


# -- well-formedness ---------------------------------------------------------
def _check_wellformed(ctx: _Context) -> None:
    from repro.analysis.graph_lint import lint_graph

    inner = lint_graph(ctx.after)
    for diag in inner.errors:
        ctx.diag("rewrite.malformed",
                 f"rewritten graph fails {diag.code}: {diag.message}",
                 node_id=diag.node_id)


# -- interface ---------------------------------------------------------------
def _spec_matches(before_spec: "TensorSpec", after_spec: "TensorSpec",
                  batch: int | None) -> bool:
    if batch is None:
        return before_spec == after_spec
    return (after_spec.batch == batch
            and after_spec.channels == before_spec.channels
            and after_spec.spatial == before_spec.spatial
            and after_spec.dtype == before_spec.dtype)


def _check_interface(ctx: _Context) -> None:
    if not ctx.preserves_interface:
        return
    batch = ctx.rewrite.batch
    for kind, b_nodes, a_nodes in (
        ("input", ctx.before.input_nodes, ctx.after.input_nodes),
        ("output", ctx.before.output_nodes, ctx.after.output_nodes),
    ):
        b_names = [n.name for n in b_nodes]
        a_names = [n.name for n in a_nodes]
        if b_names != a_names:
            ctx.diag("rewrite.interface",
                     f"{kind} signature changed: {b_names} -> {a_names}")
            continue
        for b, a in zip(b_nodes, a_nodes):
            if not _spec_matches(b.spec, a.spec, batch):
                ctx.diag("rewrite.interface",
                         f"{kind} {b.name!r} spec changed: {b.spec} -> {a.spec}"
                         + ("" if batch is None
                            else f" (declared batch rescale to {batch})"),
                         node_id=a.node_id)


# -- removals ----------------------------------------------------------------
def _live_ids(graph: Graph) -> set[int]:
    outputs = {n.node_id for n in graph.output_nodes}
    return outputs | ancestors(graph, outputs)


def _provably_identity(node: Node) -> bool:
    """Re-derive (independently of the rules) that ``node`` is a no-op."""
    op = node.op
    if op.arity != 1:
        return False
    if isinstance(op, Pool):
        return (all(k == 1 for k in op.kernel)
                and all(s == 1 for s in op.stride)
                and all(p == 0 for p in op.padding))
    # Only attached arrays can prove a value; a described-but-undrawn weight
    # is a seeded random stream, never an identity.
    w = {k: v for k, v in node.weights.items() if isinstance(v, np.ndarray)}
    if len(w) != len(node.weights):
        return False
    if isinstance(op, BatchNorm):
        return bool(w) and bool(np.all(w["scale"] == 1.0)) and not np.any(w["shift"])
    if isinstance(op, Bias):
        return bool(w) and not np.any(w["bias"])
    return False


def _check_removals(ctx: _Context) -> None:
    live = _live_ids(ctx.before)
    # (a) every node that disappeared must carry a justification.
    for node in ctx.before.nodes:
        if node.name in ctx.after_by_name or node.name in ctx.removed:
            continue
        code = ("rewrite.live-node-dropped" if node.node_id in live
                else "rewrite.unjustified-removal")
        ctx.diag(code,
                 f"node {node.name!r} ({node.op.kind}) disappeared with no "
                 f"declared justification"
                 + (" and is live (reaches a graph output)"
                    if node.node_id in live else ""),
                 node_id=node.node_id)
    # (b) every declared justification must be re-provable.
    for entry in ctx.rewrite.removed:
        node = ctx.before_by_name.get(entry.name)
        if node is None:
            ctx.diag("rewrite.bad-provenance",
                     f"removal of {entry.name!r} declared, but the source graph "
                     f"has no such node")
            continue
        if entry.name in ctx.after_by_name:
            ctx.diag("rewrite.bad-provenance",
                     f"node {entry.name!r} declared removed ({entry.reason}) but "
                     f"is still present in the rewritten graph",
                     node_id=node.node_id)
            continue
        if entry.reason == "dead":
            if node.node_id in live:
                ctx.diag("rewrite.live-node-dropped",
                         f"node {entry.name!r} was removed as dead but reaches "
                         f"a graph output", node_id=node.node_id)
        elif entry.reason == "identity":
            if not _provably_identity(node):
                ctx.diag("rewrite.not-identity",
                         f"node {entry.name!r} ({node.op.kind}) was removed as "
                         f"an identity but is not provably value-preserving",
                         node_id=node.node_id)
            producer = (ctx.before.node(node.inputs[0]).name
                        if node.inputs else None)
            if entry.into != producer:
                ctx.diag("rewrite.bad-forward",
                         f"identity removal of {entry.name!r} forwards to "
                         f"{entry.into!r}, expected its producer {producer!r}",
                         node_id=node.node_id)
            elif node.node_id in {n.node_id for n in ctx.before.output_nodes}:
                ctx.diag("rewrite.bad-forward",
                         f"identity removal of {entry.name!r} drops a graph "
                         f"output", node_id=node.node_id)
        elif entry.reason == "merged":
            _check_merge(ctx, entry, node)
        elif entry.reason == "fused":
            if entry.into is None or entry.into not in ctx.rewrite.fused:
                ctx.diag("rewrite.bad-provenance",
                         f"fused removal of {entry.name!r} names host "
                         f"{entry.into!r} with no declared fusion chain",
                         node_id=node.node_id)
        else:
            ctx.diag("rewrite.bad-provenance",
                     f"removal of {entry.name!r} carries unknown reason "
                     f"{entry.reason!r}", node_id=node.node_id)


def _check_merge(ctx: _Context, entry: "RemovedNode", node: Node) -> None:
    twin = ctx.before_by_name.get(entry.into) if entry.into else None
    if twin is None:
        ctx.diag("rewrite.bad-provenance",
                 f"merged removal of {entry.name!r} names twin {entry.into!r} "
                 f"which is not in the source graph", node_id=node.node_id)
        return
    if twin.op != node.op:
        ctx.diag("rewrite.merge-mismatch",
                 f"node {entry.name!r} was merged into {twin.name!r} but their "
                 f"ops differ ({node.op.kind} vs {twin.op.kind})",
                 node_id=node.node_id)
        return
    if twin.spec != node.spec:
        ctx.diag("rewrite.merge-mismatch",
                 f"node {entry.name!r} was merged into {twin.name!r} but their "
                 f"layouts differ ({node.spec} vs {twin.spec})",
                 node_id=node.node_id)
        return
    if not same_weights(twin.weights, node.weights):
        ctx.diag("rewrite.merge-mismatch",
                 f"node {entry.name!r} was merged into {twin.name!r} but their "
                 f"weights differ", node_id=node.node_id)
        return
    mine = [ctx.resolve(ctx.before.node(i).name) for i in node.inputs]
    theirs = [ctx.resolve(ctx.before.node(i).name) for i in twin.inputs]
    if mine != theirs or None in mine:
        ctx.diag("rewrite.merge-mismatch",
                 f"node {entry.name!r} was merged into {twin.name!r} but their "
                 f"resolved inputs differ ({mine} vs {theirs})",
                 node_id=node.node_id)


# -- fusions -----------------------------------------------------------------
def _chain_stage_split(node: Node) -> tuple[tuple[OpSpec, ...], list[dict]]:
    if isinstance(node.op, FusedOp):
        return node.op.stages, node.op.split_weights(node.weights)
    return (node.op,), [dict(node.weights)]


def _check_fusions(ctx: _Context) -> None:
    output_ids = {n.node_id for n in ctx.before.output_nodes}
    for host_name, sources in ctx.rewrite.fused.items():
        host = ctx.after_by_name.get(host_name)
        if host is None or not isinstance(host.op, FusedOp):
            ctx.diag("rewrite.fused-chain",
                     f"declared fusion host {host_name!r} is "
                     + ("missing from the rewritten graph" if host is None
                        else "not a fused op"))
            continue
        if not sources or sources[-1] != host_name:
            ctx.diag("rewrite.fused-chain",
                     f"fusion chain for host {host_name!r} must end with the "
                     f"host itself, got {list(sources)}")
            continue
        members = [ctx.before_by_name.get(s) for s in sources]
        if any(m is None for m in members):
            missing = [s for s, m in zip(sources, members) if m is None]
            ctx.diag("rewrite.fused-chain",
                     f"fusion chain for host {host_name!r} names nodes not in "
                     f"the source graph: {missing}")
            continue
        # The chain must really be a producer->sole-consumer run in `before`,
        # with no interior member observable as a graph output.
        chain_ok = True
        for a, b in zip(members, members[1:]):
            if b.inputs != (a.node_id,):
                ctx.diag("rewrite.fused-chain",
                         f"host {host_name!r}: {b.name!r} does not consume "
                         f"{a.name!r} as its sole input", node_id=b.node_id)
                chain_ok = False
            if ctx.before.consumers(a) != (b.node_id,):
                ctx.diag("rewrite.fused-chain",
                         f"host {host_name!r}: absorbed node {a.name!r} has "
                         f"consumers outside the chain", node_id=a.node_id)
                chain_ok = False
            if a.node_id in output_ids:
                ctx.diag("rewrite.fused-chain",
                         f"host {host_name!r}: absorbed node {a.name!r} is a "
                         f"graph output", node_id=a.node_id)
                chain_ok = False
        if not chain_ok:
            continue
        # The host's stage pipeline must be exactly the flattened chain.
        expected_stages: tuple[OpSpec, ...] = ()
        expected_weights: list[dict] = []
        for member in members:
            stages, weights = _chain_stage_split(member)
            expected_stages = expected_stages + stages
            expected_weights.extend(weights)
        if host.op.stages != expected_stages:
            ctx.diag("rewrite.fused-chain",
                     f"host {host_name!r} computes stage pipeline "
                     f"{[s.kind for s in host.op.stages]} but the declared "
                     f"chain flattens to {[s.kind for s in expected_stages]}",
                     node_id=host.node_id)
            continue
        expected = FusedOp.join_weights(expected_weights)
        if not same_weights(expected, host.weights):
            ctx.diag("rewrite.fused-weights",
                     f"host {host_name!r} weights do not match the absorbed "
                     f"chain's weights", node_id=host.node_id)
        # The host must read exactly what the chain's head read.
        expected_inputs = [ctx.resolve(ctx.before.node(i).name)
                           for i in members[0].inputs]
        actual_inputs = [ctx.after.node(i).name for i in host.inputs]
        if expected_inputs != actual_inputs:
            ctx.diag("rewrite.dataflow",
                     f"host {host_name!r} reads {actual_inputs}, expected the "
                     f"chain head's inputs {expected_inputs}",
                     node_id=host.node_id)


# -- dataflow of surviving nodes ---------------------------------------------
def _check_dataflow(ctx: _Context) -> None:
    hosts = set(ctx.rewrite.fused)
    for node in ctx.after.nodes:
        if node.name in hosts:
            continue  # op/weights/inputs re-derived by _check_fusions
        original = ctx.before_by_name.get(node.name)
        if original is None:
            ctx.diag("rewrite.node-added",
                     f"rewritten graph contains node {node.name!r} "
                     f"({node.op.kind}) with no counterpart in the source "
                     f"graph", node_id=node.node_id)
            continue
        if node.is_input:
            continue  # specs covered by the interface check
        if node.op != original.op:
            ctx.diag("rewrite.op-changed",
                     f"node {node.name!r} changed op: {original.op!r} -> "
                     f"{node.op!r}", node_id=node.node_id)
        expected = [ctx.resolve(ctx.before.node(i).name)
                    for i in original.inputs]
        actual = [ctx.after.node(i).name for i in node.inputs]
        if expected != actual:
            ctx.diag("rewrite.dataflow",
                     f"node {node.name!r} reads {actual}, expected {expected} "
                     f"(its original producers after removal resolution)",
                     node_id=node.node_id)
        if ctx.shares_weights:
            if not same_weights(original.weights, node.weights, shared=True):
                ctx.diag("rewrite.weights-not-shared",
                         f"node {node.name!r} does not share its weight arrays "
                         f"with the source graph (rule declares "
                         f"shares_weights)", node_id=node.node_id)
        elif not same_weights(original.weights, node.weights):
            ctx.diag("rewrite.weights-changed",
                     f"node {node.name!r} weights differ from the source "
                     f"graph", node_id=node.node_id)


# -- differential ------------------------------------------------------------
def _check_differential(ctx: _Context, seeds: Sequence[int]) -> None:
    from repro.core.reference import ReferenceExecutor

    try:
        ref_before = ReferenceExecutor(ctx.before)
        ref_after = ReferenceExecutor(ctx.after)
    except ReproError as exc:
        ctx.diag("rewrite.differential",
                 f"reference executor rejects the graph pair: {exc}")
        return
    batch = ctx.rewrite.batch
    if batch is not None and any(n.spec.batch != 1 for n in ctx.before.input_nodes):
        ctx.diag("rewrite.differential-skipped",
                 f"batch rescale from multi-sample source graph has no "
                 f"per-sample differential obligation", severity=Severity.INFO)
        return
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if batch is None:
            feeds = {n.name: rng.standard_normal(n.spec.shape).astype(n.spec.dtype)
                     for n in ctx.before.input_nodes}
            out_before = ref_before.run(feeds)
            out_after = ref_after.run(feeds)
            for name, expected in out_before.items():
                _compare_outputs(ctx, name, expected, out_after.get(name), seed)
        else:
            # Rebatch: sample k of the batched run must equal a single-shot
            # run on sample k (the serve path's batch-invariance contract).
            samples = [
                {n.name: rng.standard_normal(n.spec.shape).astype(n.spec.dtype)
                 for n in ctx.before.input_nodes}
                for _ in range(batch)
            ]
            batched = {
                name: np.concatenate([s[name] for s in samples], axis=0)
                for name in samples[0]
            }
            out_after = ref_after.run(batched)
            for k, sample in enumerate(samples):
                out_before = ref_before.run(sample)
                for name, expected in out_before.items():
                    got = out_after.get(name)
                    _compare_outputs(
                        ctx, f"{name}[sample {k}]", expected,
                        None if got is None else got[k:k + 1], seed)


def _compare_outputs(ctx: _Context, name: str, expected: "np.ndarray",
                     got: "np.ndarray | None", seed: int) -> None:
    if got is None:
        ctx.diag("rewrite.differential",
                 f"output {name!r} missing from the rewritten graph's results "
                 f"(seed {seed})")
        return
    if ctx.exact:
        same = expected.shape == got.shape and np.array_equal(expected, got)
        contract = "bit-identical"
    else:
        same = expected.shape == got.shape and np.allclose(
            expected, got, rtol=1e-5, atol=1e-5)
        contract = "allclose"
    if not same:
        if expected.shape != got.shape:
            delta = f"shape {expected.shape} -> {got.shape}"
        else:
            delta = f"max |diff| = {np.max(np.abs(expected - got)):.3e}"
        ctx.diag("rewrite.differential",
                 f"output {name!r} violates the {contract} contract on seed "
                 f"{seed}: {delta}")
