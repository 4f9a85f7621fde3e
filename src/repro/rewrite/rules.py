"""The seed rewrite rules.

Every rule rebuilds through one helper (:func:`_rebuild`) and one audited
weight clone (:func:`repro.graph.transforms.clone_weights`), and returns
full provenance for the translation validator.  The fusion rules build
:class:`~repro.graph.ops.FusedOp` hosts, which execute the *exact same
kernels in the same order* as the unfused nodes -- fusion here is a graph
/ planning change, not a numerical one, so the bit-identity obligation is
dischargeable (classic weight-refolding, e.g. ``scale * W``, is not
bit-stable under float32 and is deliberately not what these rules do).

Seed set:

* :class:`FoldConvBatchNorm` -- absorb a BatchNorm/Bias into the preceding
  convolution as a fused epilogue stage (the paper's conv+BN subgraph
  seed);
* :class:`FusePointwiseChains` -- collapse runs of >= 2 single-input
  pointwise ops into one fused node (elementwise-chain fusion);
* :class:`PruneDeadNodes` / :class:`PruneIdentityOps` -- remove nodes no
  output can observe, and provably value-preserving ops (1x1/1 pooling,
  ``scale==1, shift==0`` BatchNorm, all-zero Bias);
* :class:`LayoutAwareCSE` -- merge structurally identical twins only when
  op, resolved inputs, weights *and* output layout (TensorSpec) all agree;
* :class:`RebatchRule` -- the ported ``rebatch_graph`` (first production
  rule): rescale the interface batch, sharing weight arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.graph.ir import Graph, Node, same_weights
from repro.graph.ops import BatchNorm, Bias, Conv, FusedOp, OpSpec, Pool
from repro.graph.transforms import clone_weights
from repro.rewrite.rule import RemovedNode, Rewrite, Rule

__all__ = [
    "FoldConvBatchNorm",
    "FusePointwiseChains",
    "PruneDeadNodes",
    "PruneIdentityOps",
    "LayoutAwareCSE",
    "RebatchRule",
    "RULES",
]


def _rebuild(
    graph: Graph,
    drop: frozenset | set = frozenset(),
    forward: dict[int, int] | None = None,
    replace: dict[int, tuple[OpSpec, dict, tuple[int, ...]]] | None = None,
) -> Graph:
    """Rebuild ``graph`` dropping ``drop``, redirecting consumers of
    ``forward`` keys to their values (old-graph ids, chased transitively),
    and substituting ``replace`` entries ``(op, weights, old_input_ids)``
    in place of the keyed nodes (same name, new op)."""
    forward = forward or {}
    replace = replace or {}
    out = Graph(graph.name)
    mapping: dict[int, Node] = {}

    def resolve(old_id: int) -> Node:
        while old_id in forward:
            old_id = forward[old_id]
        return mapping[old_id]

    for node in graph.nodes:
        if node.node_id in drop or node.node_id in forward:
            continue
        if node.is_input:
            new = out.input(node.spec, name=node.name)
        elif node.node_id in replace:
            op, weights, old_inputs = replace[node.node_id]
            new = out.add(op, [resolve(i) for i in old_inputs], name=node.name)
            new.weights = dict(weights)
        else:
            new = out.add(node.op, [resolve(i) for i in node.inputs], name=node.name)
            new.weights = clone_weights(node)
        mapping[node.node_id] = new
    for o in graph.output_nodes:
        out.mark_output(resolve(o.node_id))
    out.validate()
    return out


def _live_ids(graph: Graph) -> set[int]:
    # Its own walk, not graph.traversal's: the validator re-derives liveness
    # there, and must not share the derivation of the rule it checks.
    live: set[int] = set()
    stack = [n.node_id for n in graph.output_nodes]
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        stack.extend(graph.node(nid).inputs)
    return live


def _stage_split(node: Node) -> tuple[tuple[OpSpec, ...], list[dict]]:
    """A node's plain-op pipeline and the matching per-stage weight dicts."""
    if isinstance(node.op, FusedOp):
        return node.op.stages, node.op.split_weights(node.weights)
    return (node.op,), [dict(node.weights)]


class FoldConvBatchNorm(Rule):
    """Fold a BatchNorm/Bias into its sole-producing convolution.

    The BN node becomes a :class:`FusedOp` host whose primary is the conv
    (or extends an already-fused conv's epilogue); the conv node vanishes.
    Applies only when the conv's *only* consumer is the BN and the conv is
    not itself a graph output (its raw activation must stay observable).
    """

    name = "fold-conv-bn"

    def apply(self, graph: Graph) -> Rewrite | None:
        graph.describe_weights()
        output_ids = {n.node_id for n in graph.output_nodes}
        claimed: set[int] = set()
        forward: dict[int, int] = {}
        replace: dict[int, tuple[OpSpec, dict, tuple[int, ...]]] = {}
        removed: list[RemovedNode] = []
        fused: dict[str, tuple[str, ...]] = {}
        for node in graph.nodes:
            if not isinstance(node.op, (BatchNorm, Bias)) or node.node_id in claimed:
                continue
            pred = graph.node(node.inputs[0])
            primary = pred.op.primary if isinstance(pred.op, FusedOp) else pred.op
            if not isinstance(primary, Conv):
                continue
            if graph.consumers(pred) != (node.node_id,):
                continue
            if pred.node_id in output_ids or pred.node_id in claimed:
                continue
            stages, stage_weights = _stage_split(pred)
            stages = stages + (node.op,)
            stage_weights.append(dict(node.weights))
            replace[node.node_id] = (
                FusedOp(stages[0], stages[1:]),
                FusedOp.join_weights(stage_weights),
                pred.inputs,
            )
            forward[pred.node_id] = node.node_id
            removed.append(RemovedNode(pred.name, "fused", into=node.name))
            fused[node.name] = (pred.name, node.name)
            claimed.update((pred.node_id, node.node_id))
        if not replace:
            return None
        return Rewrite(self.name, _rebuild(graph, forward=forward, replace=replace),
                       removed=tuple(removed), fused=fused,
                       detail=f"folded {len(replace)} BN/bias node(s) into convs")


class FusePointwiseChains(Rule):
    """Collapse maximal runs of >= 2 single-input pointwise ops into one
    fused node.  Interior members must be sole-consumed and must not be
    graph outputs; the run's exit keeps its name (and output marking)."""

    name = "fuse-pointwise"

    @staticmethod
    def _chainable(node: Node) -> bool:
        return not node.is_input and node.op.arity == 1 and node.op.is_pointwise

    def apply(self, graph: Graph) -> Rewrite | None:
        output_ids = {n.node_id for n in graph.output_nodes}
        claimed: set[int] = set()
        forward: dict[int, int] = {}
        replace: dict[int, tuple[OpSpec, dict, tuple[int, ...]]] = {}
        removed: list[RemovedNode] = []
        fused: dict[str, tuple[str, ...]] = {}
        for node in graph.nodes:
            if node.node_id in claimed or not self._chainable(node):
                continue
            chain = [node]
            current = node
            while current.node_id not in output_ids:
                consumers = graph.consumers(current)
                if len(consumers) != 1:
                    break
                nxt = graph.node(consumers[0])
                if not self._chainable(nxt):
                    break
                chain.append(nxt)
                current = nxt
            if len(chain) < 2:
                continue
            stages: tuple[OpSpec, ...] = ()
            stage_weights: list[dict] = []
            for member in chain:
                s, w = _stage_split(member)
                stages = stages + s
                stage_weights.extend(w)
            host = chain[-1]
            replace[host.node_id] = (
                FusedOp(stages[0], stages[1:]),
                FusedOp.join_weights(stage_weights),
                chain[0].inputs,
            )
            for member in chain[:-1]:
                forward[member.node_id] = host.node_id
                removed.append(RemovedNode(member.name, "fused", into=host.name))
            fused[host.name] = tuple(m.name for m in chain)
            claimed.update(m.node_id for m in chain)
        if not replace:
            return None
        return Rewrite(self.name, _rebuild(graph, forward=forward, replace=replace),
                       removed=tuple(removed), fused=fused,
                       detail=f"fused {len(replace)} pointwise chain(s)")


class PruneDeadNodes(Rule):
    """Drop every non-input node from which no graph output is reachable."""

    name = "prune-dead"

    def apply(self, graph: Graph) -> Rewrite | None:
        live = _live_ids(graph)
        dead = [n for n in graph.nodes if n.node_id not in live and not n.is_input]
        if not dead:
            return None
        return Rewrite(self.name,
                       _rebuild(graph, drop={n.node_id for n in dead}),
                       removed=tuple(RemovedNode(n.name, "dead") for n in dead),
                       detail=f"dropped {len(dead)} dead node(s)")


class PruneIdentityOps(Rule):
    """Remove ops that provably compute the identity on their input.

    Matches 1x1/stride-1/unpadded pooling windows, BatchNorm with
    materialized ``scale == 1`` and ``shift == 0``, and all-zero Bias.
    Weight-carrying candidates only match when their weights are present as
    arrays -- the rule never materializes weights itself, so profile-mode
    and described-but-undrawn graphs pass through untouched."""

    name = "prune-identity"

    @staticmethod
    def _is_identity(node: Node) -> bool:
        op = node.op
        if isinstance(op, Pool):
            return (all(k == 1 for k in op.kernel)
                    and all(s == 1 for s in op.stride)
                    and all(p == 0 for p in op.padding))
        w = node.weights
        if not w or not all(isinstance(v, np.ndarray) for v in w.values()):
            return False
        if isinstance(op, BatchNorm):
            return bool(np.all(w["scale"] == 1.0)) and not np.any(w["shift"])
        if isinstance(op, Bias):
            return not np.any(w["bias"])
        return False

    def apply(self, graph: Graph) -> Rewrite | None:
        output_ids = {n.node_id for n in graph.output_nodes}
        forward: dict[int, int] = {}
        removed: list[RemovedNode] = []
        for node in graph.nodes:
            if node.is_input or node.node_id in output_ids:
                continue
            if node.op.arity != 1 or not self._is_identity(node):
                continue
            forward[node.node_id] = node.inputs[0]
            removed.append(RemovedNode(node.name, "identity",
                                       into=graph.node(node.inputs[0]).name))
        if not forward:
            return None
        return Rewrite(self.name, _rebuild(graph, forward=forward),
                       removed=tuple(removed),
                       detail=f"removed {len(forward)} identity op(s)")


class LayoutAwareCSE(Rule):
    """Merge twin nodes: identical op, resolved inputs, weights, *and*
    output layout (TensorSpec).  Graph inputs and outputs never merge."""

    name = "cse"

    def apply(self, graph: Graph) -> Rewrite | None:
        graph.describe_weights()
        output_ids = {n.node_id for n in graph.output_nodes}
        seen: dict = {}
        forward: dict[int, int] = {}
        removed: list[RemovedNode] = []
        for node in graph.nodes:
            if node.is_input or node.node_id in output_ids:
                continue
            resolved = tuple(forward.get(i, i) for i in node.inputs)
            key = (node.op, resolved)
            prior = seen.get(key)
            if prior is not None:
                twin = graph.node(prior)
                if twin.spec == node.spec and same_weights(twin.weights, node.weights):
                    forward[node.node_id] = prior
                    removed.append(RemovedNode(node.name, "merged", into=twin.name))
                    continue
            seen.setdefault(key, node.node_id)
        if not forward:
            return None
        return Rewrite(self.name, _rebuild(graph, forward=forward),
                       removed=tuple(removed),
                       detail=f"merged {len(forward)} duplicate node(s)")


class RebatchRule(Rule):
    """Rescale every graph input's batch dimension (the ported
    ``rebatch_graph``).  All downstream specs re-infer; weight *arrays* are
    shared with the source graph through the audited clone helper -- the
    obligation (``shares_weights``) the validator checks by object
    identity, because value-equal copies would silently double memory and
    break the serving layer's bit-identity argument."""

    name = "rebatch"
    shares_weights = True

    def __init__(self, batch: int) -> None:
        if batch < 1:
            raise ReproError(f"batch must be >= 1, got {batch}")
        self.batch = int(batch)

    def apply(self, graph: Graph) -> Rewrite | None:
        if all(n.spec.batch == self.batch for n in graph.input_nodes):
            return None
        from repro.graph.tensorspec import TensorSpec

        out = Graph(graph.name)
        mapping: dict[int, Node] = {}
        for node in graph.nodes:
            if node.is_input:
                spec = TensorSpec(self.batch, node.spec.channels,
                                  node.spec.spatial, node.spec.dtype)
                new = out.input(spec, name=node.name)
            else:
                new = out.add(node.op, [mapping[i] for i in node.inputs], name=node.name)
                new.weights = clone_weights(node)
            mapping[node.node_id] = new
        for o in graph.output_nodes:
            out.mark_output(mapping[o.node_id])
        out.validate()
        return Rewrite(self.name, out, batch=self.batch,
                       detail=f"rebatched interface to {self.batch} sample(s)")


#: Name registry for ``--rules`` selection (rebatch is parameterized and is
#: instantiated explicitly by its callers, not by name).
RULES: dict[str, type[Rule]] = {
    FoldConvBatchNorm.name: FoldConvBatchNorm,
    FusePointwiseChains.name: FusePointwiseChains,
    PruneDeadNodes.name: PruneDeadNodes,
    PruneIdentityOps.name: PruneIdentityOps,
    LayoutAwareCSE.name: LayoutAwareCSE,
}
