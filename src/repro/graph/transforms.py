"""Graph-rewriting passes for inference optimization.

The paper positions merged execution as *orthogonal* to conventional
graph-level optimizations ("Merged execution, when coupled with these
existing graph-level optimizations, can further optimize performance",
section 5.2).  This module supplies the conventional side so the claim is
exercisable in one system:

* :func:`fold_batchnorm` -- fold inference batch-norm (and standalone bias)
  into the preceding convolution's weights, the standard deployment rewrite
  (fewer pointwise sweeps for the baselines, fewer merged layers for
  BrickDL);
* :func:`eliminate_dead_nodes` -- drop nodes that cannot reach an output;
* :func:`eliminate_common_subexpressions` -- merge structurally identical
  nodes fed by the same inputs;
* :func:`optimize` -- the standard pipeline of the above.

All passes rebuild the graph (the IR is append-only) and preserve output
names, so optimized graphs remain drop-in replacements; numerical
equivalence is covered by the test suite.  Dead-node elimination, CSE and
rebatching are the :mod:`repro.rewrite.rules` rules under their historical
call signatures; only :func:`fold_batchnorm` (a numeric refold, which no
bit-exact rule can express) lives here.
"""

from __future__ import annotations

import numpy as np

from repro.graph.ir import Graph, Node, WeightDesc
from repro.graph.ops import BatchNorm, Bias, Conv

__all__ = [
    "clone_weights",
    "fold_batchnorm",
    "eliminate_dead_nodes",
    "eliminate_common_subexpressions",
    "optimize",
    "rebatch_graph",
]


def clone_weights(node: Node) -> dict[str, np.ndarray | WeightDesc]:
    """The audited weight clone every graph rebuild goes through.

    Returns a *fresh dict* holding the *same arrays* (or the same
    descriptions, which resolve to the same arrays): the new graph can gain
    or replace entries (``load_graph`` restores, rules fold) without leaking
    into the source graph, while the arrays themselves stay shared -- weights
    are batch- and rewrite-independent, and sharing is what keeps rebuilt
    clones bit-identical to the source without re-initializing (and what the
    serving layer's batched clones rely on for memory).
    """
    return dict(node.weights)


def _applied(rule, graph: Graph) -> Graph:
    """``rule``'s rewritten graph, or ``graph`` itself when it does not fire."""
    rewrite = rule.apply(graph)
    return graph if rewrite is None else rewrite.graph


def rebatch_graph(graph: Graph, batch: int) -> Graph:
    """Rebuild ``graph`` with every input's batch dimension set to ``batch``.

    The first production rule on the :mod:`repro.rewrite` interface: this
    wrapper keeps the historical call signature (engine ``for_batch``, the
    serving layer) while the match/apply logic and its proof obligations --
    interface preserved up to batch, weight arrays *shared* via
    :func:`clone_weights` so batched clones stay bit-identical to the
    single-shot graph -- live on :class:`repro.rewrite.rules.RebatchRule`.
    Returns ``graph`` itself when every input already has ``batch`` samples.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    from repro.rewrite.rules import RebatchRule

    return _applied(RebatchRule(batch), graph)


def fold_batchnorm(graph: Graph) -> Graph:
    """Fold BatchNorm/Bias nodes into the preceding Conv.

    ``scale * (conv(x, W) + b) + shift`` becomes a conv with weights
    ``scale * W`` and bias ``scale * b + shift``.  Applies when the BN is
    the conv's sole consumer.  Weights must be initialized.
    """
    graph.init_weights()
    skip: dict[int, int] = {}
    folded_weights: dict[int, dict[str, np.ndarray]] = {}
    folded_bias_flag: set[int] = set()

    for node in graph.nodes:
        if not isinstance(node.op, (BatchNorm, Bias)):
            continue
        pred = graph.node(node.inputs[0])
        if not isinstance(pred.op, Conv):
            continue
        if graph.consumers(pred)!= (node.node_id,):
            continue
        if pred.node_id in skip:
            continue
        base = folded_weights.get(pred.node_id) or clone_weights(pred)
        w = base["weight"]
        b = base.get("bias")
        if b is None:
            b = np.zeros(w.shape[0], dtype=w.dtype)
        if isinstance(node.op, BatchNorm):
            scale = node.weights["scale"]
            shift = node.weights["shift"]
        else:
            scale = np.ones(w.shape[0], dtype=w.dtype)
            shift = node.weights["bias"]
        new_w = w * scale.reshape((-1,) + (1,) * (w.ndim - 1))
        new_b = scale * b + shift
        folded_weights[pred.node_id] = {"weight": new_w.astype(w.dtype), "bias": new_b.astype(w.dtype)}
        folded_bias_flag.add(pred.node_id)
        skip[node.node_id] = pred.node_id

    if not skip:
        return graph

    out = Graph(graph.name)
    mapping: dict[int, Node] = {}

    def resolve(old_id: int) -> Node:
        while old_id in skip:
            old_id = skip[old_id]
        return mapping[old_id]

    for node in graph.nodes:
        if node.node_id in skip:
            continue
        if node.is_input:
            mapping[node.node_id] = out.input(node.spec, name=node.name)
            continue
        op = node.op
        weights = clone_weights(node)
        if node.node_id in folded_weights:
            # The folded conv now carries a bias unconditionally.
            op = Conv(out_channels=op.out_channels, kernel=op.kernel, stride=op.stride,
                      padding=op.padding, dilation=op.dilation, groups=op.groups, bias=True)
            weights = folded_weights[node.node_id]
        inputs = [resolve(i) for i in node.inputs]
        new = out.add(op, inputs, name=node.name)
        new.weights = weights
        mapping[node.node_id] = new
    for o in graph.output_nodes:
        out.mark_output(resolve(o.node_id))
    out.validate()
    return out


def eliminate_dead_nodes(graph: Graph) -> Graph:
    """Drop nodes from which no graph output is reachable
    (:class:`repro.rewrite.rules.PruneDeadNodes`)."""
    from repro.rewrite.rules import PruneDeadNodes

    return _applied(PruneDeadNodes(), graph)


def eliminate_common_subexpressions(graph: Graph) -> Graph:
    """Merge nodes with identical ops, inputs, and weights
    (:class:`repro.rewrite.rules.LayoutAwareCSE`).

    Ops are frozen dataclasses, so structural equality is exact; weights are
    compared by :func:`repro.graph.ir.same_weights`.  Output nodes keep
    their names.
    """
    from repro.rewrite.rules import LayoutAwareCSE

    return _applied(LayoutAwareCSE(), graph)


def optimize(graph: Graph) -> Graph:
    """The standard inference pipeline: CSE -> BN folding -> dead-code."""
    g = eliminate_common_subexpressions(graph)
    g = fold_batchnorm(g)
    return eliminate_dead_nodes(g)
