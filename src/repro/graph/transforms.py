"""Graph-rebuild helpers: the rewrite rules' weight clone and rebatching.

* :func:`clone_weights` -- the weight clone every graph rebuild goes
  through;
* :func:`rebatch_graph` -- a graph's clone with a different batch size.

The conventional inference rewrites the paper composes with merged
execution (section 5.2: batch-norm folding, dead-node elimination, CSE)
are :mod:`repro.rewrite` rules, each proven sound by translation
validation; :meth:`repro.core.engine.BrickDLEngine.compile` runs them with
``optimize=True``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.ir import Graph, Node, WeightDesc

__all__ = ["clone_weights", "rebatch_graph"]


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

    rewrite = RebatchRule(batch).apply(graph)
    return graph if rewrite is None else rewrite.graph
