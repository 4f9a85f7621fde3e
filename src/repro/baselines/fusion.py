"""Operator fusion pass shared by the conventional baselines.

Implements the fusion the paper's baselines have: a *primary* operator
(conv, pool, dense, ...) absorbs the chain of pointwise operators that
immediately follows it (bias, batch-norm, activations, residual adds whose
other operand is already materialized) into one kernel, eliminating the
intermediate activation round-trips for those ops.  This is cuDNN's backend
fused-operation-graph capability and the core of what TorchScript/XLA do for
these CNNs; what none of them can fuse is a chain of *convolutions* -- the
gap BrickDL's merged execution targets (section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graph.ir import Graph, Node

__all__ = ["FusionGroup", "fuse_graph", "fuse_members"]


@dataclass
class FusionGroup:
    """A primary op plus the pointwise chain fused onto it."""

    primary: Node
    fused: list[Node] = field(default_factory=list)

    @property
    def nodes(self) -> list[Node]:
        return [self.primary, *self.fused]

    @property
    def output(self) -> Node:
        return self.fused[-1] if self.fused else self.primary

    def describe(self) -> str:
        ops = "+".join(n.op.kind for n in self.nodes)
        return f"[{self.primary.name}: {ops}]"


def fuse_graph(graph: Graph, enabled: bool = True) -> list[FusionGroup]:
    """Partition all non-input nodes into fusion groups, in execution order.

    A follower is absorbed when it is pointwise, it is the *sole* consumer
    chain of the group's current output, and every *other* input it has was
    produced before this group's primary (so execution order stays valid for
    residual adds).
    """
    return fuse_members(graph, [n.node_id for n in graph.nodes if not n.is_input], enabled)


def fuse_members(graph: Graph, node_ids: Sequence[int], enabled: bool = True) -> list[FusionGroup]:
    """:func:`fuse_graph` over ``node_ids`` only, in that order: a chain never
    leaves them (the vendor-library fallback of one subgraph)."""
    members = set(node_ids)
    groups: list[FusionGroup] = []
    absorbed: set[int] = set()
    for nid in node_ids:
        if nid in absorbed:
            continue
        group = FusionGroup(primary=graph.node(nid))
        current = group.primary
        while enabled:
            consumers = graph.consumers(current)
            if len(consumers) != 1 or consumers[0] not in members:
                break
            nxt = graph.node(consumers[0])
            if not nxt.op.is_pointwise:
                break
            if any(i >= group.primary.node_id for i in nxt.inputs if i != current.node_id):
                break
            group.fused.append(nxt)
            absorbed.add(nxt.node_id)
            current = nxt
        groups.append(group)
    return groups
