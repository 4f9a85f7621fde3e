"""Graph traversal utilities and subgraph views.

BrickDL's static analyses are traversal-heavy: partitioning walks the graph
in reverse accumulating data footprints (section 3.3.1), and the halo
analysis walks each subgraph in reverse composing receptive-field maps
(section 3.2.1).  This module provides the shared machinery:

* :func:`topological_order`,
* :func:`ancestors` / :func:`descendants` -- the one transitive walk over
  input or consumer edges (liveness, planner convexity),
* :class:`SubgraphView` -- a contiguous-by-dependency slice of a graph with
  its own notion of entry/exit nodes, which is what the partitioner emits and
  both merged executors consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import GraphError
from repro.graph.ir import Graph, Node

__all__ = ["topological_order", "ancestors", "descendants", "SubgraphView", "subgraph_view"]


def topological_order(graph: Graph) -> list[Node]:
    """Nodes in dependency order.

    Node ids are assigned at insertion with inputs-before-use enforced, so
    insertion order *is* a topological order; this helper exists to make that
    contract explicit (and checked) at call sites.
    """
    nodes = list(graph.nodes)
    for node in nodes:
        for i in node.inputs:
            if i >= node.node_id:
                raise GraphError(f"node {node.name!r} consumes later node {i}")
    return nodes


def ancestors(graph: Graph, ids: Iterable[int]) -> set[int]:
    """Ids of every node with a path of one or more edges to a node in
    ``ids`` (so a start is included only if it feeds another start)."""
    return _closure(ids, lambda nid: graph.node(nid).inputs)


def descendants(graph: Graph, ids: Iterable[int]) -> set[int]:
    """Ids of every node a path of one or more edges reaches from a node in
    ``ids`` (so a start is included only if another start feeds it)."""
    return _closure(ids, graph.consumers)


def _closure(ids: Iterable[int], step: Callable[[int], Iterable[int]]) -> set[int]:
    seen: set[int] = set()
    stack = [nxt for nid in ids for nxt in step(nid)]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        stack.extend(step(nid))
    return seen


@dataclass(frozen=True)
class SubgraphView:
    """A dependency-closed set of nodes within a parent graph.

    Attributes
    ----------
    graph:
        The parent graph.
    node_ids:
        Member node ids in topological order.
    entry_ids:
        Ids of *external* producer nodes whose outputs the subgraph reads
        (its inputs; not members).
    exit_ids:
        Member node ids whose outputs are consumed outside the subgraph (or
        are graph outputs) -- the activations the subgraph must materialize.
    """

    graph: Graph
    node_ids: tuple[int, ...]
    entry_ids: tuple[int, ...]
    exit_ids: tuple[int, ...]

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self.graph.node(i) for i in self.node_ids)

    @property
    def entries(self) -> tuple[Node, ...]:
        return tuple(self.graph.node(i) for i in self.entry_ids)

    @property
    def exits(self) -> tuple[Node, ...]:
        return tuple(self.graph.node(i) for i in self.exit_ids)

    def __len__(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node: Node | int) -> bool:
        node_id = node.node_id if isinstance(node, Node) else int(node)
        return node_id in set(self.node_ids)

    @property
    def depth(self) -> int:
        """Longest operator chain within the subgraph (layers merged)."""
        members = set(self.node_ids)
        depth: dict[int, int] = {}
        for nid in self.node_ids:
            node = self.graph.node(nid)
            pred = [depth[i] for i in node.inputs if i in members]
            depth[nid] = 1 + (max(pred) if pred else 0)
        return max(depth.values(), default=0)

    def describe(self) -> str:
        names = [self.graph.node(i).name for i in self.node_ids]
        return f"SubgraphView({len(names)} nodes: {names[0]} .. {names[-1]})"


def materialize_subgraph(view: SubgraphView, name: str | None = None) -> Graph:
    """Lift a subgraph view into a standalone :class:`Graph`.

    Entry nodes become graph inputs; exits become outputs.  Used by the
    case-study benchmarks (Fig. 8/9) to execute one partition of a model in
    isolation under different strategies.
    """
    src = view.graph
    g = Graph(name or f"{src.name}/sub{view.node_ids[0]}")
    mapping: dict[int, Node] = {}
    for eid in view.entry_ids:
        mapping[eid] = g.input(src.node(eid).spec, name=f"in/{src.node(eid).name}")
    for nid in view.node_ids:
        node = src.node(nid)
        inputs = [mapping[i] for i in node.inputs]
        mapping[nid] = g.add(node.op, inputs, name=node.name)
    for xid in view.exit_ids:
        g.mark_output(mapping[xid])
    g.validate()
    return g


def subgraph_view(graph: Graph, node_ids: Iterable[int]) -> SubgraphView:
    """Build a :class:`SubgraphView`, validating dependency closure.

    ``node_ids`` must be closed under "all internal paths": any member's
    input is either a member or an entry.  Entries and exits are derived from
    the parent graph's edges.
    """
    members = sorted(set(int(i) for i in node_ids))
    if not members:
        raise GraphError("subgraph must contain at least one node")
    member_set = set(members)
    for nid in members:
        if not 0 <= nid < len(graph):
            raise GraphError(f"subgraph node id {nid} out of range")

    entry_ids: list[int] = []
    for nid in members:
        for i in graph.node(nid).inputs:
            if i not in member_set and i not in entry_ids:
                entry_ids.append(i)

    graph_outputs = {n.node_id for n in graph.output_nodes}
    exit_ids: list[int] = []
    for nid in members:
        consumed_outside = any(c not in member_set for c in graph.consumers(nid))
        if consumed_outside or nid in graph_outputs or not graph.consumers(nid):
            exit_ids.append(nid)

    return SubgraphView(
        graph=graph,
        node_ids=tuple(members),
        entry_ids=tuple(entry_ids),
        exit_ids=tuple(exit_ids),
    )
