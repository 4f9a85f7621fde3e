"""DNN graph intermediate representation: :class:`Node` and :class:`Graph`.

A :class:`Graph` is a directed acyclic data-flow graph.  Each :class:`Node`
applies one :class:`~repro.graph.ops.OpSpec` to the outputs of its input
nodes and produces exactly one activation tensor.  Shapes are inferred at
construction time, so a fully built graph always shape-checks.

Graphs are the common currency of the whole library: the BrickDL engine,
the cuDNN-style baseline, the fusion passes and the model zoo all produce or
consume them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import GraphError, ShapeError
from repro.graph.ops import InputOp, OpSpec
from repro.graph.tensorspec import TensorSpec

__all__ = ["Node", "Graph", "WeightDraw", "WeightDesc", "weight_array", "same_weights"]


class WeightDraw:
    """One seeded weight stream: the sequential ``default_rng(seed)`` walk
    over the ``(op, input_specs)`` entries declared on it.

    Declaring costs nothing; :meth:`arrays` runs the walk once and caches
    it, so every graph holding a :class:`WeightDesc` of this draw receives
    the *same array objects*.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._entries: list[tuple[OpSpec, tuple[TensorSpec, ...]]] = []
        self._arrays: list[dict[str, np.ndarray]] | None = None
        self._lock = threading.Lock()

    def declare(self, op: OpSpec, input_specs: Sequence[TensorSpec]) -> dict[str, "WeightDesc"]:
        """Append ``op`` to the walk; its weights, described not drawn.
        Weightless ops draw nothing and take no position."""
        shapes = op.weight_shapes(input_specs)
        if not shapes:
            return {}
        position = len(self._entries)
        self._entries.append((op, tuple(input_specs)))
        return {key: WeightDesc(self, position, key, shape) for key, shape in shapes.items()}

    def arrays(self) -> list[dict[str, np.ndarray]]:
        """Per-position weight dicts, drawn on first use."""
        with self._lock:
            if self._arrays is None:
                rng = np.random.default_rng(self.seed)
                self._arrays = [op.init_weights(specs, rng) for op, specs in self._entries]
            return self._arrays


@dataclass(frozen=True)
class WeightDesc:
    """A seeded weight that has been described but not drawn: entry
    ``position`` of ``draw``, weight ``key``, of ``shape``.  Equal
    descriptions (draws compare by identity) denote one array."""

    draw: WeightDraw = field(repr=False)
    position: int
    key: str
    shape: tuple[int, ...]

    def resolve(self) -> np.ndarray:
        return self.draw.arrays()[self.position][self.key]


def weight_array(weight: "np.ndarray | WeightDesc") -> np.ndarray:
    """The array a ``node.weights`` value stands for (draws a description)."""
    return weight.resolve() if isinstance(weight, WeightDesc) else weight


def same_weights(a: Mapping[str, "np.ndarray | WeightDesc"],
                 b: Mapping[str, "np.ndarray | WeightDesc"], *,
                 shared: bool = False) -> bool:
    """The one weight-equality primitive (rules, validator).

    Same object or same description => same values, with nothing drawn;
    two *different* descriptions are conservatively unequal (distinct
    positions of a random stream -- sound for every caller, which then
    merely declines to merge / reports a change).  A description against a
    real array resolves and compares; attached arrays compare by value.
    ``shared=True`` demands the same array *object* instead of equal values,
    so a resolved and an unresolved view of one description still pass.
    """
    if a.keys() != b.keys():
        return False
    for key, x in a.items():
        y = b[key]
        if x is y:
            continue
        if isinstance(x, WeightDesc) and isinstance(y, WeightDesc):
            if x != y:
                return False
            continue
        x, y = weight_array(x), weight_array(y)
        if x is not y and (shared or not np.array_equal(x, y)):
            return False
    return True


@dataclass
class Node:
    """One operator application in a :class:`Graph`.

    Attributes
    ----------
    node_id:
        Dense integer id, stable within its graph (also the topological
        insertion order).
    name:
        Human-readable unique name (e.g. ``"conv2_3/conv"``).
    op:
        The operator specification.
    inputs:
        Ids of producer nodes, in operator-argument order.
    spec:
        Inferred output tensor spec.
    weights:
        Per-key weights: arrays once attached or drawn, :class:`WeightDesc`
        descriptions after ``Graph.describe_weights`` (what the rewrite
        rules leave behind), empty before either.  Only
        ``Graph.init_weights`` turns descriptions into arrays.
    """

    node_id: int
    name: str
    op: OpSpec
    inputs: tuple[int, ...]
    spec: TensorSpec
    weights: dict[str, np.ndarray | WeightDesc] = field(default_factory=dict, repr=False)

    @property
    def is_input(self) -> bool:
        return isinstance(self.op, InputOp)

    def __hash__(self) -> int:
        return hash((id(self), self.node_id))


class Graph:
    """A shape-checked DNN data-flow DAG.

    Nodes are appended via :meth:`add`; because inputs must already exist,
    node ids are always a valid topological order.  The graph tracks consumer
    lists so reverse traversals (BrickDL's static analysis) are O(V+E).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: list[Node] = []
        self._by_name: dict[str, Node] = {}
        self._consumers: list[list[int]] = []
        self._outputs: list[int] = []

    # -- construction -------------------------------------------------------
    def add(self, op: OpSpec, inputs: Sequence[Node | int] = (), name: str | None = None) -> Node:
        """Append a node applying ``op`` to ``inputs`` and infer its shape."""
        input_ids = tuple(n.node_id if isinstance(n, Node) else int(n) for n in inputs)
        for i in input_ids:
            if not 0 <= i < len(self._nodes):
                raise GraphError(f"input id {i} does not exist in graph {self.name!r}")
        input_specs = [self._nodes[i].spec for i in input_ids]
        try:
            spec = op.infer(input_specs)
        except ShapeError as exc:
            raise ShapeError(f"while adding {name or op.kind!r}: {exc}") from exc
        node_id = len(self._nodes)
        if name is None:
            name = f"{op.kind}_{node_id}"
        if name in self._by_name:
            raise GraphError(f"duplicate node name {name!r}")
        node = Node(node_id=node_id, name=name, op=op, inputs=input_ids, spec=spec)
        self._nodes.append(node)
        self._by_name[name] = node
        self._consumers.append([])
        for i in input_ids:
            self._consumers[i].append(node_id)
        return node

    def input(self, spec: TensorSpec, name: str = "input") -> Node:
        """Add a graph input placeholder."""
        return self.add(InputOp(spec), (), name=name)

    def mark_output(self, node: Node | int) -> None:
        node_id = node.node_id if isinstance(node, Node) else int(node)
        if node_id not in self._outputs:
            self._outputs.append(node_id)

    # -- access ---------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    def node(self, ref: int | str) -> Node:
        if isinstance(ref, str):
            try:
                return self._by_name[ref]
            except KeyError:
                raise GraphError(f"no node named {ref!r}") from None
        return self._nodes[ref]

    def consumers(self, node: Node | int) -> tuple[int, ...]:
        node_id = node.node_id if isinstance(node, Node) else int(node)
        return tuple(self._consumers[node_id])

    @property
    def input_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self._nodes if n.is_input)

    @property
    def output_nodes(self) -> tuple[Node, ...]:
        if self._outputs:
            return tuple(self._nodes[i] for i in self._outputs)
        # Default: all sinks.
        return tuple(n for n in self._nodes if not self._consumers[n.node_id])

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    # -- weights ---------------------------------------------------------------
    def _input_specs(self, node: Node) -> list[TensorSpec]:
        return [self._nodes[i].spec for i in node.inputs]

    def describe_weights(self, seed: int = 0) -> None:
        """Declare deterministic weights for every node that has none, as
        one :class:`WeightDraw` in node order, without drawing (idempotent).
        Graphs rebuilt from this one carry the descriptions along, so they
        resolve to the arrays this graph resolves to."""
        draw = WeightDraw(seed)
        for node in self._nodes:
            if not node.weights:
                node.weights = draw.declare(node.op, self._input_specs(node))

    def init_weights(self, seed: int = 0) -> None:
        """Materialize deterministic weights for every node (idempotent):
        declare what is missing, then resolve every description."""
        self.describe_weights(seed)
        for node in self._nodes:
            if any(isinstance(w, WeightDesc) for w in node.weights.values()):
                node.weights = {k: weight_array(w) for k, w in node.weights.items()}

    def weight_bytes(self) -> int:
        """Total parameter footprint in bytes (analytic: nothing is drawn)."""
        return sum(n.op.weight_bytes(self._input_specs(n)) for n in self._nodes)

    # -- analysis helpers --------------------------------------------------------
    def structural_errors(self) -> list[GraphError]:
        """Every structural failure as a typed :class:`GraphError`.

        Each error message names the offending node (and edge, where one is
        involved).  ``validate`` raises the first; the graph linter
        (:mod:`repro.analysis.graph_lint`) reports them all -- both consume
        this single implementation so the checks cannot drift apart.
        """
        errors: list[GraphError] = []
        for index, node in enumerate(self._nodes):
            if node.node_id != index:
                errors.append(GraphError(
                    f"node {node.name!r}: node_id {node.node_id} does not match "
                    f"its position {index} in the graph"))
            if len(node.inputs) != node.op.arity:
                errors.append(GraphError(
                    f"node {node.name!r}: op {node.op.kind} expects {node.op.arity} "
                    f"inputs, has {len(node.inputs)}"))
            for i in node.inputs:
                if not 0 <= i < len(self._nodes):
                    errors.append(GraphError(
                        f"node {node.name!r}: dangling edge to nonexistent node id {i}"))
                elif i >= node.node_id:
                    errors.append(GraphError(
                        f"node {node.name!r}: edge {i} -> {node.node_id} violates "
                        f"topological order (consumes node {self._nodes[i].name!r} "
                        f"added later)"))
            if self._by_name.get(node.name) is not node:
                errors.append(GraphError(
                    f"node {node.name!r}: name resolves to a different node "
                    f"(duplicate or stale name index)"))
        # Consumer bookkeeping must mirror the edge list exactly.
        expected: list[list[int]] = [[] for _ in self._nodes]
        for node in self._nodes:
            for i in node.inputs:
                if 0 <= i < len(self._nodes):
                    expected[i].append(node.node_id)
        for node in self._nodes:
            if sorted(self._consumers[node.node_id]) != sorted(expected[node.node_id]):
                errors.append(GraphError(
                    f"node {node.name!r}: consumer list {self._consumers[node.node_id]} "
                    f"disagrees with the edges ({expected[node.node_id]})"))
        bad_outputs = [oid for oid in self._outputs if not 0 <= oid < len(self._nodes)]
        for oid in bad_outputs:
            errors.append(GraphError(
                f"graph {self.name!r}: marked output id {oid} does not exist"))
        if not self.input_nodes:
            errors.append(GraphError(f"graph {self.name!r} has no input nodes"))
        if not bad_outputs and not self.output_nodes:
            errors.append(GraphError(f"graph {self.name!r} has no output nodes"))
        return errors

    def validate(self) -> None:
        """Structural sanity checks; raises the first :class:`GraphError`."""
        errors = self.structural_errors()
        if errors:
            raise errors[0]

    def activation_bytes(self) -> int:
        """Sum of all activation sizes (one pass, no reuse)."""
        return sum(n.spec.nbytes for n in self._nodes)

    def total_flops(self) -> int:
        total = 0
        for node in self._nodes:
            total += node.op.flops(self._input_specs(node), node.spec.num_elements)
        return total

    def summary(self) -> str:
        """A readable multi-line description of the graph."""
        lines = [f"Graph {self.name!r}: {len(self)} nodes"]
        for node in self._nodes:
            ins = ",".join(str(i) for i in node.inputs)
            lines.append(f"  [{node.node_id:3d}] {node.name:<28s} {node.op.kind:<14s} <- ({ins}) -> {node.spec}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Graph({self.name!r}, nodes={len(self)})"
