"""Naive layer-by-layer reference executor.

Executes a graph exactly as Fig. 2(a)'s naive version: one full sweep per
operator, every activation fully materialized.  It performs no blocking and
collects no metrics -- it exists purely as numerical ground truth.  Every
other execution system in the library (padded bricks, memoized bricks, tiled
cuDNN baseline, fusion baselines) is tested for output equality against it.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ExecutionError
from repro.graph.ir import Graph
from repro.graph.traversal import topological_order
from repro.kernels import apply_node_full

__all__ = ["ReferenceExecutor"]


class ReferenceExecutor:
    """Ground-truth executor: full-tensor, operator-at-a-time."""

    def __init__(self, graph: Graph) -> None:
        graph.validate()
        graph.init_weights()
        self.graph = graph

    def run(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> dict[str, np.ndarray]:
        """Execute the graph; returns ``{output_node_name: activation}``.

        ``inputs`` may be a single array (bound to the unique graph input) or
        a mapping from input-node name to array.
        """
        every = self.run_all(inputs)
        return {n.name: every[n.name] for n in self.graph.output_nodes}

    def run_all(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> dict[str, np.ndarray]:
        """Every node's activation, ``{node_name: activation}``: one sweep,
        one full-tensor kernel call per operator."""
        feeds = self._normalize_inputs(inputs)
        values: dict[int, np.ndarray] = {}
        for node in topological_order(self.graph):
            if node.is_input:
                values[node.node_id] = feeds[node.name]
            else:
                args = [values[i] for i in node.inputs]
                values[node.node_id] = apply_node_full(node.op, args, node.weights)
        return {n.name: values[n.node_id] for n in self.graph.nodes}

    def _normalize_inputs(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> dict[str, np.ndarray]:
        input_nodes = self.graph.input_nodes
        if isinstance(inputs, np.ndarray):
            if len(input_nodes) != 1:
                raise ExecutionError(
                    f"graph {self.graph.name!r} has {len(input_nodes)} inputs; pass a mapping"
                )
            inputs = {input_nodes[0].name: inputs}
        feeds: dict[str, np.ndarray] = {}
        for node in input_nodes:
            if node.name not in inputs:
                raise ExecutionError(f"missing input {node.name!r}")
            arr = np.asarray(inputs[node.name], dtype=node.spec.dtype)
            if arr.shape != node.spec.shape:
                raise ExecutionError(
                    f"input {node.name!r}: expected shape {node.spec.shape}, got {arr.shape}"
                )
            feeds[node.name] = arr
        return feeds
