"""DNN graph intermediate representation substrate.

This subpackage provides everything needed to describe a DNN inference
computation as a data-flow DAG:

* :mod:`repro.graph.tensorspec` -- shapes and dtypes of activations,
* :mod:`repro.graph.regions` -- interval algebra for receptive fields / halos,
* :mod:`repro.graph.ops` -- operator specifications (conv, pool, ...),
* :mod:`repro.graph.ir` -- the :class:`Graph` / :class:`Node` DAG itself,
* :mod:`repro.graph.builder` -- a fluent construction API,
* :mod:`repro.graph.traversal` -- topological order, ancestor / descendant
  walks and subgraph views used by the BrickDL partitioner.
"""

from repro.graph.tensorspec import TensorSpec
from repro.graph.regions import Interval, Region, StencilMap, IdentityMap, TransposedMap, GlobalMap
from repro.graph.ir import Graph, Node
from repro.graph.builder import GraphBuilder
from repro.graph.traversal import topological_order, subgraph_view

__all__ = [
    "TensorSpec",
    "Interval",
    "Region",
    "StencilMap",
    "IdentityMap",
    "TransposedMap",
    "GlobalMap",
    "Graph",
    "Node",
    "GraphBuilder",
    "topological_order",
    "subgraph_view",
]
