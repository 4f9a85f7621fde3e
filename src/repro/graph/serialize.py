"""Graph serialization: save/load models as JSON (+ optional weights NPZ).

A deployable inference library needs durable model artifacts.  Operator
specs are frozen dataclasses, so they serialize field-by-field; weights go
to a sidecar ``.npz`` (keyed ``<node name>/<weight name>``) so the JSON
stays human-readable and diff-able.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

from repro.errors import GraphError
from repro.graph import ops as ops_module
from repro.graph.ir import Graph, weight_array
from repro.graph.ops import FusedOp, InputOp, OpSpec
from repro.graph.tensorspec import TensorSpec

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph"]

_FORMAT_VERSION = 1


def _op_to_dict(op: OpSpec) -> dict:
    if isinstance(op, InputOp):
        return {"kind": "InputOp", "spec": _spec_to_dict(op.spec)}
    if isinstance(op, FusedOp):
        # Nested OpSpec fields need recursion, not the generic field walk.
        return {"kind": "FusedOp",
                "primary": _op_to_dict(op.primary),
                "epilogue": [_op_to_dict(s) for s in op.epilogue]}
    fields = {}
    for f in dataclasses.fields(op):
        v = getattr(op, f.name)
        fields[f.name] = list(v) if isinstance(v, tuple) else v
    return {"kind": type(op).__name__, **fields}


def _op_from_dict(d: dict) -> OpSpec:
    d = dict(d)
    kind = d.pop("kind")
    cls = getattr(ops_module, kind, None)
    if cls is None or not (isinstance(cls, type) and issubclass(cls, OpSpec)):
        raise GraphError(f"unknown operator kind {kind!r}")
    if cls is InputOp:
        return InputOp(_spec_from_dict(d["spec"]))
    if cls is FusedOp:
        return FusedOp(_op_from_dict(d["primary"]),
                       tuple(_op_from_dict(s) for s in d["epilogue"]))
    converted = {}
    for f in dataclasses.fields(cls):
        if f.name not in d:
            continue
        v = d[f.name]
        converted[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**converted)


def _spec_to_dict(spec: TensorSpec) -> dict:
    return {"batch": spec.batch, "channels": spec.channels,
            "spatial": list(spec.spatial), "dtype": spec.dtype.name}


def _spec_from_dict(d: dict) -> TensorSpec:
    return TensorSpec(d["batch"], d["channels"], tuple(d["spatial"]), np.dtype(d["dtype"]))


def graph_to_dict(graph: Graph) -> dict:
    """A JSON-serializable description of the graph's structure."""
    return {
        "format": _FORMAT_VERSION,
        "name": graph.name,
        "nodes": [
            {"name": n.name, "op": _op_to_dict(n.op), "inputs": list(n.inputs)}
            for n in graph.nodes
        ],
        "outputs": [n.node_id for n in graph.output_nodes],
    }


def graph_from_dict(d: dict) -> Graph:
    if d.get("format") != _FORMAT_VERSION:
        raise GraphError(f"unsupported graph format {d.get('format')!r}")
    g = Graph(d["name"])
    for entry in d["nodes"]:
        op = _op_from_dict(entry["op"])
        if isinstance(op, InputOp):
            g.input(op.spec, name=entry["name"])
        else:
            g.add(op, entry["inputs"], name=entry["name"])
    for nid in d["outputs"]:
        g.mark_output(nid)
    g.validate()
    return g


def save_graph(graph: Graph, path: str | pathlib.Path, weights: bool = True) -> None:
    """Write ``<path>`` (JSON) and, if requested, ``<path>.npz`` weights."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(graph_to_dict(graph), indent=1))
    if weights:
        # Described weights are drawn here: the artifact holds values.
        arrays = {
            f"{n.name}/{key}": weight_array(w)
            for n in graph.nodes for key, w in n.weights.items()
        }
        if arrays:
            np.savez(path.with_suffix(path.suffix + ".npz"), **arrays)


def load_graph(path: str | pathlib.Path) -> Graph:
    """Read a graph saved by :func:`save_graph` (weights restored if present)."""
    path = pathlib.Path(path)
    graph = graph_from_dict(json.loads(path.read_text()))
    npz = path.with_suffix(path.suffix + ".npz")
    if npz.exists():
        with np.load(npz) as data:
            for full_key in data.files:
                node_name, _, weight_key = full_key.rpartition("/")
                graph.node(node_name).weights[weight_key] = data[full_key]
    return graph
