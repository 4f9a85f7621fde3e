"""Shared graph-building helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.kernels import apply_node_local, pad_value_for


def small_chain_graph(size: int = 48, channels: int = 3, name: str = "chain"):
    """conv-bn-relu x2 + pool + strided conv + head: exercises every basic
    op class and produces at least one merged subgraph at 48x48."""
    b = GraphBuilder(name, TensorSpec(1, channels, (size, size)))
    b.conv_bn_relu(8, 3, prefix="c1")
    b.conv_bn_relu(8, 3, prefix="c2")
    b.maxpool(2, name="pool")
    b.conv_bn_relu(16, 3, stride=2, prefix="c3")
    b.classifier(10)
    return b.graph


def residual_graph(size: int = 32, name: str = "residual"):
    """A two-block residual graph (identity + projection skips)."""
    b = GraphBuilder(name, TensorSpec(1, 4, (size, size)))
    b.conv_bn_relu(8, 3, prefix="stem")
    identity = b.current
    b.conv(8, 3, padding=1, bias=False, name="b1/conv1")
    b.batchnorm(name="b1/bn1")
    b.relu(name="b1/relu1")
    x = b.conv(8, 3, padding=1, bias=False, name="b1/conv2")
    x = b.batchnorm(name="b1/bn2")
    x = b.add(x, identity, name="b1/add")
    b.relu(src=x, name="b1/out")
    identity2 = b.current
    x = b.conv(16, 3, stride=2, padding=1, bias=False, name="b2/conv1")
    x = b.batchnorm(name="b2/bn1")
    x = b.relu(name="b2/relu1")
    x = b.conv(16, 3, padding=1, bias=False, name="b2/conv2")
    x = b.batchnorm(name="b2/bn2")
    skip = b.conv(16, 1, stride=2, bias=False, src=identity2, name="b2/proj")
    x = b.add(x, skip, name="b2/add")
    b.relu(src=x, name="b2/out")
    b.classifier(10)
    return b.graph


def input_for(graph, seed: int = 0) -> np.ndarray:
    spec = graph.input_nodes[0].spec
    return np.random.default_rng(seed).standard_normal(spec.shape).astype(np.float32)


def kernel_step(node, shape, needs, offsets, fetch) -> np.ndarray:
    """The per-brick oracle of the values pass: ``fetch(pred, need, fill)``
    one patch per input over its need intervals (neutral fill beyond the
    feature map), then the op's local kernel for one brick of ``shape``.
    Inputs may carry differing halos, so each patch is aligned by its own
    ``offsets``."""
    fill = pad_value_for(node.op)
    patches = [fetch(pred, need, fill)[None] for pred, need in zip(node.inputs, needs)]
    return apply_node_local(node.op, patches, node.weights, shape, offsets)[0]


def dense_entries(graph, view, refs) -> dict[int, np.ndarray]:
    """``subgraph_values``' entries: the reference activations."""
    return {eid: refs[graph.node(eid).name] for eid in view.entry_ids}


@st.composite
def random_dag(draw):
    """A random small DAG mixing convs, pointwise ops, adds and concats.

    The corpus behind the property tests: merged-vs-naive equivalence in
    test_export_and_random_dags.py and rewrite soundness in test_rewrite.py.
    """
    size = draw(st.sampled_from([16, 24]))
    b = GraphBuilder("dag", TensorSpec(1, 4, (size, size)))
    frontier = [b.current]
    n_ops = draw(st.integers(2, 7))
    for i in range(n_ops):
        kind = draw(st.sampled_from(["conv", "relu", "bn", "add", "concat", "branch"]))
        src = frontier[draw(st.integers(0, len(frontier) - 1))]
        try:
            if kind == "conv":
                node = b.conv(4, 3, padding=1, src=src, name=f"n{i}")
            elif kind == "relu":
                node = b.relu(src=src, name=f"n{i}")
            elif kind == "bn":
                node = b.batchnorm(src=src, name=f"n{i}")
            elif kind == "add":
                other = frontier[draw(st.integers(0, len(frontier) - 1))]
                if other.spec != src.spec:
                    continue
                node = b.add(src, other, name=f"n{i}")
            elif kind == "concat":
                other = frontier[draw(st.integers(0, len(frontier) - 1))]
                if other.spec.spatial != src.spec.spatial:
                    continue
                node = b.concat([src, other], name=f"n{i}")
                node = b.conv(4, 1, src=node, name=f"n{i}proj")  # re-normalize channels
            else:  # branch: add a parallel conv off src
                node = b.conv(4, 3, padding=1, src=src, name=f"n{i}")
            frontier.append(node)
        except Exception:
            continue
    # Join the frontier into a single output so everything is live.
    out = frontier[-1]
    for other in frontier[:-1]:
        if other.spec == out.spec:
            out = b.add(out, other, name=f"join{other.node_id}")
    return b.finish(output=out)
