"""Shared graph-building helpers for the test suite."""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from repro.core.bricktask import brick_box
from repro.core.geometry import SubgraphGeometry, patch_geometry
from repro.errors import LayoutError
from repro.graph.builder import GraphBuilder
from repro.graph.regions import Interval
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


def patch_spans(needs: Sequence[Interval], extents: Sequence[int], brick_shape: Sequence[int]
                ) -> tuple[tuple[slice, ...], tuple[slice, ...], tuple[slice, ...]] | None:
    """How a ``(C, *need lengths)`` patch copies from / to the bricks it
    overlaps: ``box`` indexes the overlapped bricks in the grid, ``dst`` the
    part of the patch inside the feature map and ``src`` the same part inside
    the ``(C, ...)`` concatenation of those bricks.  ``src`` stops at the
    *extent*, not at the brick end, so the zero mask of an overhanging brick
    never reaches a patch.  ``None`` when no point of the patch is inside the
    map.  A dense array is the grid of one brick per axis."""
    if len(needs) != len(extents):
        raise LayoutError(f"patch rank {len(needs)} vs tensor rank {len(extents)}")
    box, src, dst = [], [slice(None)], [slice(None)]
    for need, extent, brick in zip(needs, extents, brick_shape):
        lo, hi = max(need.lo, 0), min(need.hi, extent)
        if hi <= lo:
            return None
        first = lo // brick
        box.append(slice(first, -(-hi // brick)))
        src.append(slice(lo - first * brick, hi - first * brick))
        dst.append(slice(lo - need.lo, hi - need.lo))
    return tuple(box), tuple(src), tuple(dst)


def gather_dense(data: np.ndarray, needs: Sequence[Interval], fill: float = 0.0) -> np.ndarray:
    """The halo copy of section 3.2.1: the dense ``(C, *need lengths)`` patch
    over one absolute interval per axis of a dense ``(C, *extents)`` array;
    parts beyond the feature map get ``fill`` (implicit zero padding of
    convolutions; ``-inf`` for max pooling)."""
    shape = (data.shape[0], *(max(0, iv.hi - iv.lo) for iv in needs))
    out = np.zeros(shape, data.dtype) if fill == 0 else np.full(shape, fill, data.dtype)
    spans = patch_spans(needs, data.shape[1:], data.shape[1:])
    if spans is not None:
        _, src, dst = spans
        out[dst] = data[src]
    return out


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
    """:func:`per_brick_values`' entries: the reference activations."""
    return {eid: refs[graph.node(eid).name] for eid in view.entry_ids}


def per_brick_values(subgraph, brick_shape, strategy, entries, screen=None, subgraph_index=None):
    """The values pass's oracle for one merged subgraph: the exits' values
    from its dense ``entries``, every member brick by brick and sample by
    sample, one ``kernel_step`` each on a patch gathered from its
    producers' dense arrays, screened as it is computed.  Under padded, each
    exit brick of sample 0 is also recomputed the way its fused task does,
    through its closure (:func:`closure_value`)."""
    graph = subgraph.graph
    geom = SubgraphGeometry(subgraph, brick_shape)
    prefix = {"padded": "padded", "memoized": "memo", "wavefront": "wave"}[strategy]
    dense = dict(entries)
    for nid in subgraph.node_ids:
        node = graph.node(nid)
        out = np.empty(node.spec.shape, node.spec.dtype)
        for gpos in itertools.product(*map(range, geom.grid(nid).grid_shape)):
            rows = geom.rows(nid, gpos)
            shape, needs, offsets = patch_geometry(rows, len(node.inputs))
            for n in range(node.spec.batch):
                out[n][brick_box(rows)] = value = kernel_step(
                    node, shape, needs, offsets,
                    lambda pred, need, fill, n=n: gather_dense(dense[pred][n], need, fill))
                if screen is not None:
                    screen(nid, value, subgraph_index, gpos, n, f"{prefix}/{node.name}/{gpos}")
        dense[nid] = out
    if strategy == "padded":
        for eid in subgraph.exit_ids:
            for gpos in itertools.product(*map(range, geom.grid(eid).grid_shape)):
                np.testing.assert_allclose(
                    closure_value(geom, entries, eid, gpos, 0), dense[eid][0][brick_box(geom.rows(eid, gpos))],
                    atol=1e-4, rtol=1e-4, err_msg=f"closure of {graph.node(eid).name} {gpos}")
    return {eid: dense[eid] for eid in subgraph.exit_ids}


def closure_value(geom, entries, exit_id, gpos, n):
    """The brick ``gpos`` of ``exit_id`` for sample ``n``, computed as a padded
    task does (section 3.2.1): every member on its patch of the exit brick's
    closure (``geom.closure_rows``), from entry patches copied out of the dense
    ``entries``.  A patch starts at its ``origin``, its node's required
    interval clipped to the feature map.  An enlarged patch is another GEMM
    shape, so it meets the member-by-member value within the conformance
    tolerance, not bit for bit."""
    rows = geom.closure_rows(exit_id, gpos)
    patches, origin = {}, {}
    for eid in rows[0].entries:
        edges = [r.entries[eid] for r in rows]
        origin[eid] = [max(e.need.lo, 0) for e in edges]
        patches[eid] = gather_dense(entries[eid][n], [Interval(lo, lo + e.length)
                                                      for lo, e in zip(origin[eid], edges)])

    def fetch(pred, need, fill):
        return gather_dense(patches[pred], [Interval(iv.lo - o, iv.hi - o)
                                            for iv, o in zip(need, origin[pred])], fill)

    for nid in rows[0].members:
        axis = [r.members[nid] for r in rows]
        if all(a.length for a in axis):
            node = geom.graph.node(nid)
            patches[nid] = kernel_step(node, *patch_geometry(axis, len(node.inputs)), fetch)
            origin[nid] = [a.out.lo for a in axis]
    return patches[exit_id]


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
