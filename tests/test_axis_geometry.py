"""Per-axis geometry tables vs N-D region algebra (property tests).

``repro.core.geometry`` tabulates brick geometry one row per (node, axis,
grid index) and the executors assemble everything per brick from ``ndim`` row
lookups.  The oracle here never looks at an axis on its own: regions come
from ``BrickGrid.brick_region``, needs from ``Region`` over ``op.rf_maps``,
the padded closure from an N-D reverse traversal with ``Region.hull``, brick
overlap from brute-force region intersection, and byte offsets from
``BrickGrid.flat`` one grid position at a time.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.bricked import BrickGrid, bricked_nbytes
from repro.core.geometry import SubgraphGeometry, patch_geometry
from repro.core.halo import padding_growth, required_regions
from repro.core.handles import BrickedHandle
from repro.errors import ReproError
from repro.graph.builder import GraphBuilder
from repro.graph.regions import Interval, Region
from repro.graph.tensorspec import TensorSpec
from repro.graph.traversal import subgraph_view
from repro.gpusim.trace import Buffer

CASES = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


# -- the N-D oracle -------------------------------------------------------------

def nd_needs(graph, nid, region):
    """Per input: (need region, local patch offsets), by whole-region algebra."""
    node = graph.node(nid)
    specs = [graph.node(i).spec for i in node.inputs]
    out = []
    for k in range(len(node.inputs)):
        maps = node.op.rf_maps(specs, k)
        need = Region(m.in_interval(iv) for m, iv in zip(maps, region))
        out.append((need, tuple(m.local_out_offset(iv.lo, niv.lo)
                                for m, iv, niv in zip(maps, region, need))))
    return out


def nd_required(view, exit_id, out_region):
    """The queue-based reverse traversal with ``Region.hull`` (an empty need
    contributes nothing), as the padded executor used to run it per brick."""
    graph = view.graph
    required = {exit_id: out_region}
    for nid in sorted(view.node_ids, reverse=True):
        if nid not in required:
            continue
        node = graph.node(nid)
        specs = [graph.node(i).spec for i in node.inputs]
        for k, pred in enumerate(node.inputs):
            need = Region(m.in_interval(iv)
                          for m, iv in zip(node.op.rf_maps(specs, k), required[nid]))
            required[pred] = required[pred].hull(need) if pred in required else need
    return required


def nd_overlap(grid, region):
    """Grid positions whose brick intersects ``region``, by brute force."""
    return [g for g in itertools.product(*(range(n) for n in grid.grid_shape))
            if not grid.brick_region(g, clipped=True).intersect(region).is_empty()]


def nd_offsets(handle, batch, positions):
    return [(batch * handle.grid.num_bricks + handle.physical(g)) * handle.brick_nbytes
            for g in positions]


def nd_padded_elems(view, brick_shape):
    total = 0
    for exit_id in view.exit_ids:
        grid = BrickGrid(view.graph.node(exit_id).spec.spatial, brick_shape)
        for gpos in itertools.product(*(range(n) for n in grid.grid_shape)):
            required = nd_required(view, exit_id, grid.brick_region(gpos, clipped=True))
            total += sum(r.clip(view.graph.node(nid).spec.spatial).size
                         for nid, r in required.items())
    return total


# -- random subgraphs -------------------------------------------------------------

@st.composite
def local_op(draw, b, src):
    """Append one random local op; None when the shapes do not work out."""
    kind = draw(st.sampled_from(["conv", "conv", "deconv", "relu", "gap"]))
    try:
        if kind == "conv":
            return b.conv(2, draw(st.integers(1, 3)), stride=draw(st.integers(1, 3)),
                          padding=draw(st.integers(0, 2)), dilation=draw(st.integers(1, 2)),
                          src=src)
        if kind == "deconv":
            return b.deconv(2, draw(st.integers(1, 4)), stride=draw(st.integers(1, 3)),
                            padding=draw(st.integers(0, 1)), src=src)
        if kind == "gap":
            return b.global_avgpool(src=src)
        return b.relu(src=src)
    except ReproError:
        return None


ENDINGS = ["chain", "diamond", "upsampling diamond"]


@st.composite
def subgraph_case(draw, endings=ENDINGS):
    """(view, brick shape, entry handles): a random chain, optionally ending
    in a two-branch diamond whose branches have differing halos, cut at a
    random node so entries are graph inputs or interior activations."""
    rank = draw(st.integers(1, 3))
    extents = tuple(draw(st.integers(2, 9 if rank < 3 else 5)) for _ in range(rank))
    b = GraphBuilder("g", TensorSpec(2, 2, extents))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(local_op(b, b.current))
        if node is None or max(node.spec.spatial) > 24:
            break
    ending = draw(st.sampled_from(endings))
    fork = b.current
    if ending == "diamond":
        k, d = draw(st.sampled_from([(3, 1), (3, 2), (5, 1)]))
        left = b.conv(2, k, padding="same", dilation=d, src=fork)
        right = b.relu(src=fork) if draw(st.booleans()) else b.conv(2, 1, src=fork)
        b.add(left, right)
    elif ending == "upsampling diamond" and max(fork.spec.spatial) <= 8:
        # Two transposed convs of equal output shape (kernel - 2 * padding = 1
        # per axis) sharing their producer; kernel 1 < stride leaves output
        # positions no input feeds, i.e. needs that are empty on that axis.
        stride = draw(st.integers(2, 3))
        taps = st.tuples(*(st.sampled_from([(1, 0), (3, 1)]) for _ in range(rank)))
        left, right = (b.deconv(2, [k for k, _ in kp], stride=stride,
                                padding=[p for _, p in kp], src=fork)
                       for kp in (draw(taps), draw(taps)))
        b.add(left, right)
    if ending != "chain" and draw(st.booleans()):
        b.conv(2, 3, padding=1)
    graph = b.finish()
    if len(graph) < 2:
        b.relu()
        graph = b.finish()
    first = draw(st.integers(1, len(graph) - 1))
    view = subgraph_view(graph, range(first, len(graph)))
    brick = [draw(st.integers(1, 6)) for _ in range(rank)]
    if draw(st.booleans()):
        # Unit bricks are the ones a strided transposed conv can leave
        # without any producer, so they get more than their share.
        brick[draw(st.integers(0, rank - 1))] = 1
    brick = tuple(brick)
    # The oracle is quadratic in the grid size.
    assume(all(BrickGrid(graph.node(n).spec.spatial, brick).num_bricks <= 120
               for n in view.node_ids))
    entries = {}
    for eid in view.entry_ids:
        spec = graph.node(eid).spec
        # Clamped like the engine's conversion, or a shape of the entry's own.
        shape = (tuple(min(x, e) for x, e in zip(brick, spec.spatial)) if draw(st.booleans())
                 else tuple(draw(st.integers(1, 6)) for _ in range(rank)))
        entries[eid] = BrickedHandle.create(spec, shape, Buffer.new(f"e{eid}", bricked_nbytes(spec, shape)))
    return view, brick, entries


def all_bricks(grid):
    return itertools.product(*(range(n) for n in grid.grid_shape))


# -- properties ---------------------------------------------------------------

@CASES
@given(subgraph_case())
def test_brick_rows_equal_region_algebra(case):
    view, brick, entries = case
    graph = view.graph
    geom = SubgraphGeometry(view, brick, entries)
    sources = dict(entries)
    for nid in view.node_ids:
        spec = graph.node(nid).spec
        sources[nid] = BrickedHandle.create(spec, brick, Buffer.new(f"m{nid}", bricked_nbytes(spec, brick)))
    for nid in view.node_ids:
        node = graph.node(nid)
        grid = sources[nid].grid
        for gpos in all_bricks(grid):
            region = grid.brick_region(gpos, clipped=True)
            rows = geom.rows(nid, gpos)
            row_shape, row_needs, row_offsets = patch_geometry(rows, len(node.inputs))
            assert Region(r.out for r in rows) == region and row_shape == region.shape
            assert math.prod(r.length for r in rows) == region.size
            assert geom.flops(nid, node.spec.channels * region.size) == node.op.flops(
                [graph.node(i).spec for i in node.inputs], node.spec.channels * region.size)
            view_needs, view_offsets = geom.needs(nid, region)
            for k, (pred, (need, offsets)) in enumerate(zip(node.inputs,
                                                            nd_needs(graph, nid, region))):
                assert row_needs[k] == view_needs[k] == need
                assert row_offsets[k] == view_offsets[k] == offsets
                pspec = graph.node(pred).spec
                edges = [r.edges[k] for r in rows]
                assert math.prod(e.length for e in edges) == need.clip(pspec.spatial).size
                source = sources[pred]
                deps = nd_overlap(source.grid, need)
                assert list(itertools.product(*(e.bricks for e in edges))) == deps
                assert list(source.grid.overlap_plan(need)) == deps
                for batch in range(pspec.batch):
                    expected = nd_offsets(source, batch, deps)
                    assert source.brick_offsets(batch, [e.terms for e in edges]) == expected
                    assert source.region_offsets(batch, need) == expected


@CASES
@given(subgraph_case())
def test_closure_rows_equal_nd_traversal(case):
    check_closure(*case)


@CASES
@given(subgraph_case(endings=ENDINGS[2:]))
def test_closure_rows_with_empty_needs(case):
    """Needs that are empty along one axis only: rows no longer compose per
    axis, and bricks touching them take the joint traversal."""
    check_closure(*case)


def check_closure(view, brick, entries):
    graph = view.graph
    geom = SubgraphGeometry(view, brick, entries)
    for exit_id in view.exit_ids:
        grid = BrickGrid(graph.node(exit_id).spec.spatial, brick)
        for gpos in all_bricks(grid):
            out_region = grid.brick_region(gpos, clipped=True)
            required = nd_required(view, exit_id, out_region)
            got = geom.required(exit_id, out_region)
            assert got == required and list(got) == list(required)
            assert required_regions(view, exit_id, out_region) == required
            rows = geom.closure_rows(exit_id, gpos)
            assert list(rows[0].members) == [n for n in view.node_ids if n in required]
            assert list(rows[0].entries) == [e for e in view.entry_ids if e in required]
            for nid in rows[0].members:
                axis = [r.members[nid] for r in rows]
                clipped = required[nid].clip(graph.node(nid).spec.spatial)
                inputs = graph.node(nid).inputs
                row_shape, row_needs, row_offsets = patch_geometry(axis, len(inputs))
                assert Region(a.out for a in axis) == clipped and row_shape == clipped.shape
                assert math.prod(a.length for a in axis) == clipped.size
                if clipped.is_empty():
                    continue
                for k, (pred, (need, offsets)) in enumerate(zip(
                        inputs, nd_needs(graph, nid, clipped))):
                    assert row_needs[k] == need and row_offsets[k] == offsets
                    assert (math.prod(a.edges[k].length for a in axis)
                            == need.clip(graph.node(pred).spec.spatial).size)
            for eid in rows[0].entries:
                edges = [r.entries[eid] for r in rows]
                handle = entries[eid]
                assert Region(e.need for e in edges) == required[eid]
                assert (math.prod(e.length for e in edges)
                        == required[eid].clip(handle.spec.spatial).size)
                deps = nd_overlap(handle.grid, required[eid])
                for batch in range(handle.spec.batch):
                    assert (handle.brick_offsets(batch, [e.terms for e in edges])
                            == nd_offsets(handle, batch, deps))
    exact = sum(math.prod(graph.node(n).spec.spatial)
                for n in (*view.node_ids, *view.entry_ids))
    assert padding_growth(view, None, brick) == nd_padded_elems(view, brick) / exact - 1.0


@CASES
@given(subgraph_case(), st.data())
def test_required_view_on_arbitrary_regions(case, data):
    """Region views are not limited to brick regions (the distributed slab
    schedule and plan_verify's unclipped centre brick are not bricks)."""
    view, brick, _ = case
    exit_id = view.exit_ids[-1]
    rank = len(brick)
    out_region = Region(Interval(lo, lo + n) for lo, n in data.draw(
        st.tuples(*(st.tuples(st.integers(-4, 10), st.integers(0, 8)) for _ in range(rank)))))
    expected = nd_required(view, exit_id, out_region)
    assert SubgraphGeometry(view, brick).required(exit_id, out_region) == expected
    assert required_regions(view, exit_id, out_region) == expected
    nid = view.node_ids[0]
    if not out_region.is_empty():
        needs, offsets = SubgraphGeometry(view, brick).needs(nid, out_region)
        assert list(zip(needs, offsets)) == nd_needs(view.graph, nid, out_region)


# -- the padding_growth / required_regions disagreement ---------------------------

def test_padding_growth_voids_needs_empty_on_one_axis():
    """A kernel < stride transposed conv has output positions no input feeds:
    their need is empty.  ``Region.hull`` drops a need that is empty on *any*
    axis; the per-axis hull the planner's delta used to take kept its
    non-empty axes, so ``padding_growth`` and the ``required_regions`` the
    padded executor runs disagreed wherever such a conv shares its producer
    with another branch."""
    b = GraphBuilder("upsample", TensorSpec(1, 2, (4, 4)))
    x = b.current
    # Rows of `tall` come from one input row each (odd rows from none), its
    # columns from up to two; `wide` is the transpose.  Both are 7x7.
    tall = b.deconv(2, (1, 3), stride=2, padding=(0, 1), src=x, name="tall")
    wide = b.deconv(2, (3, 1), stride=2, padding=(1, 0), src=x, name="wide")
    b.add(tall, wide, name="join")
    graph = b.finish()
    view = subgraph_view(graph, range(1, len(graph)))
    exit_id = graph.node("join").node_id
    brick = (1, 4)
    grid = BrickGrid(graph.node(exit_id).spec.spatial, brick)

    # Brick (1, 0) = ([1,2), [0,4)): `tall` needs ([1,1), [0,3)) of the input
    # -- empty -- and `wide` needs ([0,2), [0,2)).
    required = required_regions(view, exit_id, grid.brick_region((1, 0), clipped=True))
    assert required[x.node_id] == Region([Interval(0, 2), Interval(0, 2)])
    table = SubgraphGeometry(view, brick).closure_table(exit_id)
    assert [r.void for r in table[0]] == [False, True] * 3 + [False]
    assert not any(r.void for r in table[1])

    padded = sum(
        region.clip(graph.node(nid).spec.spatial).size
        for gpos in all_bricks(grid)
        for nid, region in required_regions(
            view, exit_id, grid.brick_region(gpos, clipped=True)).items())
    assert padded == nd_padded_elems(view, brick)
    exact = sum(math.prod(graph.node(n).spec.spatial) for n in (*view.node_ids, *view.entry_ids))
    assert padding_growth(view, None, brick) == padded / exact - 1.0


def test_per_axis_hull_would_overcount():
    """The example from the issue, spelled in region algebra."""
    empty_on_one_axis = Region([Interval(1, 1), Interval(0, 4)])
    other = Region([Interval(2, 5), Interval(2, 3)])
    assert empty_on_one_axis.hull(other) == other
    per_axis = Region(a.hull(b) for a, b in zip(empty_on_one_axis, other))
    assert per_axis == Region([Interval(2, 5), Interval(0, 4)]) != other


def test_bricked_bytes_have_one_spelling():
    spec = TensorSpec(2, 3, (10, 7))
    handle = BrickedHandle.create(spec, (4, 4), Buffer.new("b", bricked_nbytes(spec, (4, 4))))
    assert handle.nbytes() == bricked_nbytes(spec, (4, 4)) == handle.buffer.nbytes
    assert handle.brick_nbytes == 3 * 16 * 4
    assert np.prod(handle.grid.grid_shape) * 2 * handle.brick_nbytes == handle.nbytes()
    with pytest.raises(ReproError):
        handle.grid.overlap_plan(Region([Interval(0, 1)]))
