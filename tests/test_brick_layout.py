"""Brick, BrickMap, BrickInfo and BrickedTensor tests (paper Fig. 6)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brick import Brick, BrickInfo, BrickMap, morton_map, neighbor_offsets
from repro.core.bricked import BrickedTensor, BrickGrid, gather_dense
from repro.errors import LayoutError
from repro.graph.regions import Interval, Region


class TestBrickMap:
    def test_identity_roundtrip(self):
        bm = BrickMap((3, 4))
        for flat in range(12):
            pos = bm.unflatten(flat)
            assert bm.flatten(pos) == flat
            assert bm.logical(bm.physical(pos)) == pos

    def test_permuted_roundtrip(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(12)
        bm = BrickMap((3, 4), perm)
        for pos, phys in bm:
            assert bm.logical(phys) == pos

    def test_bad_permutation(self):
        with pytest.raises(LayoutError):
            BrickMap((2, 2), [0, 0, 1, 2])

    def test_out_of_grid(self):
        with pytest.raises(LayoutError):
            BrickMap((2, 2)).physical((2, 0))


class TestBrickInfo:
    def test_fig6_neighbor_structure(self):
        """A 4x4 grid: the brick at (1,1) has 8 neighbors (Fig. 6(c))."""
        bm = BrickMap((4, 4))
        info = BrickInfo(bm)
        phys = bm.physical((1, 1))
        neighbors = info.neighbors(phys)
        assert len(neighbors) == 8
        assert neighbors[(-1, -1)] == bm.physical((0, 0))
        assert neighbors[(1, 1)] == bm.physical((2, 2))

    def test_corner_has_three(self):
        info = BrickInfo(BrickMap((4, 4)))
        assert len(info.neighbors(0)) == 3

    def test_unknown_direction(self):
        info = BrickInfo(BrickMap((2, 2)))
        with pytest.raises(LayoutError):
            info.neighbor(0, (2, 0))

    def test_offsets_3d(self):
        assert len(neighbor_offsets(3)) == 26

    @pytest.mark.parametrize("grid", [(1,), (5,), (1, 1), (3, 4), (4, 1), (2, 3, 2), (1, 3, 1)])
    @pytest.mark.parametrize("make_map", [BrickMap, morton_map], ids=["identity", "morton"])
    def test_shifted_adjacency_equals_the_per_brick_walk(self, grid, make_map):
        """The adjacency table is built with array shifts of the slot grid;
        the reference is Fig. 6(c) spelled out brick by brick."""
        bm = make_map(grid)
        info = BrickInfo(bm)
        expected = np.full((bm.num_bricks, len(info.directions)), -1, dtype=np.int64)
        for grid_pos, phys in bm:
            for d_idx, delta in enumerate(info.directions):
                npos = tuple(p + dd for p, dd in zip(grid_pos, delta))
                if all(0 <= p < g for p, g in zip(npos, grid)):
                    expected[phys, d_idx] = bm.physical(npos)
        np.testing.assert_array_equal(info.adjacency, expected)

    def test_tensor_builds_it_on_first_read_only(self, monkeypatch):
        built = []
        monkeypatch.setattr("repro.core.bricked.BrickInfo",
                            lambda brick_map: built.append(brick_map) or "info")
        bt = BrickedTensor.from_dense(np.zeros((1, 1, 8, 8), np.float32), (4, 4))
        bt.gather_region(0, Region.from_bounds([1, 1], [6, 6]))
        assert built == []
        assert bt.brick_info == bt.brick_info == "info" and built == [bt.brick_map]


class TestBrickGrid:
    def test_grid_shape_with_remainder(self):
        g = BrickGrid((13, 17), (4, 4))
        assert g.grid_shape == (4, 5)
        assert g.num_bricks == 20

    def test_brick_region_clipped(self):
        g = BrickGrid((13, 17), (4, 4))
        r = g.brick_region((3, 4), clipped=True)
        assert r.shape == (1, 1)

    def test_bricks_overlapping_clips_to_map(self):
        g = BrickGrid((8, 8), (4, 4))
        over = list(g.bricks_overlapping(Region.from_bounds([-3, 5], [2, 12])))
        assert over == [(0, 1)]


class TestBrickedTensor:
    def test_roundtrip_2d(self, rng):
        x = rng.standard_normal((2, 3, 13, 17)).astype(np.float32)
        bt = BrickedTensor.from_dense(x, (4, 4))
        np.testing.assert_array_equal(bt.to_dense(), x)

    def test_roundtrip_3d(self, rng):
        x = rng.standard_normal((1, 2, 9, 6, 7)).astype(np.float32)
        bt = BrickedTensor.from_dense(x, (4, 4, 4))
        np.testing.assert_array_equal(bt.to_dense(), x)

    def test_roundtrip_permuted_map(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        base = BrickedTensor.from_dense(x, (4, 4))
        perm = np.random.default_rng(7).permutation(base.grid.num_bricks)
        bt = BrickedTensor.from_dense(x, (4, 4), BrickMap(base.grid.grid_shape, perm))
        np.testing.assert_array_equal(bt.to_dense(), x)

    def test_brick_contiguous_bytes(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        bt = BrickedTensor.from_dense(x, (4, 4))
        assert bt.brick_nbytes == 3 * 16 * 4
        assert bt.storage[0, 0].flags["C_CONTIGUOUS"]

    def test_brick_access_interface(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        bt = BrickedTensor.from_dense(x, (4, 4))
        brick = bt.brick(0, (1, 1))
        np.testing.assert_array_equal(brick[(2, 3)], x[0, :, 6, 7])

    def test_gather_with_halo_and_fill(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        bt = BrickedTensor.from_dense(x, (4, 4))
        patch = bt.gather_region(0, Region.from_bounds([-1, 6], [3, 10]), fill=0.0)
        assert patch.shape == (2, 4, 4)
        assert (patch[:, 0, :] == 0).all()          # above the map
        assert (patch[:, :, 2:] == 0).all()         # right of the map
        np.testing.assert_array_equal(patch[:, 1:, :2], x[0, :, 0:3, 6:8])

    def test_scatter_then_gather(self, rng):
        bt = BrickedTensor.from_dense(np.zeros((1, 2, 8, 8), np.float32), (4, 4))
        vals = rng.standard_normal((2, 3, 5)).astype(np.float32)
        region = Region.from_bounds([2, 1], [5, 6])
        bt.scatter_region(0, region, vals)
        np.testing.assert_array_equal(bt.gather_region(0, region), vals)

    def test_scatter_shape_check(self):
        bt = BrickedTensor.from_dense(np.zeros((1, 2, 8, 8), np.float32), (4, 4))
        with pytest.raises(LayoutError):
            bt.scatter_region(0, Region.from_bounds([0, 0], [2, 2]), np.zeros((2, 3, 3), np.float32))

    def test_rank_mismatch(self):
        with pytest.raises(LayoutError):
            BrickedTensor.from_dense(np.zeros((1, 2, 8, 8), np.float32), (4, 4, 4))

    def test_byte_offset_layout(self, rng):
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        bt = BrickedTensor.from_dense(x, (4, 4))
        # Batches are the outermost stride; bricks contiguous within.
        assert bt.byte_offset(1, 0) == bt.grid.num_bricks * bt.brick_nbytes
        assert bt.byte_offset(0, 2) == 2 * bt.brick_nbytes


# -- the per-axis copy primitive against a per-element oracle ------------------

def _overhang_is_zero(bt: BrickedTensor) -> bool:
    """The part of every boundary brick beyond the feature map (its mask)."""
    for gpos in itertools.product(*(range(g) for g in bt.grid.grid_shape)):
        inside = tuple(slice(0, iv.length) for iv in bt.grid.brick_region(gpos, clipped=True))
        for n in range(bt.spec.batch):
            masked = bt.brick(n, gpos).data.copy()
            masked[(slice(None), *inside)] = 0
            if masked.any():
                return False
    return True


def _oracle_gather(dense, batch, region, fill):
    """Point by point: the dense value inside the map, else ``fill``."""
    out = np.full((dense.shape[1], *region.shape), fill, dtype=dense.dtype)
    for point in itertools.product(*region):
        if all(0 <= p < e for p, e in zip(point, dense.shape[2:])):
            local = tuple(p - iv.lo for p, iv in zip(point, region))
            out[(slice(None), *local)] = dense[(batch, slice(None), *point)]
    return out


def _oracle_scatter(dense, batch, region, values):
    for point in itertools.product(*region):
        if all(0 <= p < e for p, e in zip(point, dense.shape[2:])):
            local = tuple(p - iv.lo for p, iv in zip(point, region))
            dense[(batch, slice(None), *point)] = values[(slice(None), *local)]


@st.composite
def layout_case(draw):
    """A rank 1-3 tensor (extents not multiples of the brick, bricks larger
    than an extent) behind an identity, Morton or random brick map, plus
    regions hanging off any side, wholly outside, or empty."""
    rank = draw(st.integers(1, 3))
    extents = tuple(draw(st.integers(1, 9)) for _ in range(rank))
    brick = tuple(draw(st.integers(1, 5)) for _ in range(rank))
    grid = BrickGrid(extents, brick)
    kind = draw(st.sampled_from(["identity", "morton", "random"]))
    brick_map = {"identity": lambda: None, "morton": lambda: morton_map(grid.grid_shape),
                 "random": lambda: BrickMap(grid.grid_shape, draw(st.permutations(
                     range(grid.num_bricks))))}[kind]()
    interval = st.tuples(st.integers(-6, 12), st.integers(0, 8)).map(
        lambda t: Interval(t[0], t[0] + t[1]))
    regions = draw(st.lists(st.tuples(*[interval] * rank).map(Region), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2 ** 16))
    return extents, brick, brick_map, regions, seed


@settings(max_examples=150, deadline=None)
@given(layout_case(), st.sampled_from([0.0, -np.inf, 5.0]))
def test_gather_and_scatter_equal_the_per_element_oracle(case, fill):
    extents, brick, brick_map, regions, seed = case
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((2, 3, *extents)).astype(np.float32)
    bt = BrickedTensor.from_dense(dense, brick, brick_map)
    for region in regions:
        batch = int(rng.integers(2))
        expected = _oracle_gather(dense, batch, region, fill)
        for patch in (bt.gather(batch, tuple(region), fill), bt.gather_region(batch, region, fill),
                      gather_dense(dense[batch], region, fill)):
            assert patch.shape == expected.shape and patch.dtype == expected.dtype
            np.testing.assert_array_equal(patch, expected)
        values = rng.standard_normal((3, *region.shape)).astype(np.float32)
        bt.scatter_region(batch, region, values)
        _oracle_scatter(dense, batch, region, values)
        assert _overhang_is_zero(bt)
        np.testing.assert_array_equal(bt.to_dense(), dense)


@settings(max_examples=100, deadline=None)
@given(layout_case())
def test_store_brick_equals_the_per_element_oracle(case):
    extents, brick, brick_map, _, seed = case
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((2, 3, *extents)).astype(np.float32)
    bt = BrickedTensor.from_dense(dense, brick, brick_map)
    assert _overhang_is_zero(bt)
    for gpos in itertools.product(*(range(g) for g in bt.grid.grid_shape)):
        region = bt.grid.brick_region(gpos, clipped=True)
        inside = (slice(None), *region.slices(origin=[iv.lo for iv in region]))
        for n in range(2):  # from_dense put every brick in the slot the map names
            np.testing.assert_array_equal(bt.brick(n, gpos).data[inside],
                                          dense[(n, slice(None), *region.slices())])
        batch = int(rng.integers(2))
        values = rng.standard_normal((3, *region.shape)).astype(np.float32)
        bt.store_brick(batch, gpos, values)
        _oracle_scatter(dense, batch, region, values)
        assert _overhang_is_zero(bt)
        np.testing.assert_array_equal(bt.to_dense(), dense)
        np.testing.assert_array_equal(bt.brick(batch, gpos).data[inside], values)
    gpos = tuple(g - 1 for g in bt.grid.grid_shape)
    with pytest.raises(LayoutError):  # a full brick's worth for a clipped brick, or vice versa
        bt.store_brick(0, gpos, np.zeros((3, *(b + 1 for b in brick)), np.float32))
    with pytest.raises(LayoutError):
        bt.gather(0, (Interval(0, 1),) * (len(extents) + 1))
