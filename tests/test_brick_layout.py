"""Brick layout tests: Brick, BrickMap, BrickInfo (paper Fig. 6), the brick grid,
the bricked byte layout and the dense halo copy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brick import Brick, BrickInfo, BrickMap, morton_map, neighbor_offsets
from repro.core.bricked import BrickGrid, bricked_nbytes, gather_dense
from repro.core.handles import BrickedHandle
from repro.errors import LayoutError
from repro.graph.regions import Interval, Region
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.trace import Buffer


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


def _handle(spec: TensorSpec, brick: tuple[int, ...]) -> BrickedHandle:
    return BrickedHandle.create(spec, brick, Buffer.new("b", bricked_nbytes(spec, brick)))


class TestBrickedLayout:
    """The byte layout the simulator addresses, and the halo copy."""

    def test_brick_contiguous_bytes(self):
        handle = _handle(TensorSpec(1, 3, (8, 8)), (4, 4))
        assert handle.brick_nbytes == 3 * 16 * 4
        # The bricks tile the buffer back to back: each is one contiguous run.
        offsets = [handle.brick_offset(0, gpos) for gpos in handle.bricks()]
        assert offsets == [i * handle.brick_nbytes for i in range(4)]
        assert handle.buffer.nbytes == handle.nbytes() == 4 * handle.brick_nbytes

    def test_brick_access_interface(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        handle = _handle(TensorSpec(1, 2, (8, 8)), (4, 4))
        brick = Brick(handle.physical((1, 1)), x[0, :, 4:8, 4:8].copy())
        assert brick.physical_index == 3 and brick.nbytes == handle.brick_nbytes
        np.testing.assert_array_equal(brick[(2, 3)], x[0, :, 6, 7])

    def test_gather_with_halo_and_fill(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        patch = gather_dense(x[0], Region.from_bounds([-1, 6], [3, 10]), fill=0.0)
        assert patch.shape == (2, 4, 4)
        assert (patch[:, 0, :] == 0).all()          # above the map
        assert (patch[:, :, 2:] == 0).all()         # right of the map
        np.testing.assert_array_equal(patch[:, 1:, :2], x[0, :, 0:3, 6:8])

    def test_rank_mismatch(self):
        with pytest.raises(LayoutError):
            BrickGrid((8, 8), (4, 4, 4))

    def test_byte_offset_layout(self):
        handle = _handle(TensorSpec(2, 2, (8, 8)), (4, 4))
        # Batches are the outermost stride; bricks contiguous within.
        assert handle.brick_offset(1, (0, 0)) == handle.grid.num_bricks * handle.brick_nbytes
        assert handle.brick_offset(0, (1, 0)) == 2 * handle.brick_nbytes


# -- the per-axis copy primitive against a per-element oracle ------------------

def _oracle_gather(dense, batch, region, fill):
    """Point by point: the dense value inside the map, else ``fill``."""
    out = np.full((dense.shape[1], *region.shape), fill, dtype=dense.dtype)
    for point in itertools.product(*region):
        if all(0 <= p < e for p, e in zip(point, dense.shape[2:])):
            local = tuple(p - iv.lo for p, iv in zip(point, region))
            out[(slice(None), *local)] = dense[(batch, slice(None), *point)]
    return out


@st.composite
def layout_case(draw):
    """A rank 1-3 tensor plus regions hanging off any side, wholly outside,
    or empty."""
    rank = draw(st.integers(1, 3))
    extents = tuple(draw(st.integers(1, 9)) for _ in range(rank))
    interval = st.tuples(st.integers(-6, 12), st.integers(0, 8)).map(
        lambda t: Interval(t[0], t[0] + t[1]))
    regions = draw(st.lists(st.tuples(*[interval] * rank).map(Region), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2 ** 16))
    return extents, regions, seed


@settings(max_examples=150, deadline=None)
@given(layout_case(), st.sampled_from([0.0, -np.inf, 5.0]))
def test_gather_dense_equals_the_per_element_oracle(case, fill):
    extents, regions, seed = case
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((2, 3, *extents)).astype(np.float32)
    for region in regions:
        batch = int(rng.integers(2))
        expected = _oracle_gather(dense, batch, region, fill)
        patch = gather_dense(dense[batch], region, fill)
        assert patch.shape == expected.shape and patch.dtype == expected.dtype
        np.testing.assert_array_equal(patch, expected)
