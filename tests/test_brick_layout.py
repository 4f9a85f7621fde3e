"""Brick layout tests: the brick grid, the bricked byte layout (paper
section 3.3.4, Fig. 6) and the dense halo copy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bricked import BrickGrid, bricked_nbytes
from repro.core.handles import BrickedHandle
from repro.errors import LayoutError
from repro.graph.regions import Interval, Region
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.trace import Buffer

from testlib import gather_dense


class TestBrickGrid:
    def test_grid_shape_with_remainder(self):
        g = BrickGrid((13, 17), (4, 4))
        assert g.grid_shape == (4, 5)
        assert g.num_bricks == 20

    def test_brick_region_clipped(self):
        g = BrickGrid((13, 17), (4, 4))
        r = g.brick_region((3, 4), clipped=True)
        assert r.shape == (1, 1)

    def test_overlap_plan_clips_to_map(self):
        g = BrickGrid((8, 8), (4, 4))
        over = list(g.overlap_plan(Region.from_bounds([-3, 5], [2, 12])))
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

    def test_brick_access_interface(self):
        handle = _handle(TensorSpec(1, 2, (8, 8)), (4, 4))
        # Bricks are stored row-major: grid position (1, 1) is slot 3.
        assert handle.physical((1, 1)) == 3
        assert handle.brick_nbytes == 2 * 16 * 4

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
