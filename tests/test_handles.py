"""Tensor handle tests: access emission geometry."""

import numpy as np

from repro.core.handles import BrickedHandle, DenseHandle
from repro.graph.regions import Region
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.trace import Buffer, Task

from testlib import gather_dense


def dense_handle(spatial=(8, 12), c=2):
    spec = TensorSpec(1, c, spatial)
    return DenseHandle(spec, Buffer.new("d", spec.nbytes))


def dense_values(spatial=(8, 12), c=2):
    return np.arange(c * np.prod(spatial), dtype=np.float32).reshape(1, c, *spatial)


def bricked_handle(spatial=(8, 12), c=2, brick=(4, 4)):
    spec = TensorSpec(1, c, spatial)
    import math

    grid_bricks = math.prod(-(-e // b) for e, b in zip(spatial, brick))
    buf = Buffer.new("b", grid_bricks * c * math.prod(brick) * 4)
    return BrickedHandle.create(spec, brick, buf)


class TestDenseHandle:
    def test_region_access_geometry(self):
        h = dense_handle()
        task = Task("t")
        h.emit_region_read(task, 0, Region.from_bounds([2, 3], [5, 9]))
        (a,) = task.accesses
        assert a.nbytes == 6 * 4                       # 6-wide row segment
        assert a.reps == ((2, 8 * 12 * 4), (3, 12 * 4))  # channels x rows
        assert a.offset == (2 * 12 + 3) * 4
        assert a.dense

    def test_region_clip(self):
        h = dense_handle()
        task = Task("t")
        h.emit_region_read(task, 0, Region.from_bounds([-2, -2], [3, 3]))
        (a,) = task.accesses
        assert a.offset == 0
        assert a.segments == 2 * 3

    def test_empty_region_emits_nothing(self):
        h = dense_handle()
        task = Task("t")
        h.emit_region_read(task, 0, Region.from_bounds([10, 0], [9, 4]))
        assert not task.accesses

    def test_gather_matches_data(self):
        """A dense activation's values are gathered from the array itself."""
        data = dense_values()
        patch = gather_dense(data[0], Region.from_bounds([1, 2], [4, 6]))
        np.testing.assert_array_equal(patch, data[0][:, 1:4, 2:6])

    def test_gather_fill_outside(self):
        patch = gather_dense(dense_values()[0], Region.from_bounds([-1, 0], [1, 2]), fill=-7.0)
        assert (patch[:, 0, :] == -7.0).all()
        np.testing.assert_array_equal(patch[:, 1, :], dense_values()[0][:, 0, 0:2])


class TestBrickedHandle:
    def test_brick_offsets_contiguous(self):
        h = bricked_handle()
        n = h.brick_nbytes
        assert h.brick_offset(0, (0, 0)) == 0
        assert h.brick_offset(0, (0, 1)) == n
        assert h.brick_offset(0, (1, 0)) == 3 * n  # grid is 2x3

    def test_region_read_counts_bricks(self):
        h = bricked_handle()
        task = Task("t")
        count = h.emit_region_read(task, 0, Region.from_bounds([3, 3], [5, 5]))
        assert count == 4  # straddles a 2x2 brick neighborhood
        assert all(a.nbytes == h.brick_nbytes for a in task.accesses)

    def test_brick_write(self):
        h = bricked_handle()
        task = Task("t")
        h.emit_brick_write(task, 0, (1, 2))
        (a,) = task.accesses
        assert a.write and a.offset == h.brick_offset(0, (1, 2))

    def test_profile_physical_is_identity(self):
        h = bricked_handle()
        assert h.physical((1, 2)) == 1 * 3 + 2

    def test_bricks_enumerates_grid(self):
        h = bricked_handle()
        assert len(list(h.bricks())) == h.grid.num_bricks
