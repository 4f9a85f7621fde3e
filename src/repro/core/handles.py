"""Tensor handles: an activation's geometry bound to a device buffer.

Executors manipulate activations through handles, and a handle only counts:
it emits the accesses a kernel makes to the simulated device and holds no
values (large benchmark configurations would not fit or would be too slow in
NumPy).  Values never travel through a handle: the values pass
(``BrickDLEngine.values``) moves plain dense ``(N, C, *S)`` arrays and
builds no handle.

A bricked buffer holds ``N x num_bricks`` bricks of ``C x prod(brick)``
elements each, boundary overhang included (:func:`~repro.core.bricked.bricked_nbytes`):
brick ``flat`` of sample ``n`` starts at byte ``(n * num_bricks + flat) *
brick_nbytes`` and its bytes are contiguous -- the layout's single address
stream, which is what the simulator addresses.

:class:`BrickedHandle` also centralizes the translation from *regions* to
*brick accesses*: reading a halo-expanded region means reading every
overlapping brick in full (the brick is the unit of data movement).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.bricked import BrickGrid, bricked_nbytes, flat_bricks
from repro.graph.regions import Region
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.trace import Buffer, Task

__all__ = ["DenseHandle", "BrickedHandle"]


@dataclass
class DenseHandle:
    """A row-major activation at a subgraph boundary."""

    spec: TensorSpec
    buffer: Buffer

    def _region_access(self, batch: int, clipped: Region) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """(offset, segment_bytes, reps) for a row-major spatial region read
        spanning all channels of one sample; ``clipped`` lies inside the
        feature map."""
        spec = self.spec
        item = spec.itemsize
        spatial = spec.spatial
        nd = len(spatial)
        plane = math.prod(spatial) * item                      # one channel
        strides = [item] * nd
        for d in range(nd - 2, -1, -1):
            strides[d] = strides[d + 1] * spatial[d + 1]
        offset = batch * spec.channels * plane + sum(iv.lo * s for iv, s in zip(clipped, strides))
        seg = clipped[-1].length * item
        reps: list[tuple[int, int]] = [(spec.channels, plane)]
        for d in range(nd - 1):
            reps.append((clipped[d].length, strides[d]))
        return offset, seg, tuple(reps)

    def emit_region_read(self, task: Task, batch: int, region: Region) -> None:
        """Record a strided read of a spatial region (all channels)."""
        clipped = region.clip(self.spec.spatial)
        if clipped.is_empty():
            return
        offset, seg, reps = self._region_access(batch, clipped)
        task.read(self.buffer, offset, seg, reps, dense=True)

    def emit_region_write(self, task: Task, batch: int, region: Region) -> None:
        clipped = region.clip(self.spec.spatial)
        if clipped.is_empty():
            return
        offset, seg, reps = self._region_access(batch, clipped)
        task.write(self.buffer, offset, seg, reps, dense=True)

    def emit_full_read(self, task: Task) -> None:
        task.read(self.buffer, 0, self.buffer.nbytes, dense=True)

    def emit_full_write(self, task: Task) -> None:
        task.write(self.buffer, 0, self.buffer.nbytes, dense=True)


@dataclass
class BrickedHandle:
    """A brick-layout activation bound to a device buffer.  Bricks are
    stored row-major: a brick's flat index is physical."""

    spec: TensorSpec
    grid: BrickGrid
    buffer: Buffer
    brick_nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.brick_nbytes = (self.spec.channels * math.prod(self.grid.brick_shape)
                             * self.spec.itemsize)

    @classmethod
    def create(cls, spec: TensorSpec, brick_shape: tuple[int, ...], buffer: Buffer) -> "BrickedHandle":
        return cls(spec=spec, grid=BrickGrid(spec.spatial, brick_shape), buffer=buffer)

    def nbytes(self) -> int:
        return bricked_nbytes(self.spec, self.grid.brick_shape)

    def physical(self, grid_pos: tuple[int, ...]) -> int:
        return self.grid.flat(grid_pos)

    def brick_offset(self, batch: int, grid_pos: tuple[int, ...]) -> int:
        return (batch * self.grid.num_bricks + self.physical(grid_pos)) * self.brick_nbytes

    def brick_offsets(self, batch: int, axis_terms: Sequence[Sequence[int]]) -> list[int]:
        """Byte offsets of a box of bricks, row-major, from its per-axis
        stride terms (:meth:`BrickGrid.axis_terms`, or a geometry table row)."""
        base, nbytes = batch * self.grid.num_bricks, self.brick_nbytes
        *outer, last = axis_terms
        return [(base + f + t) * nbytes for f in flat_bricks(outer) for t in last]

    def region_offsets(self, batch: int, region: Region) -> list[int]:
        """:meth:`brick_offsets` of every brick overlapping ``region``."""
        return self.brick_offsets(batch, [
            self.grid.axis_terms(d, iv.lo, iv.hi) for d, iv in enumerate(region)])

    # -- access emission ------------------------------------------------------
    def emit_region_read(self, task: Task, batch: int, region: Region) -> int:
        """Record reads of every brick overlapping ``region``; returns count.

        Each brick is one contiguous read -- the single-address-stream
        property of the layout -- and the bricks go out as one bounds-checked
        run of rows (:meth:`~repro.gpusim.trace.Task.read_batch`).
        """
        offsets = self.region_offsets(batch, region)
        task.read_batch(self.buffer, offsets, self.brick_nbytes)
        return len(offsets)

    def emit_brick_write(self, task: Task, batch: int, grid_pos: tuple[int, ...]) -> None:
        task.write(self.buffer, self.brick_offset(batch, grid_pos), self.brick_nbytes)

    def bricks(self) -> Iterator[tuple[int, ...]]:
        """All grid positions, row-major."""
        return itertools.product(*(range(g) for g in self.grid.grid_shape))
