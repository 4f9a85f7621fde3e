"""Tensor handles: geometry + device buffer + (optional) values.

Execution strategies manipulate activations through handles so the same code
runs in two modes:

* **functional** -- a backing array is present; kernels actually compute and
  results are numerically checkable against the reference executor;
* **profile** -- no values are materialized (large benchmark configurations
  would not fit or would be too slow in NumPy); only geometry flows, and the
  handles emit the identical access streams to the simulated device.

:class:`BrickedHandle` also centralizes the translation from *regions* to
*brick accesses*: reading a halo-expanded region means reading every
overlapping brick in full (the brick is the unit of data movement).

Values move through one signature on both handle types: ``gather(batch,
needs, fill)`` takes one absolute need interval per axis -- a geometry row's
``need``s or a :class:`~repro.graph.regions.Region`, which is exactly that --
and copies by :func:`~repro.core.bricked.patch_spans` (a dense activation is
the grid of one brick per axis); a brick task stores the one brick it owns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.brick import BrickMap
from repro.core.bricked import BrickedTensor, BrickGrid, bricked_nbytes, flat_bricks, gather_dense
from repro.errors import ExecutionError
from repro.graph.regions import Interval, Region
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.trace import Buffer, Task

__all__ = ["DenseHandle", "BrickedHandle"]


@dataclass
class DenseHandle:
    """A row-major activation at a subgraph boundary."""

    spec: TensorSpec
    buffer: Buffer
    data: np.ndarray | None = None

    def require_data(self) -> np.ndarray:
        if self.data is None:
            raise ExecutionError(f"handle for {self.buffer.name!r} has no values (profile mode)")
        return self.data

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

    def gather(self, batch: int, needs: Sequence[Interval], fill: float = 0.0) -> np.ndarray:
        """Dense ``(C, *need lengths)`` patch (API parity with BrickedHandle,
        so merged executors can consume dense graph inputs directly)."""
        return gather_dense(self.require_data()[batch], needs, fill)


@dataclass
class BrickedHandle:
    """A brick-layout activation bound to a device buffer."""

    spec: TensorSpec
    grid: BrickGrid
    buffer: Buffer
    data: BrickedTensor | None = None
    brick_nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.brick_nbytes = (self.spec.channels * math.prod(self.grid.brick_shape)
                             * self.spec.itemsize)

    @classmethod
    def create(
        cls,
        spec: TensorSpec,
        brick_shape: tuple[int, ...],
        buffer: Buffer,
        functional: bool,
        brick_map: BrickMap | None = None,
    ) -> "BrickedHandle":
        grid = BrickGrid(spec.spatial, brick_shape)
        data = BrickedTensor(spec, brick_shape, brick_map) if functional else None
        return cls(spec=spec, grid=grid, buffer=buffer, data=data)

    def nbytes(self) -> int:
        return bricked_nbytes(self.spec, self.grid.brick_shape)

    def physical(self, grid_pos: tuple[int, ...]) -> int:
        if self.data is not None:
            return self.data.brick_map.physical(grid_pos)
        return self.grid.flat(grid_pos)  # profile mode: identity brick map

    def brick_offset(self, batch: int, grid_pos: tuple[int, ...]) -> int:
        return (batch * self.grid.num_bricks + self.physical(grid_pos)) * self.brick_nbytes

    def flat_offsets(self, batch: int, flat: Sequence[int]) -> list[int]:
        """Byte offsets of the bricks with the given flat (row-major logical)
        indices; the brick map (identity in profile mode) makes them physical."""
        if self.data is not None:
            flat = self.data.brick_map.physical_flat(flat)
        base = batch * self.grid.num_bricks
        nbytes = self.brick_nbytes
        return [(base + f) * nbytes for f in flat]

    def brick_offsets(self, batch: int, axis_terms: Sequence[Sequence[int]]) -> list[int]:
        """Byte offsets of a box of bricks, row-major, from its per-axis
        stride terms (:meth:`BrickGrid.axis_terms`, or a geometry table row)."""
        return self.flat_offsets(batch, flat_bricks(axis_terms))

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

    # -- values ---------------------------------------------------------------
    def gather(self, batch: int, needs: Sequence[Interval], fill: float = 0.0) -> np.ndarray:
        if self.data is None:
            raise ExecutionError(f"gather on profile-mode handle {self.buffer.name!r}")
        return self.data.gather(batch, needs, fill)

    def store_brick(self, batch: int, grid_pos: tuple[int, ...], values: np.ndarray) -> None:
        if self.data is None:
            raise ExecutionError(f"store on profile-mode handle {self.buffer.name!r}")
        self.data.store_brick(batch, grid_pos, values)

    def bricks(self) -> Iterator[tuple[int, ...]]:
        """All grid positions, row-major."""
        return itertools.product(*(range(g) for g in self.grid.grid_shape))
