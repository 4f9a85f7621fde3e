"""Bricked activation tensors: dense <-> fine-grained blocked layout.

A :class:`BrickedTensor` stores an ``(N, C, *spatial)`` activation as a grid
of bricks, each a contiguous ``(C, *brick_shape)`` block (BrickDL blocks
along batch and spatial dimensions, never channels -- section 3.2).  Bricks
whose extent overhangs the feature map are masked with zeros (section 3.3.4).

The storage order of bricks is governed by a :class:`~repro.core.brick.BrickMap`
(identity by default), and neighbor access uses
:class:`~repro.core.brick.BrickInfo` adjacency, exactly as in the paper's
Fig. 6.  The class also provides the two primitives the merged executors
need:

* :meth:`gather_region` -- assemble a dense patch for an arbitrary absolute
  region from the bricks it overlaps (with a neutral fill value beyond the
  feature map): this is the *padded-brick* halo copy;
* :meth:`scatter_region` -- write a computed dense patch back into bricks.

Each brick's bytes are contiguous in the underlying buffer, which is what
gives the layout its single-address-stream property in the simulator.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import LayoutError
from repro.core.brick import Brick, BrickInfo, BrickMap
from repro.graph.regions import Interval, Region
from repro.graph.tensorspec import TensorSpec

__all__ = ["BrickGrid", "BrickedTensor", "bricked_nbytes", "flat_bricks"]


@dataclass(frozen=True)
class BrickGrid:
    """Geometry of a brick decomposition of a spatial domain."""

    extents: tuple[int, ...]
    brick_shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.extents) != len(self.brick_shape):
            raise LayoutError(f"rank mismatch: extents {self.extents} vs brick {self.brick_shape}")
        if any(b < 1 for b in self.brick_shape) or any(e < 1 for e in self.extents):
            raise LayoutError(f"invalid grid geometry: {self}")
        # Derived geometry is read on every brick lookup in the executor hot
        # path; compute it once (the dataclass is frozen, hence the setattr).
        grid = tuple(-(-e // b) for e, b in zip(self.extents, self.brick_shape))
        object.__setattr__(self, "_grid_shape", grid)
        object.__setattr__(self, "_num_bricks", math.prod(grid))
        object.__setattr__(self, "strides", tuple(
            math.prod(grid[d + 1:]) for d in range(len(grid))))

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self._grid_shape

    @property
    def num_bricks(self) -> int:
        return self._num_bricks

    @property
    def ndim(self) -> int:
        return len(self.extents)

    def brick_region(self, grid_pos: Sequence[int], clipped: bool = False) -> Region:
        """Absolute region covered by the brick at ``grid_pos``."""
        if clipped:
            # Brick origins are never negative, so clipping only trims the
            # high side (overhanging boundary bricks).
            return Region.trusted(tuple(
                Interval(p * b, min(p * b + b, e))
                for p, b, e in zip(grid_pos, self.brick_shape, self.extents)
            ))
        return Region.trusted(tuple(
            Interval(p * b, p * b + b) for p, b in zip(grid_pos, self.brick_shape)
        ))

    def flat(self, grid_pos: Sequence[int]) -> int:
        """Row-major (logical) index of the brick at ``grid_pos``."""
        return sum(map(operator.mul, grid_pos, self.strides))

    def axis_bricks(self, axis: int, lo: int, hi: int) -> range:
        """Brick indices along ``axis`` overlapping ``[lo, hi)`` (clipped to
        the feature map: out-of-map halo has no brick to read).  Overlap is
        separable, so every brick set is a product of these ranges."""
        lo, hi = max(lo, 0), min(hi, self.extents[axis])
        if hi <= lo:
            return range(0)
        b = self.brick_shape[axis]
        return range(lo // b, -(-hi // b))

    def axis_terms(self, axis: int, lo: int, hi: int) -> tuple[int, ...]:
        """:meth:`axis_bricks` times this axis' row-major stride: one term per
        axis sums to a brick's flat (logical) index."""
        stride = self.strides[axis]
        return tuple(i * stride for i in self.axis_bricks(axis, lo, hi))

    def overlap_plan(self, region: Region) -> tuple[tuple[int, ...], ...]:
        """Grid positions of all bricks intersecting ``region``, row-major:
        the Region view over the per-axis :meth:`axis_bricks` ranges."""
        if len(region) != len(self.extents):
            raise LayoutError(f"region rank {len(region)} vs grid rank {len(self.extents)}")
        return tuple(itertools.product(
            *(self.axis_bricks(d, iv.lo, iv.hi) for d, iv in enumerate(region))))

    bricks_overlapping = overlap_plan


class BrickedTensor:
    """An activation stored in the brick data layout."""

    def __init__(
        self,
        spec: TensorSpec,
        brick_shape: Sequence[int],
        brick_map: BrickMap | None = None,
    ) -> None:
        if spec.spatial_ndim != len(tuple(brick_shape)):
            raise LayoutError(f"brick rank {len(tuple(brick_shape))} vs spatial rank {spec.spatial_ndim}")
        self.spec = spec
        self.grid = BrickGrid(spec.spatial, tuple(int(b) for b in brick_shape))
        self.brick_map = brick_map if brick_map is not None else BrickMap(self.grid.grid_shape)
        if self.brick_map.grid_shape != self.grid.grid_shape:
            raise LayoutError(
                f"brick map grid {self.brick_map.grid_shape} does not match {self.grid.grid_shape}"
            )
        self.brick_info = BrickInfo(self.brick_map)
        # One contiguous slab: (N, num_bricks, C, *brick_shape).
        self.storage = np.zeros(
            (spec.batch, self.grid.num_bricks, spec.channels, *self.grid.brick_shape),
            dtype=spec.dtype,
        )

    # -- geometry -----------------------------------------------------------
    @property
    def brick_shape(self) -> tuple[int, ...]:
        return self.grid.brick_shape

    @property
    def num_bricks(self) -> int:
        return self.grid.num_bricks

    @property
    def brick_nbytes(self) -> int:
        """Bytes of one brick: C * prod(brick_shape) * itemsize (contiguous)."""
        return self.spec.channels * math.prod(self.grid.brick_shape) * self.spec.itemsize

    @property
    def nbytes(self) -> int:
        return self.storage.nbytes

    def byte_offset(self, batch: int, physical_index: int) -> int:
        """Byte offset of a brick inside this tensor's buffer."""
        return (batch * self.grid.num_bricks + physical_index) * self.brick_nbytes

    def brick(self, batch: int, grid_pos: Sequence[int]) -> Brick:
        phys = self.brick_map.physical(grid_pos)
        return Brick(phys, self.storage[batch, phys])

    # -- dense conversion -----------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        array: np.ndarray,
        brick_shape: Sequence[int],
        brick_map: BrickMap | None = None,
    ) -> "BrickedTensor":
        """Decompose a dense ``(N, C, *spatial)`` array into bricks."""
        n, c = array.shape[:2]
        spatial = array.shape[2:]
        spec = TensorSpec(n, c, spatial, array.dtype)
        bt = cls(spec, brick_shape, brick_map)
        g, b = bt.grid.grid_shape, bt.grid.brick_shape
        nd = len(b)
        padded_spatial = tuple(gg * bb for gg, bb in zip(g, b))
        if padded_spatial != spatial:
            pad = [(0, 0), (0, 0)] + [(0, ps - s) for ps, s in zip(padded_spatial, spatial)]
            array = np.pad(array, pad)
        # (N, C, G1, B1, G2, B2, ...) -> (N, G1, G2, ..., C, B1, B2, ...)
        split_shape = (n, c) + tuple(x for gb in zip(g, b) for x in gb)
        v = array.reshape(split_shape)
        grid_axes = tuple(2 + 2 * i for i in range(nd))
        brick_axes = tuple(3 + 2 * i for i in range(nd))
        v = v.transpose((0,) + grid_axes + (1,) + brick_axes)
        logical = v.reshape(n, bt.grid.num_bricks, c, *b)
        # Physical slot p holds the logical brick brick_map.logical(p).
        order = bt.brick_map._to_logical
        bt.storage[...] = logical[:, order]
        return bt

    def to_dense(self) -> np.ndarray:
        """Reassemble the dense activation (mask padding removed)."""
        n, c = self.spec.batch, self.spec.channels
        g, b = self.grid.grid_shape, self.grid.brick_shape
        nd = len(b)
        logical = self.storage[:, self.brick_map._to_physical]
        v = logical.reshape((n,) + g + (c,) + b)
        # (N, G1.., C, B1..) -> (N, C, G1, B1, G2, B2, ...)
        perm = (0, 1 + nd) + tuple(x for i in range(nd) for x in (1 + i, 2 + nd + i))
        v = v.transpose(perm)
        padded_spatial = tuple(gg * bb for gg, bb in zip(g, b))
        dense = v.reshape((n, c) + padded_spatial)
        crop = (slice(None), slice(None)) + tuple(slice(0, s) for s in self.spec.spatial)
        return np.ascontiguousarray(dense[crop])

    # -- region primitives -----------------------------------------------------
    def gather_region(self, batch: int, region: Region, fill: float = 0.0) -> np.ndarray:
        """Dense ``(C, *region.shape)`` patch of an absolute region.

        Parts of the region beyond the feature map get ``fill`` (implicit
        zero padding of convolutions; ``-inf`` for max pooling).  This is the
        halo *copy* of the padded-bricks strategy (section 3.2.1).
        """
        shape = (self.spec.channels, *region.shape)
        out = np.full(shape, fill, dtype=self.spec.dtype)
        if region.is_empty():
            return out
        valid = region.clip(self.spec.spatial)
        if fill != 0.0 and not valid.is_empty():
            # Mask padding inside overhanging bricks is zero, not `fill`.
            out[(slice(None), *valid.slices(origin=[iv.lo for iv in region]))] = 0.0
        for grid_pos in self.grid.bricks_overlapping(region):
            brick_region = self.grid.brick_region(grid_pos, clipped=True)
            overlap = brick_region.intersect(valid)
            if overlap.is_empty():
                continue
            phys = self.brick_map.physical(grid_pos)
            brick_origin = [iv.lo for iv in self.grid.brick_region(grid_pos)]
            src = (slice(None), *overlap.slices(origin=brick_origin))
            dst = (slice(None), *overlap.slices(origin=[iv.lo for iv in region]))
            out[dst] = self.storage[batch, phys][src]
        return out

    def scatter_region(self, batch: int, region: Region, values: np.ndarray) -> None:
        """Write a dense ``(C, *region.shape)`` patch into the bricks."""
        if values.shape != (self.spec.channels, *region.shape):
            raise LayoutError(f"scatter shape {values.shape} vs region {region.shape}")
        valid = region.clip(self.spec.spatial)
        if valid.is_empty():
            return
        for grid_pos in self.grid.bricks_overlapping(valid):
            brick_region = self.grid.brick_region(grid_pos, clipped=True)
            overlap = brick_region.intersect(valid)
            if overlap.is_empty():
                continue
            phys = self.brick_map.physical(grid_pos)
            brick_origin = [iv.lo for iv in self.grid.brick_region(grid_pos)]
            dst = (slice(None), *overlap.slices(origin=brick_origin))
            src = (slice(None), *overlap.slices(origin=[iv.lo for iv in region]))
            self.storage[batch, phys][dst] = values[src]


def flat_bricks(axis_terms: Sequence[Sequence[int]]) -> Sequence[int]:
    """Flat (row-major) indices of a box of bricks given, per axis, its brick
    indices times the grid stride (:meth:`BrickGrid.axis_terms`): every sum
    of one term per axis, in row-major order."""
    flat: Sequence[int] = (0,)
    for terms in axis_terms:
        flat = [f + t for f in flat for t in terms]
    return flat


def bricked_nbytes(spec: TensorSpec, brick_shape: Sequence[int]) -> int:
    """Bytes of the buffer backing ``spec`` in brick layout: every brick is
    stored in full, overhanging boundary bricks included."""
    grid = BrickGrid(spec.spatial, tuple(brick_shape))
    return (spec.batch * grid.num_bricks * spec.channels
            * math.prod(grid.brick_shape) * spec.itemsize)
