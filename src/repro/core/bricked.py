"""Bricked activation tensors: dense <-> fine-grained blocked layout.

A :class:`BrickedTensor` stores an ``(N, C, *spatial)`` activation as a grid
of bricks, each a contiguous ``(C, *brick_shape)`` block (BrickDL blocks
along batch and spatial dimensions, never channels -- section 3.2).  Bricks
whose extent overhangs the feature map are masked with zeros (section 3.3.4).

The storage order of bricks is governed by a :class:`~repro.core.brick.BrickMap`
(identity by default).  Values move per *axis*, not per brick: along one axis
a copy between a patch and the bricks it overlaps is three slices
(:func:`patch_spans`), so each primitive is a constant handful of NumPy calls
whatever the number of bricks:

* :meth:`BrickedTensor.gather` -- the dense patch over one need interval per
  axis, a neutral fill value beyond the feature map (the halo *copy* of
  section 3.2.1): the box of overlapped bricks is selected through the brick
  map in one indexing operation -- the map is consulted once per box, not
  once per brick -- interleaved into a dense block and placed with one slice
  assignment.  ``gather_region`` is the same method, since a
  :class:`~repro.graph.regions.Region` *is* one interval per axis, and
  :meth:`~BrickedTensor.scatter_region` its inverse over the same spans;
* :meth:`BrickedTensor.store_brick` -- one slice assignment of the brick a
  task owns.  (The paper's per-brick neighbour table, Fig. 6(c), is built on
  first read of :attr:`BrickedTensor.brick_info`; nothing here needs it.)

Each brick's bytes are contiguous in the underlying buffer, which is what
gives the layout its single-address-stream property in the simulator.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import LayoutError
from repro.core.brick import Brick, BrickInfo, BrickMap
from repro.graph.regions import Interval, Region
from repro.graph.tensorspec import TensorSpec

__all__ = ["BrickGrid", "BrickedTensor", "bricked_nbytes", "extract_patch", "flat_bricks", "gather_dense",
           "patch_spans"]


@dataclass(frozen=True)
class BrickGrid:
    """Geometry of a brick decomposition of a spatial domain."""

    extents: tuple[int, ...]
    brick_shape: tuple[int, ...]
    # Derived once in __post_init__: read on every brick lookup in the
    # executor hot path (the dataclass is frozen, hence the setattr there).
    grid_shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    num_bricks: int = field(init=False, repr=False, compare=False)
    ndim: int = field(init=False, repr=False, compare=False)
    strides: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.extents) != len(self.brick_shape):
            raise LayoutError(f"rank mismatch: extents {self.extents} vs brick {self.brick_shape}")
        if any(b < 1 for b in self.brick_shape) or any(e < 1 for e in self.extents):
            raise LayoutError(f"invalid grid geometry: {self}")
        grid = tuple(-(-e // b) for e, b in zip(self.extents, self.brick_shape))
        object.__setattr__(self, "grid_shape", grid)
        object.__setattr__(self, "num_bricks", math.prod(grid))
        object.__setattr__(self, "ndim", len(grid))
        object.__setattr__(self, "strides", tuple(
            math.prod(grid[d + 1:]) for d in range(len(grid))))

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
        # One contiguous slab: (N, num_bricks, C, *brick_shape).
        self.storage = np.zeros(
            (spec.batch, self.grid.num_bricks, spec.channels, *self.grid.brick_shape),
            dtype=spec.dtype,
        )
        # A box of bricks (k_1..k_n, C, B_1..B_n) <-> (C, k_1, B_1, ..., k_n, B_n).
        nd = self.grid.ndim
        self._interleave = (nd, *(x for d in range(nd) for x in (d, nd + 1 + d)))

    @functools.cached_property
    def brick_info(self) -> BrickInfo:
        """Per-brick neighbour adjacency (Fig. 6(c)), built on first read."""
        return BrickInfo(self.brick_map)

    # -- geometry -----------------------------------------------------------
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
        bt = cls(TensorSpec(n, c, array.shape[2:], array.dtype), brick_shape, brick_map)
        whole = Region.from_extents(bt.spec.spatial)
        for batch in range(n):
            bt.scatter_region(batch, whole, array[batch])
        return bt

    def to_dense(self) -> np.ndarray:
        """Reassemble the dense activation (mask padding removed)."""
        whole = Region.from_extents(self.spec.spatial)
        return np.stack([self.gather(batch, whole) for batch in range(self.spec.batch)])

    # -- value movement ---------------------------------------------------------
    def _dense(self, batch: int, slots: np.ndarray) -> np.ndarray:
        """Dense ``(C, k_1*B_1, ..., k_n*B_n)`` copy of the box of bricks
        stored at ``slots`` (a box of the brick map's slot grid)."""
        return self.storage[batch, slots].transpose(self._interleave).reshape(
            self.spec.channels, *(k * b for k, b in zip(slots.shape, self.grid.brick_shape)))

    def gather(self, batch: int, needs: Sequence[Interval], fill: float = 0.0) -> np.ndarray:
        """Dense ``(C, *need lengths)`` patch over one absolute interval per
        axis; parts beyond the feature map get ``fill`` (implicit zero padding
        of convolutions; ``-inf`` for max pooling)."""
        out = new_patch(self.spec.channels, needs, fill, self.spec.dtype)
        spans = patch_spans(needs, self.grid.extents, self.grid.brick_shape)
        if spans is not None:
            box, src, dst = spans
            out[dst] = self._dense(batch, self.brick_map.slots[box])[src]
        return out

    gather_region = gather  # a Region is one need interval per axis

    def store_brick(self, batch: int, grid_pos: Sequence[int], values: np.ndarray) -> None:
        """Write the brick at ``grid_pos`` -- all a brick task ever writes --
        from its dense ``(C, *clipped brick shape)`` values.  The overhang of
        a boundary brick is never written, so its zero mask holds."""
        grid = self.grid
        lengths = [min(b, e - p * b) for p, b, e in zip(grid_pos, grid.brick_shape, grid.extents)]
        if values.shape != (self.spec.channels, *lengths):
            raise LayoutError(f"brick {tuple(grid_pos)} is {lengths}, got values {values.shape}")
        self.storage[(batch, self.brick_map.slots[tuple(grid_pos)], slice(None),
                      *map(slice, lengths))] = values

    def scatter_region(self, batch: int, region: Region, values: np.ndarray) -> None:
        """Write a dense ``(C, *region.shape)`` patch into the bricks: the
        inverse of :meth:`gather` over the same spans (read the box, place
        the in-map part, write the box back)."""
        if values.shape != (self.spec.channels, *region.shape):
            raise LayoutError(f"scatter shape {values.shape} vs region {region.shape}")
        spans = patch_spans(region, self.grid.extents, self.grid.brick_shape)
        if spans is None:
            return
        box, src, dst = spans
        slots = self.brick_map.slots[box]
        dense = self._dense(batch, slots)
        dense[src] = values[dst]
        split = (x for kb in zip(slots.shape, self.grid.brick_shape) for x in kb)
        self.storage[batch, slots] = dense.reshape(self.spec.channels, *split).transpose(
            np.argsort(self._interleave))


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


def new_patch(channels: int, needs: Sequence[Interval], fill: float, dtype) -> np.ndarray:
    """A ``(C, *need lengths)`` patch holding ``fill`` everywhere."""
    shape = (channels, *(max(0, iv.hi - iv.lo) for iv in needs))
    return np.zeros(shape, dtype) if fill == 0 else np.full(shape, fill, dtype)


def gather_dense(data: np.ndarray, needs: Sequence[Interval], fill: float = 0.0) -> np.ndarray:
    """:meth:`BrickedTensor.gather` out of a dense ``(C, *extents)`` array."""
    out = new_patch(data.shape[0], needs, fill, data.dtype)
    spans = patch_spans(needs, data.shape[1:], data.shape[1:])
    if spans is not None:
        _, src, dst = spans
        out[dst] = data[src]
    return out


def extract_patch(values: np.ndarray, origin: Sequence[int], needs: Sequence[Interval],
                  fill: float) -> np.ndarray:
    """The patch over ``needs`` (absolute, one interval per axis) out of a
    dense ``(C, ...)`` patch whose first element sits at ``origin``: a view
    where that patch holds all of it, else a copy with ``fill`` (implicit
    feature-map padding) beyond it."""
    local = [Interval(need.lo - o, need.hi - o) for need, o in zip(needs, origin)]
    if all(0 <= iv.lo and iv.hi <= n for iv, n in zip(local, values.shape[1:])):
        return values[(slice(None), *(slice(iv.lo, iv.hi) for iv in local))]
    return gather_dense(values, local, fill)


def flat_bricks(axis_terms: Sequence[Sequence[int]]) -> Sequence[int]:
    """Flat (row-major) indices of a box of bricks given, per axis, its brick
    indices times the grid stride (:meth:`BrickGrid.axis_terms`): every sum
    of one term per axis, in row-major order."""
    if not axis_terms:
        return (0,)
    flat = axis_terms[0]
    for terms in axis_terms[1:]:
        flat = [f + t for f in flat for t in terms]
    return flat


def bricked_nbytes(spec: TensorSpec, brick_shape: Sequence[int]) -> int:
    """Bytes of the buffer backing ``spec`` in brick layout: every brick is
    stored in full, overhanging boundary bricks included."""
    grid = BrickGrid(spec.spatial, tuple(brick_shape))
    return (spec.batch * grid.num_bricks * spec.channels
            * math.prod(grid.brick_shape) * spec.itemsize)
