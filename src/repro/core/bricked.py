"""The brick data layout's geometry: grids, brick indices, buffer sizes.

BrickDL stores an ``(N, C, *spatial)`` activation as a grid of bricks, each a
contiguous ``(C, *brick_shape)`` block (it blocks along batch and spatial
dimensions, never channels -- section 3.2); a brick whose extent overhangs
the feature map is stored in full and masked (section 3.3.4).  The simulator
addresses that layout through :class:`~repro.core.handles.BrickedHandle`
over a buffer of :func:`bricked_nbytes`; values never live in it (they are
dense ``(N, C, *spatial)`` arrays, see ``BrickDLEngine.values``).  This
module holds the layout's geometry:

* :class:`BrickGrid` -- the brick decomposition of a spatial domain: grid
  shape, row-major strides, the bricks a region overlaps, per axis;
* :func:`flat_bricks` / :func:`bricked_nbytes` -- flat brick indices of a
  box and the bytes of a bricked buffer.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import LayoutError
from repro.graph.regions import Interval, Region
from repro.graph.tensorspec import TensorSpec

__all__ = ["BrickGrid", "bricked_nbytes", "flat_bricks"]


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
