"""The three brick-layout data structures: Brick, BrickMap, BrickInfo.

Section 3.3.4 / Fig. 6 of the paper: a *Brick* is a small fixed-size block of
contiguously stored elements; *BrickMap* maps each brick's logical grid
position to its physical storage slot (bricks need not be stored in
row-major grid order); *BrickInfo* is an adjacency list giving, for each
physical brick, the physical indices of its logical neighbors per direction,
so neighbor access never consults the map again.

These classes mirror the C++ template library's structures faithfully --
including the indirection -- because the *benchmarked* property of the
layout (one contiguous address stream per brick, neighbor access via a
single adjacency lookup) is what the simulator's transaction accounting
measures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import LayoutError

__all__ = ["Brick", "BrickMap", "BrickInfo", "neighbor_offsets", "morton_permutation", "morton_map"]


def neighbor_offsets(ndim: int) -> tuple[tuple[int, ...], ...]:
    """All 3^n - 1 neighbor directions for an n-dim brick grid, in the
    deterministic order used by :class:`BrickInfo` rows (Fig. 6(c))."""
    return tuple(d for d in itertools.product((-1, 0, 1), repeat=ndim) if any(d))


@dataclass
class Brick:
    """One fixed-size block of contiguously packed elements.

    ``data`` is a dense ``(channels, *brick_shape)`` array (bricks span all
    channels: BrickDL blocks batch/spatial dims only, never channels).
    Element access by in-brick index tuple goes through ``__getitem__``,
    mirroring the C++ operator overloads.
    """

    physical_index: int
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __getitem__(self, index_in_brick: tuple[int, ...]) -> np.ndarray:
        """Per-element access: returns the channel vector at a spatial point."""
        return self.data[(slice(None), *index_in_brick)]

    def __setitem__(self, index_in_brick: tuple[int, ...], value) -> None:
        self.data[(slice(None), *index_in_brick)] = value


class BrickMap:
    """Logical grid position -> physical storage slot (layer of indirection).

    The default is the identity (row-major grid order), but any permutation
    is legal -- e.g. a Morton/space-filling order -- and round-trips through
    :meth:`physical` / :meth:`logical`.
    """

    def __init__(self, grid_shape: Sequence[int], permutation: Sequence[int] | None = None) -> None:
        self.grid_shape = tuple(int(g) for g in grid_shape)
        if any(g < 1 for g in self.grid_shape):
            raise LayoutError(f"invalid brick grid {self.grid_shape}")
        n = math.prod(self.grid_shape)
        self.identity = permutation is None
        if permutation is None:
            self._to_physical = np.arange(n, dtype=np.int64)
        else:
            perm = np.asarray(permutation, dtype=np.int64)
            if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
                raise LayoutError("permutation must be a bijection over all bricks")
            self._to_physical = perm.copy()
        # Physical slot by logical grid position: a box of bricks is one
        # slice of this array (a view of ``_to_physical``).
        self.slots = self._to_physical.reshape(self.grid_shape)
        self._to_logical = np.empty(n, dtype=np.int64)
        self._to_logical[self._to_physical] = np.arange(n, dtype=np.int64)

    @property
    def num_bricks(self) -> int:
        return int(self._to_physical.shape[0])

    def flatten(self, grid_pos: Sequence[int]) -> int:
        idx = 0
        for p, g in zip(grid_pos, self.grid_shape):
            if not 0 <= p < g:
                raise LayoutError(f"grid position {tuple(grid_pos)} outside grid {self.grid_shape}")
            idx = idx * g + p
        return idx

    def unflatten(self, flat: int) -> tuple[int, ...]:
        pos = []
        for g in reversed(self.grid_shape):
            pos.append(flat % g)
            flat //= g
        return tuple(reversed(pos))

    def physical(self, grid_pos: Sequence[int]) -> int:
        """Physical slot of the brick at a logical grid position."""
        return int(self._to_physical[self.flatten(grid_pos)])

    def physical_flat(self, flat: Sequence[int]) -> list[int]:
        """Physical slots of bricks given by flat (row-major) logical index."""
        if self.identity:
            return list(flat)
        return self._to_physical[np.asarray(flat, dtype=np.int64)].tolist()

    def logical(self, physical_index: int) -> tuple[int, ...]:
        """Logical grid position of the brick stored at a physical slot."""
        return self.unflatten(int(self._to_logical[physical_index]))

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for flat in range(self.num_bricks):
            yield self.unflatten(flat), int(self._to_physical[flat])


def morton_permutation(grid_shape: Sequence[int]) -> np.ndarray:
    """A Morton (Z-order) storage permutation for a brick grid.

    The paper notes that "the blocks of bricks need not be physically
    stored in the conventional row-major order" (section 3.3.4); Z-order
    keeps spatially neighboring bricks close in memory in *every*
    dimension, improving the locality of halo-neighbor streams.  Returns
    the ``permutation`` argument for :class:`BrickMap`: entry ``l`` is the
    physical slot of logical brick ``l``.
    """
    grid = tuple(int(g) for g in grid_shape)
    n = math.prod(grid)
    bits = max(g - 1 for g in grid).bit_length() if n > 1 else 1

    def morton_key(pos: tuple[int, ...]) -> int:
        key = 0
        for bit in range(bits):
            for d, p in enumerate(pos):
                key |= ((p >> bit) & 1) << (bit * len(pos) + d)
        return key

    positions = list(itertools.product(*(range(g) for g in grid)))
    order = sorted(range(n), key=lambda flat: morton_key(positions[flat]))
    perm = np.empty(n, dtype=np.int64)
    for phys, logical_flat in enumerate(order):
        perm[logical_flat] = phys
    return perm


def morton_map(grid_shape: Sequence[int]) -> "BrickMap":
    """A :class:`BrickMap` storing bricks in Morton (Z-) order."""
    return BrickMap(grid_shape, morton_permutation(grid_shape))


class BrickInfo:
    """Adjacency lists: physical neighbor indices per direction (Fig. 6(c)).

    Row ``i`` holds, for the brick at *physical* slot ``i``, the physical
    slot of its logical neighbor in each of the 3^n - 1 directions (-1 where
    the neighbor falls outside the grid).
    """

    def __init__(self, brick_map: BrickMap) -> None:
        self.brick_map = brick_map
        self.directions = neighbor_offsets(len(brick_map.grid_shape))
        self.adjacency = np.full((brick_map.num_bricks, len(self.directions)), -1, dtype=np.int64)
        slots = brick_map.slots
        for d_idx, delta in enumerate(self.directions):
            # Bricks whose neighbor in this direction is inside the grid, and
            # those neighbors: the same box of the slot grid, shifted.
            here = tuple(slice(max(0, -d), g - max(0, d)) for d, g in zip(delta, slots.shape))
            there = tuple(slice(max(0, d), g - max(0, -d)) for d, g in zip(delta, slots.shape))
            self.adjacency[slots[here].ravel(), d_idx] = slots[there].ravel()

    def neighbor(self, physical_index: int, direction: tuple[int, ...]) -> int:
        """Physical index of the neighbor in ``direction`` (-1 if outside)."""
        try:
            d_idx = self.directions.index(direction)
        except ValueError:
            raise LayoutError(f"unknown direction {direction} for {len(self.directions)}-dir adjacency") from None
        return int(self.adjacency[physical_index, d_idx])

    def neighbors(self, physical_index: int) -> dict[tuple[int, ...], int]:
        """All in-grid neighbors of a brick, keyed by direction."""
        row = self.adjacency[physical_index]
        return {d: int(p) for d, p in zip(self.directions, row) if p >= 0}
