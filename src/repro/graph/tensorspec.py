"""Tensor shape/dtype specifications for DNN activations.

Activations follow the channels-first convention used by cuDNN and the paper:
``(N, C, *spatial)`` where ``spatial`` is ``(H, W)`` for 2-D networks and
``(D, H, W)`` for 3-D networks.  BrickDL blocks along the batch and spatial
dimensions only (section 3.2), so :class:`TensorSpec` exposes those groups
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError

__all__ = ["TensorSpec"]


@dataclass(frozen=True)
class TensorSpec:
    """Shape and dtype of one activation tensor.

    Parameters
    ----------
    batch:
        Sample dimension ``N``.
    channels:
        Channel dimension ``C`` (never blocked by BrickDL).
    spatial:
        Spatial extents, ``(H, W)`` or ``(D, H, W)`` (or ``(L,)`` for 1-D).
        May be empty for fully-connected activations.
    dtype:
        NumPy dtype; the paper's kernels are single precision throughout.
    """

    batch: int
    channels: int
    spatial: tuple[int, ...] = ()
    dtype: np.dtype = field(default=np.dtype(np.float32))

    def __post_init__(self) -> None:
        object.__setattr__(self, "spatial", tuple(int(s) for s in self.spatial))
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.batch < 1 or self.channels < 1:
            raise ShapeError(f"batch and channels must be positive: {self}")
        if any(s < 1 for s in self.spatial):
            raise ShapeError(f"spatial extents must be positive: {self}")

    @property
    def shape(self) -> tuple[int, ...]:
        """Full NumPy shape ``(N, C, *spatial)``."""
        return (self.batch, self.channels, *self.spatial)

    @property
    def spatial_ndim(self) -> int:
        return len(self.spatial)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def num_elements(self) -> int:
        return self.batch * self.channels * math.prod(self.spatial) if self.spatial else self.batch * self.channels

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.itemsize

    def zeros(self) -> np.ndarray:
        """Allocate a zero activation with this spec (C-contiguous)."""
        return np.zeros(self.shape, dtype=self.dtype)

    def random(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Allocate a deterministic-friendly random activation."""
        rng = rng if rng is not None else np.random.default_rng(0)
        return rng.standard_normal(self.shape).astype(self.dtype)

    def __str__(self) -> str:
        sp = "x".join(str(s) for s in self.spatial) if self.spatial else "-"
        return f"TensorSpec(N={self.batch}, C={self.channels}, spatial={sp}, {self.dtype.name})"
