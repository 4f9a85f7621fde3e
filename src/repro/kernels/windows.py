"""Sliding-window helpers shared by the convolution and pooling kernels.

These build strided *views* (no copies, per the optimization guides) over the
spatial dimensions of an ``(N, C, *spatial)`` activation, with stride and
dilation folded into the view's strides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError

__all__ = ["spatial_windows", "pad_spatial"]


def pad_spatial(x: np.ndarray, padding: Sequence[int], value: float = 0.0) -> np.ndarray:
    """Symmetrically pad the spatial dims of an ``(N, C, *spatial)`` array.

    A filled array with ``x`` copied into its interior: the bytes of
    ``np.pad(mode="constant")`` at a fraction of its per-call cost."""
    if not any(padding):
        return x
    out = np.full((*x.shape[:2], *(e + 2 * p for e, p in zip(x.shape[2:], padding))), value, x.dtype)
    out[(slice(None), slice(None), *(slice(p, p + e) for e, p in zip(x.shape[2:], padding)))] = x
    return out


def spatial_windows(
    x: np.ndarray,
    kernel: Sequence[int],
    stride: Sequence[int],
    dilation: Sequence[int],
) -> np.ndarray:
    """A read-only view of shape ``(N, C, *out_spatial, *kernel)``.

    ``x`` must already include any padding.  The view is
    ``sliding_window_view(x, k_eff)[..., ::stride, ::dilation]`` (stride on
    the output-position axes, dilation on the window axes), built from its
    shape and strides directly: the per-call cost of a brick's kernel.
    """
    nd = len(kernel)
    if x.ndim != 2 + nd:
        raise ShapeError(f"expected (N, C, *spatial) with {nd} spatial dims, got shape {x.shape}")
    k_eff = tuple((k - 1) * d + 1 for k, d in zip(kernel, dilation))
    for e, ke in zip(x.shape[2:], k_eff):
        if e < ke:
            raise ShapeError(f"window {k_eff} does not fit spatial extent {x.shape[2:]}")
    steps = x.strides[2:]
    shape = (*x.shape[:2], *((e - ke) // s + 1 for e, ke, s in zip(x.shape[2:], k_eff, stride)), *kernel)
    strides = (*x.strides[:2], *(t * s for t, s in zip(steps, stride)),
               *(t * d for t, d in zip(steps, dilation)))
    if not x.flags.c_contiguous:
        return as_strided(x, shape, strides, writeable=False)
    # A contiguous array is a buffer of its own: the cheapest constructor.
    v = np.ndarray(shape, x.dtype, x, 0, strides)
    v.flags.writeable = False
    return v
