"""N-dimensional convolution kernels (1-D to 3-D, strided/dilated/grouped).

A conv with one input channel per group (depthwise, any channel multiplier)
is a sum of per-tap, per-channel products: it runs as one elementwise
multiply-add per kernel tap over the whole batch, taps in C order, so every
output element is the same float32 sequence wherever it sits -- in a batch,
alone, or in a padding-0 call on a gathered brick patch.

Every other conv copies its strided window view once into im2col columns
``(N, G, C/G * prod(K), prod(S_out))`` and multiplies them by the weight
``(G, O/G, C/G * prod(K))`` in one ``np.matmul`` -- the im2col+GEMM structure
of cuDNN's implicit-GEMM algorithms.  Sample and group are matmul batch axes,
never folded into a GEMM's rows, whose blocking BLAS picks by shape: every
(sample, group) is its own GEMM of the shape a batch-1 call makes, so each
sample gets the bits of a call on it alone and a stack of brick patches runs
as one call.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.kernels.windows import pad_spatial, spatial_windows

__all__ = ["conv_forward"]


def conv_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: Sequence[int] | int = 1,
    padding: Sequence[int] | int = 0,
    dilation: Sequence[int] | int = 1,
    groups: int = 1,
) -> np.ndarray:
    """Convolve ``x (N, C, *S)`` with ``weight (O, C/groups, *K)``.

    Symmetric zero padding; returns a C-contiguous ``(N, O, *S_out)`` array
    in ``x``'s dtype whose sample ``i`` is bit for bit that of
    ``conv_forward(x[i:i + 1], ...)``.
    """
    nd = weight.ndim - 2
    kernel = weight.shape[2:]
    stride = (stride,) * nd if isinstance(stride, int) else tuple(stride)
    padding = (padding,) * nd if isinstance(padding, int) else tuple(padding)
    dilation = (dilation,) * nd if isinstance(dilation, int) else tuple(dilation)
    if x.ndim != 2 + nd:
        raise ShapeError(f"conv{nd}d expects (N, C, *S) input, got shape {x.shape}")

    n, c = x.shape[:2]
    o, c_per_group = weight.shape[:2]
    if c != c_per_group * groups:
        raise ShapeError(f"conv channels mismatch: input C={c}, weight expects {c_per_group * groups}")
    if o % groups:
        raise ShapeError(f"out channels {o} not divisible by groups {groups}")

    xp = pad_spatial(x, padding)
    v = spatial_windows(xp, kernel, stride, dilation)  # (N, C, *out, *K)
    if c_per_group == 1:
        out = _depthwise(v, weight)
    else:
        out_spatial = v.shape[2 : 2 + nd]
        # (N, C, *S_out, *K) -> (N, G, C/G * prod(K), prod(S_out)), copied at most once.
        order = (0, 1, *range(2 + nd, 2 + 2 * nd), *range(2, 2 + nd))
        cols = v.transpose(order).reshape(n, groups, -1, math.prod(out_spatial))
        out = np.matmul(weight.reshape(groups, o // groups, -1), cols)
        out = out.reshape(n, o, *out_spatial).astype(x.dtype, copy=False)
    if bias is not None:
        out += bias.reshape((1, -1) + (1,) * nd).astype(x.dtype)
    return out


def _depthwise(v: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``(N, C * M, *S_out)`` from the windows ``v (N, C, *S_out, *K)`` and
    ``weight (C * M, 1, *K)``: output channel ``c * M + j`` reads input
    channel ``c``.  One multiply into a scratch array and one in-place add
    per tap; the output-sized scratch is the only temporary."""
    kernel = weight.shape[2:]
    nd = len(kernel)
    n, c, *extent = v.shape[:2 + nd]
    m = weight.shape[0] // c
    taps = weight.reshape(1, c, m, -1, *(1,) * nd)
    out = np.empty((n, c, m, *extent), v.dtype)
    scratch = np.empty_like(out)
    for t, tap in enumerate(np.ndindex(*kernel)):
        window = v[(Ellipsis, *tap)][:, :, None]
        if t == 0:
            np.multiply(window, taps[:, :, :, t], out=out)
        else:
            np.multiply(window, taps[:, :, :, t], out=scratch)
            out += scratch
    return out.reshape(n, c * m, *extent)
