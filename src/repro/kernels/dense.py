"""Fully-connected layer kernels for classifier heads."""

from __future__ import annotations

import numpy as np

__all__ = ["dense_forward", "flatten_forward"]


def flatten_forward(x: np.ndarray) -> np.ndarray:
    """Collapse everything after the batch axis into one feature axis."""
    return np.ascontiguousarray(x.reshape(x.shape[0], -1))


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``y = x @ W.T + b`` with ``x (N, F_in)`` and ``W (F_out, F_in)``.

    Each row is its own ``(1, F_in) @ (F_in, F_out)`` product on a matmul
    batch axis, the shape a one-row call makes: row ``i`` has the bits of
    ``dense_forward(x[i:i + 1], ...)`` in any batch."""
    out = np.matmul(x[:, None, :], weight.T)[:, 0]
    if bias is not None:
        out = out + bias
    return np.ascontiguousarray(out, dtype=x.dtype)
