"""Fully-connected layer kernels for classifier heads."""

from __future__ import annotations

import numpy as np

__all__ = ["dense_forward", "flatten_forward"]


def flatten_forward(x: np.ndarray) -> np.ndarray:
    """Collapse everything after the batch axis into one feature axis."""
    return np.ascontiguousarray(x.reshape(x.shape[0], -1))


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``y = x @ W.T + b`` with ``x (N, F_in)`` and ``W (F_out, F_in)``
    (``apply_node_full`` feeds it one row at a time)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return np.ascontiguousarray(out, dtype=x.dtype)
