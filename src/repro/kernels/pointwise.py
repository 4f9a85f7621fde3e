"""Pointwise kernels: activations, inference batch-norm, bias, elementwise.

All of these are the memory-bound operators the paper's operator-fusion
baselines fuse onto convolutions; in BrickDL they ride along inside merged
subgraphs for free (padding factor 0, section 3.2.1).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "activation",
    "batchnorm_inference",
    "add_bias",
    "elementwise_add",
    "elementwise_mul",
    "channel_softmax",
]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, dtype=x.dtype)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.1) -> np.ndarray:
    return np.where(x >= 0, x, x * x.dtype.type(negative_slope))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable split form.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x, dtype=x.dtype)


_ACTIVATIONS = {"relu": relu, "leaky_relu": leaky_relu, "sigmoid": sigmoid, "tanh": tanh}


def activation(x: np.ndarray, fn: str, negative_slope: float = 0.1) -> np.ndarray:
    if fn == "leaky_relu":
        return leaky_relu(x, negative_slope)
    return _ACTIVATIONS[fn](x)


def _per_channel(vec: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-channel vector for broadcasting over (N, C, *spatial)."""
    return vec.reshape((1, -1) + (1,) * (ndim - 2))


def batchnorm_inference(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Folded inference BN: ``scale * x + shift`` per channel."""
    out = x * _per_channel(scale, x.ndim)
    out += _per_channel(shift, x.ndim)
    return out.astype(x.dtype, copy=False)


def add_bias(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return (x + _per_channel(bias, x.ndim)).astype(x.dtype, copy=False)


def elementwise_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b).astype(a.dtype, copy=False)


def elementwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).astype(a.dtype, copy=False)


def channel_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the channel axis (axis 1), numerically stabilized."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True)).astype(x.dtype)
