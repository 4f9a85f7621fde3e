"""A two-level geometric multigrid V-cycle as a BrickDL graph.

The paper's closing section names "layered computations such as multi-grid"
as a target for merged execution.  This module builds a complete two-level
V-cycle for the 2-D Poisson problem ``A u = f`` (5-point Laplacian, zero
Dirichlet boundaries) out of fixed-weight graph operators:

* **smoothing** -- weighted-Jacobi sweeps expressed as 2-channel
  convolutions carrying the ``(u, f)`` pair (channel 0 is updated, channel
  1 passes ``f`` through),
* **residual** -- ``r = f - A u`` as a 2->1-channel convolution,
* **restriction** -- full-weighting 3x3 stride-2 convolution,
* **coarse smoothing** -- Jacobi on the error equation ``A e = r``,
* **prolongation** -- bilinear 4x4 stride-2 transposed convolution,
* **correction** -- an elementwise Add, followed by post-smoothing.

The same graph runs under the naive reference executor, both merged brick
strategies, and the tiled baseline -- numerically identically.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph
from repro.graph.tensorspec import TensorSpec

__all__ = ["build_vcycle_graph", "reference_vcycle"]

_OMEGA = 0.8  # weighted-Jacobi damping
# Jacobi sweeps before restriction, on the coarse grid, and after correction.
_PRE_SMOOTH = 2
_COARSE_SMOOTH = 4
_POST_SMOOTH = 2


def _smooth_weights() -> np.ndarray:
    """(2, 2, 3, 3): channel 0 <- jacobi(u, f), channel 1 <- f."""
    w = np.zeros((2, 2, 3, 3), np.float32)
    # u' = (1 - omega) u + omega/4 (f + sum of u neighbors)
    w[0, 0, 1, 1] = 1.0 - _OMEGA
    for (i, j) in ((0, 1), (2, 1), (1, 0), (1, 2)):
        w[0, 0, i, j] = _OMEGA / 4.0
    w[0, 1, 1, 1] = _OMEGA / 4.0
    w[1, 1, 1, 1] = 1.0  # pass f through
    return w


def _residual_weights() -> np.ndarray:
    """(1, 2, 3, 3): r = f - A u = f - (4u - sum of neighbors)."""
    w = np.zeros((1, 2, 3, 3), np.float32)
    w[0, 0, 1, 1] = -4.0
    for (i, j) in ((0, 1), (2, 1), (1, 0), (1, 2)):
        w[0, 0, i, j] = 1.0
    w[0, 1, 1, 1] = 1.0
    return w


def _restrict_weights() -> np.ndarray:
    """(1, 1, 3, 3) full weighting."""
    k = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], np.float32) / 16.0
    return k.reshape(1, 1, 3, 3)


def _pair_weights() -> np.ndarray:
    """(2, 1, 1, 1): lift r to the (e=0, r) pair."""
    w = np.zeros((2, 1, 1, 1), np.float32)
    w[1, 0, 0, 0] = 1.0
    return w


def _take_channel(index: int) -> np.ndarray:
    """(1, 2, 1, 1): extract one channel of a pair."""
    w = np.zeros((1, 2, 1, 1), np.float32)
    w[0, index, 0, 0] = 1.0
    return w


def _prolong_weights() -> np.ndarray:
    """(1, 1, 4, 4) bilinear prolongation (stride 2, padding 1)."""
    k1 = np.array([1.0, 3.0, 3.0, 1.0], np.float32) / 4.0
    return np.outer(k1, k1).reshape(1, 1, 4, 4)


def build_vcycle_graph(size: int) -> Graph:
    """Two-level V-cycle on an ``size x size`` fine grid (``size`` even).

    Input: 2 channels, ``(u0, f)``.  Output node ``"u_out"``: the corrected,
    post-smoothed iterate.
    """
    if size % 2:
        raise ShapeError("V-cycle fine grid must have even extent")
    b = GraphBuilder(f"vcycle_{size}", TensorSpec(1, 2, (size, size)))

    pair = b.current
    for i in range(_PRE_SMOOTH):
        pair = b.conv(2, 3, padding=1, bias=False, src=pair, name=f"pre_smooth{i}")
        pair.weights = {"weight": _smooth_weights()}

    r = b.conv(1, 3, padding=1, bias=False, src=pair, name="residual")
    r.weights = {"weight": _residual_weights()}
    rc = b.conv(1, 3, stride=2, padding=1, bias=False, src=r, name="restrict")
    rc.weights = {"weight": _restrict_weights()}

    coarse = b.conv(2, 1, bias=False, src=rc, name="lift_pair")
    coarse.weights = {"weight": _pair_weights()}
    for i in range(_COARSE_SMOOTH):
        coarse = b.conv(2, 3, padding=1, bias=False, src=coarse, name=f"coarse_smooth{i}")
        coarse.weights = {"weight": _smooth_weights()}
    e_c = b.conv(1, 1, bias=False, src=coarse, name="take_error")
    e_c.weights = {"weight": _take_channel(0)}

    e_f = b.deconv(1, 4, stride=2, padding=1, src=e_c, name="prolong")
    e_f.weights = {"weight": _prolong_weights().transpose(1, 0, 2, 3).copy()}

    u_pre = b.conv(1, 1, bias=False, src=pair, name="take_u")
    u_pre.weights = {"weight": _take_channel(0)}
    corrected = b.add(u_pre, e_f, name="correct")

    f_chan = b.conv(1, 1, bias=False, src=pair, name="take_f")
    f_chan.weights = {"weight": _take_channel(1)}
    pair2 = b.concat([corrected, f_chan], name="repair")
    for i in range(_POST_SMOOTH):
        pair2 = b.conv(2, 3, padding=1, bias=False, src=pair2, name=f"post_smooth{i}")
        pair2.weights = {"weight": _smooth_weights()}
    out = b.conv(1, 1, bias=False, src=pair2, name="u_out")
    out.weights = {"weight": _take_channel(0)}
    return b.finish()


# ---------------------------------------------------------------------------
# Direct NumPy reference
# ---------------------------------------------------------------------------

def _jacobi(u: np.ndarray, f: np.ndarray, sweeps: int) -> np.ndarray:
    for _ in range(sweeps):
        padded = np.pad(u, 1)
        neighbors = (padded[:-2, 1:-1] + padded[2:, 1:-1] +
                     padded[1:-1, :-2] + padded[1:-1, 2:])
        u = (1.0 - _OMEGA) * u + (_OMEGA / 4.0) * (f + neighbors)
    return u.astype(np.float32)


def _apply_a(u: np.ndarray) -> np.ndarray:
    padded = np.pad(u, 1)
    neighbors = (padded[:-2, 1:-1] + padded[2:, 1:-1] +
                 padded[1:-1, :-2] + padded[1:-1, 2:])
    return 4.0 * u - neighbors


def _restrict(r: np.ndarray) -> np.ndarray:
    k = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], np.float32) / 16.0
    padded = np.pad(r, 1)
    n = r.shape[0] // 2
    out = np.zeros((n, n), np.float32)
    for i in range(n):
        for j in range(n):
            out[i, j] = (padded[2 * i:2 * i + 3, 2 * j:2 * j + 3] * k).sum()
    return out


def _prolong(e: np.ndarray, fine: int) -> np.ndarray:
    k1 = np.array([1.0, 3.0, 3.0, 1.0], np.float32) / 4.0
    k = np.outer(k1, k1)
    n = e.shape[0]
    full = np.zeros(((n - 1) * 2 + 4, (n - 1) * 2 + 4), np.float32)
    for i in range(n):
        for j in range(n):
            full[2 * i:2 * i + 4, 2 * j:2 * j + 4] += e[i, j] * k
    return full[1:1 + fine, 1:1 + fine]


def reference_vcycle(u0: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Direct NumPy two-level V-cycle matching :func:`build_vcycle_graph`."""
    u = _jacobi(u0.astype(np.float32), f.astype(np.float32), _PRE_SMOOTH)
    r = f - _apply_a(u)
    rc = _restrict(r)
    e = _jacobi(np.zeros_like(rc), rc, _COARSE_SMOOTH)
    u = u + _prolong(e, u.shape[0])
    return _jacobi(u, f, _POST_SMOOTH)
