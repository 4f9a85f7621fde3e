"""NumPy kernel tests against scipy / manual references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from repro.errors import ShapeError
from repro.kernels.conv import conv_forward
from repro.kernels.conv_transpose import conv_transpose_forward, conv_transpose_full
from repro.kernels.dense import dense_forward, flatten_forward
from repro.kernels.pointwise import (
    activation,
    add_bias,
    batchnorm_inference,
    channel_softmax,
    elementwise_add,
    leaky_relu,
    relu,
    sigmoid,
)
from repro.kernels.pooling import global_avg_pool, pool_forward
from repro.kernels.windows import pad_spatial, spatial_windows


def scipy_conv2d(x, w, padding):
    n, c, h, ww = x.shape
    o = w.shape[0]
    xp = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    out = np.zeros((n, o, h + 2 * padding - w.shape[2] + 1, ww + 2 * padding - w.shape[3] + 1), np.float32)
    for ni in range(n):
        for oi in range(o):
            acc = np.zeros(out.shape[2:])
            for ci in range(c):
                acc += signal.correlate(xp[ni, ci], w[oi, ci], mode="valid")
            out[ni, oi] = acc
    return out


class TestConv:
    def test_vs_scipy(self, rng):
        x = rng.standard_normal((2, 3, 11, 9)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        out = conv_forward(x, w, padding=1)
        np.testing.assert_allclose(out, scipy_conv2d(x, w, 1), atol=1e-4)

    def test_bias(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 2, 1, 1)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = conv_forward(x, w, bias=b)
        np.testing.assert_allclose(out[0, :, 0, 0], (w[:, :, 0, 0] @ x[0, :, 0, 0]) + b, atol=1e-5)

    def test_stride_matches_subsampling(self, rng):
        x = rng.standard_normal((1, 2, 12, 12)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        full = conv_forward(x, w, stride=1, padding=1)
        strided = conv_forward(x, w, stride=2, padding=1)
        np.testing.assert_allclose(strided, full[:, :, ::2, ::2], atol=1e-5)

    def test_dilation_equals_inserted_zero_kernel(self, rng):
        x = rng.standard_normal((1, 1, 10, 10)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        w_dilated = np.zeros((1, 1, 5, 5), np.float32)
        w_dilated[0, 0, ::2, ::2] = w[0, 0]
        np.testing.assert_allclose(
            conv_forward(x, w, dilation=2, padding=2),
            conv_forward(x, w_dilated, padding=2),
            atol=1e-5,
        )

    def test_groups_match_split(self, rng):
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        w = rng.standard_normal((6, 2, 3, 3)).astype(np.float32)
        out = conv_forward(x, w, padding=1, groups=2)
        lo = conv_forward(x[:, :2], w[:3], padding=1)
        hi = conv_forward(x[:, 2:], w[3:], padding=1)
        np.testing.assert_allclose(out, np.concatenate([lo, hi], axis=1), atol=1e-5)

    def test_3d_shape_and_value(self, rng):
        x = rng.standard_normal((1, 2, 5, 6, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32)
        out = conv_forward(x, w, padding=1)
        assert out.shape == (1, 3, 5, 6, 7)
        # Centre element check against explicit sum.
        manual = (x[0, :, 1:4, 1:4, 1:4] * w[0]).sum()
        np.testing.assert_allclose(out[0, 0, 2, 2, 2], manual, rtol=1e-4)

    def test_channel_mismatch(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            conv_forward(x, w)


class TestConvTranspose:
    def test_inverse_of_subsampling_shape(self, rng):
        x = rng.standard_normal((1, 2, 5, 7)).astype(np.float32)
        w = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = conv_transpose_forward(x, w, stride=2, padding=1)
        assert out.shape == (1, 3, 10, 14)

    def test_manual_scatter(self, rng):
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        s, p = 2, 1
        ref = np.zeros((1, 2, (3 - 1) * s + 3, (3 - 1) * s + 3), np.float32)
        for i in range(3):
            for j in range(3):
                for c in range(2):
                    for o in range(2):
                        ref[0, o, i * s:i * s + 3, j * s:j * s + 3] += x[0, c, i, j] * w[c, o]
        out = conv_transpose_forward(x, w, stride=s, padding=p)
        np.testing.assert_allclose(out, ref[:, :, p:-p, p:-p], atol=1e-5)

    def test_full_variant_has_no_crop(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        assert conv_transpose_full(x, w, stride=1).shape == (1, 1, 6, 6)


class TestPooling:
    def test_max(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        out = pool_forward(x, (2, 2))
        assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_avg(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        out = pool_forward(x, (2, 2), mode="avg")
        np.testing.assert_allclose(out[0, 1, 2, 3], x[0, 1, 4:6, 6:8].mean(), rtol=1e-5)

    def test_max_padding_is_neutral(self):
        x = -np.ones((1, 1, 4, 4), np.float32)
        out = pool_forward(x, (3, 3), stride=2, padding=1)
        assert (out == -1).all()  # -inf padding never wins

    def test_avg_count_include_pad(self):
        x = np.ones((1, 1, 4, 4), np.float32)
        out = pool_forward(x, (3, 3), stride=2, padding=1, mode="avg")
        # Corner window: 4 ones of 9 cells.
        np.testing.assert_allclose(out[0, 0, 0, 0], 4 / 9, rtol=1e-5)

    def test_global(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        out = global_avg_pool(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out[1, 2, 0, 0], x[1, 2].mean(), rtol=1e-5)


class TestPointwise:
    def test_relu_family(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        assert (relu(x) >= 0).all()
        lr = leaky_relu(x, 0.1)
        np.testing.assert_allclose(lr[x < 0], 0.1 * x[x < 0], rtol=1e-5)

    def test_sigmoid_stable(self):
        x = np.array([[-100.0, 0.0, 100.0]], np.float32)
        out = sigmoid(x)
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-6)

    def test_batchnorm(self, rng):
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        scale = np.array([1.0, 2.0, 3.0], np.float32)
        shift = np.array([0.5, 0.0, -0.5], np.float32)
        out = batchnorm_inference(x, scale, shift)
        np.testing.assert_allclose(out[0, 1], 2 * x[0, 1], rtol=1e-5)

    def test_add_and_bias(self, rng):
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(elementwise_add(x, x), 2 * x, rtol=1e-6)
        b = np.array([1.0, -1.0], np.float32)
        out = add_bias(x, b)
        np.testing.assert_allclose(out[0, 0], x[0, 0] + 1, rtol=1e-6)

    def test_softmax_sums_to_one(self, rng):
        x = rng.standard_normal((2, 5, 3, 3)).astype(np.float32)
        out = channel_softmax(x)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_activation_dispatch(self, rng):
        x = rng.standard_normal((4,)).astype(np.float32)
        np.testing.assert_allclose(activation(x, "tanh"), np.tanh(x), rtol=1e-5)


class TestDense:
    def test_flatten(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        assert flatten_forward(x).shape == (2, 60)

    def test_dense(self, rng):
        x = rng.standard_normal((2, 6)).astype(np.float32)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        np.testing.assert_allclose(dense_forward(x, w, b), x @ w.T + b, rtol=1e-5)


class TestWindows:
    def test_window_fit_check(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            spatial_windows(x, (5, 5), (1, 1), (1, 1))

    def test_pad_value(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        out = pad_spatial(x, (1, 1), value=-np.inf)
        assert np.isinf(out[0, 0, 0, 0])
        assert out.shape == (1, 1, 4, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_view_equals_the_sliced_sliding_window_view(self, data):
        """Shape, strides, values and read-only flag of the reference view,
        for C-contiguous and strided inputs."""
        rank = data.draw(st.integers(1, 3), label="rank")
        axes = st.lists(st.integers(1, 3), min_size=rank, max_size=rank)
        kernel = tuple(data.draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank), label="kernel"))
        stride, dilation = tuple(data.draw(axes, label="stride")), tuple(data.draw(axes, label="dilation"))
        k_eff = tuple((k - 1) * d + 1 for k, d in zip(kernel, dilation))
        spatial = tuple(data.draw(st.integers(ke, ke + 5)) for ke in k_eff)
        x = np.arange(2 * 3 * np.prod(spatial), dtype=np.float32).reshape(2, 3, *spatial)
        if data.draw(st.booleans(), label="strided"):
            x = x[:, 1:]
        ref = sliding_window_view(x, k_eff, axis=tuple(range(2, 2 + rank)))[
            (slice(None), slice(None), *(slice(None, None, s) for s in stride),
             *(slice(None, None, d) for d in dilation))]
        got = spatial_windows(x, kernel, stride, dilation)
        assert got.shape == ref.shape and got.strides == ref.strides
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, ref)
