"""NumPy kernel tests against float64 loop / manual references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

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


def _tuple(value, nd):
    return (value,) * nd if isinstance(value, int) else tuple(value)


def reference_conv(x, w, bias=None, stride=1, padding=0, dilation=1, groups=1):
    """Direct convolution in float64: one loop over output channels and
    kernel taps, each tap a product-sum over the group's input channels."""
    nd = w.ndim - 2
    stride, padding, dilation = (_tuple(v, nd) for v in (stride, padding, dilation))
    xp = np.pad(x.astype(np.float64), [(0, 0), (0, 0)] + [(p, p) for p in padding])
    o, c_per_group, *kernel = w.shape
    extent = [(e - (k - 1) * d - 1) // s + 1
              for e, k, d, s in zip(xp.shape[2:], kernel, dilation, stride)]
    out = np.zeros((len(x), o, *extent))
    for oc in range(o):
        first = oc // (o // groups) * c_per_group
        for tap in np.ndindex(*kernel):
            window = xp[(slice(None), slice(first, first + c_per_group), *(
                slice(i * d, i * d + (e - 1) * s + 1, s)
                for i, d, e, s in zip(tap, dilation, extent, stride)))]
            out[:, oc] += np.einsum("nc...,c->n...", window, w[(oc, slice(None), *tap)].astype(np.float64))
    if bias is not None:
        out += bias.reshape((1, -1) + (1,) * nd)
    return out


class TestConv:
    def test_vs_float64_reference(self, rng):
        x = rng.standard_normal((2, 3, 11, 9)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        out = conv_forward(x, w, padding=1)
        np.testing.assert_allclose(out, reference_conv(x, w, padding=1), atol=1e-4)

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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacked_conv_item_equals_its_own_call_bit_for_bit(data):
    """Item ``i`` of a stacked ``conv_forward`` has the bytes of
    ``conv_forward`` on that item alone, for every conv: 1-3-D, plain /
    grouped / depthwise, strided, dilated, with and without bias, 1-40 items.
    The stack is a GEMM batch axis; folding the items into one GEMM's rows
    lets BLAS block them differently.  A batched values pass rests on it: a
    sample's outputs never depend on its batch-mates."""
    rank = data.draw(st.integers(1, 3), label="rank")
    groups = data.draw(st.sampled_from([1, 2, 4, "depthwise"]), label="groups")
    if groups == "depthwise":
        groups = channels = data.draw(st.integers(1, 16), label="channels")
        out_channels = channels * data.draw(st.integers(1, 2), label="multiplier")
    else:
        channels = groups * data.draw(st.integers(1, 6), label="channels per group")
        out_channels = groups * data.draw(st.integers(1, 5), label="outputs per group")
    kernel = tuple(data.draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank), label="kernel"))
    stride = tuple(data.draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank), label="stride"))
    dilation = tuple(data.draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank), label="dilation"))
    span = (8, 8, 3)[rank - 1]
    spatial = tuple((k - 1) * d + 1 + data.draw(st.integers(0, span), label="extra")
                    for k, d in zip(kernel, dilation))
    items = data.draw(st.integers(1, 40 if rank < 3 else 12), label="items")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    x = rng.standard_normal((items, channels, *spatial)).astype(np.float32)
    w = rng.standard_normal((out_channels, channels // groups, *kernel)).astype(np.float32)
    bias = rng.standard_normal(out_channels).astype(np.float32) if data.draw(st.booleans()) else None
    stacked = conv_forward(x, w, bias, stride=stride, dilation=dilation, groups=groups)
    for i in range(items):
        alone = conv_forward(x[i:i + 1], w, bias, stride=stride, dilation=dilation, groups=groups)
        assert stacked[i:i + 1].tobytes() == alone.tobytes(), (i, items)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacked_conv_transpose_item_equals_its_own_call_bit_for_bit(data):
    """The ``conv_transpose_forward`` twin of the stacked conv property
    (1-3-D, stride 1-2, padding, output padding, with and without bias,
    1-40 items): zero-stuffing and cropping are per item, and the conv they
    feed keeps the item on a matmul batch axis."""
    rank = data.draw(st.integers(1, 3), label="rank")
    channels = data.draw(st.integers(1, 8), label="channels")
    out_channels = data.draw(st.integers(1, 8), label="out channels")
    kernel = tuple(data.draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank), label="kernel"))
    stride = tuple(data.draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank), label="stride"))
    padding = tuple(data.draw(st.integers(0, k - 1), label="padding") for k in kernel)
    output_padding = tuple(data.draw(st.integers(0, s - 1), label="output padding") for s in stride)
    span = (8, 6, 3)[rank - 1]
    spatial = tuple(data.draw(st.lists(st.integers(1, span), min_size=rank, max_size=rank), label="spatial"))
    items = data.draw(st.integers(1, 40 if rank < 3 else 12), label="items")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    x = rng.standard_normal((items, channels, *spatial)).astype(np.float32)
    w = rng.standard_normal((channels, out_channels, *kernel)).astype(np.float32)
    bias = rng.standard_normal(out_channels).astype(np.float32) if data.draw(st.booleans()) else None
    stacked = conv_transpose_forward(x, w, bias, stride=stride, padding=padding, output_padding=output_padding)
    for i in range(items):
        alone = conv_transpose_forward(x[i:i + 1], w, bias, stride=stride, padding=padding,
                                       output_padding=output_padding)
        assert stacked[i:i + 1].tobytes() == alone.tobytes(), (i, items)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacked_dense_row_equals_its_own_call_bit_for_bit(data):
    """The ``dense_forward`` twin of the stacked conv property (1-40 rows,
    up to 600 inputs and 300 outputs, with and without bias): each row is
    its own product on a matmul batch axis, never a row of one GEMM, whose
    blocking BLAS picks by the row count."""
    items = data.draw(st.integers(1, 40), label="items")
    f_in = data.draw(st.integers(1, 600), label="inputs")
    f_out = data.draw(st.integers(1, 300), label="outputs")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    x = rng.standard_normal((items, f_in)).astype(np.float32)
    w = rng.standard_normal((f_out, f_in)).astype(np.float32)
    bias = rng.standard_normal(f_out).astype(np.float32) if data.draw(st.booleans()) else None
    stacked = dense_forward(x, w, bias)
    for i in range(items):
        assert stacked[i:i + 1].tobytes() == dense_forward(x[i:i + 1], w, bias).tobytes(), (i, items)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_depthwise_patch_call_equals_the_padded_call_bit_for_bit(data):
    """A conv with one input channel per group (channel multiplier 1-2;
    1-3-D, strided, dilated, with and without bias) sums its taps
    elementwise in a fixed order.  So a padding-0 call on a gathered halo
    patch, zero-filled beyond the feature map as a brick's gather is, has
    the bytes of the matching slice of the padded whole-tensor call; and
    every output stays within the conv tolerance of the float64 reference."""
    rank = data.draw(st.integers(1, 3), label="rank")
    channels = data.draw(st.integers(1, 8), label="channels")
    multiplier = data.draw(st.integers(1, 2), label="multiplier")
    kernel = tuple(data.draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank), label="kernel"))
    stride = tuple(data.draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank), label="stride"))
    dilation = tuple(data.draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank), label="dilation"))
    k_eff = [(k - 1) * d + 1 for k, d in zip(kernel, dilation)]
    padding = tuple(data.draw(st.integers(0, ke - 1), label="padding") for ke in k_eff)
    span = (10, 8, 3)[rank - 1]
    spatial = tuple(data.draw(st.integers(max(1, ke - 2 * p), max(1, ke - 2 * p) + span), label="extent")
                    for ke, p in zip(k_eff, padding))
    batch = data.draw(st.integers(1, 4), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    x = rng.standard_normal((batch, channels, *spatial)).astype(np.float32)
    w = rng.standard_normal((channels * multiplier, 1, *kernel)).astype(np.float32)
    bias = rng.standard_normal(channels * multiplier).astype(np.float32) if data.draw(st.booleans()) else None
    conv = dict(stride=stride, dilation=dilation, groups=channels)
    full = conv_forward(x, w, bias, padding=padding, **conv)
    np.testing.assert_allclose(full, reference_conv(x, w, bias, padding=padding, **conv), atol=1e-4)

    region = []
    for e in full.shape[2:]:
        lo = data.draw(st.integers(0, e - 1), label="lo")
        region.append((lo, data.draw(st.integers(lo + 1, e), label="hi")))
    starts = [lo * s - p for (lo, _), s, p in zip(region, stride, padding)]
    stops = [(hi - 1) * s + ke - p for (_, hi), s, ke, p in zip(region, stride, k_eff, padding)]
    inside = [(max(a, 0), min(b, e)) for a, b, e in zip(starts, stops, spatial)]
    patch = np.zeros((batch, channels, *(b - a for a, b in zip(starts, stops))), np.float32)
    patch[(..., *(slice(lo - a, hi - a) for (lo, hi), a in zip(inside, starts)))] = \
        x[(..., *(slice(lo, hi) for lo, hi in inside))]
    local = conv_forward(patch, w, bias, padding=0, **conv)
    sliced = full[(..., *(slice(lo, hi) for lo, hi in region))]
    assert local.tobytes() == np.ascontiguousarray(sliced).tobytes()


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

    @pytest.mark.parametrize("padding", [(2,), (0, 1), (1, 0, 2)])
    @pytest.mark.parametrize("value", [0.0, -np.inf])
    def test_pad_equals_np_pad(self, rng, padding, value):
        x = rng.standard_normal((2, 3, *(4 + i for i in range(len(padding))))).astype(np.float32)[:, 1:]
        ref = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding], constant_values=value)
        assert pad_spatial(x, padding, value).tobytes() == ref.tobytes()

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
