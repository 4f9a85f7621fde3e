"""Local (brick-patch) kernel dispatch vs full-tensor dispatch.

The invariant the merged executors rest on: for any op and any output
region, gathering the op's receptive-field input patch and running the
padding-free local kernel reproduces exactly the corresponding slice of the
full-tensor result.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bricked import BrickGrid
from repro.errors import UnsupportedOpError
from repro.graph.ops import (
    Activation,
    Add,
    BatchNorm,
    Bias,
    Concat,
    Conv,
    ConvTranspose,
    Dense,
    GlobalAvgPool,
    Mul,
    Pool,
    Softmax,
)
from repro.graph.regions import Region
from repro.graph.tensorspec import TensorSpec
from repro.kernels import apply_node_full, apply_node_local, pad_value_for

from testlib import gather_dense, kernel_step


def check_local_matches_full(op, input_arrays, out_region, rng):
    """Gather patches per the op's rf maps and compare local vs full slice."""
    specs = [TensorSpec(a.shape[0], a.shape[1], a.shape[2:]) for a in input_arrays]
    weights = op.init_weights(specs, rng)
    full = apply_node_full(op, input_arrays, weights)

    patches = []
    offsets = (0,) * len(out_region)
    fill = pad_value_for(op)
    for idx, arr in enumerate(input_arrays):
        maps = op.rf_maps(specs, idx)
        need = Region(m.in_interval(iv) for m, iv in zip(maps, out_region))
        offsets = tuple(m.local_out_offset(iv.lo, niv.lo) for m, iv, niv in zip(maps, out_region, need))
        patch = np.full((arr.shape[1], *need.shape), fill, dtype=arr.dtype)
        valid = need.clip(arr.shape[2:])
        if not valid.is_empty():
            src = (0, slice(None), *valid.slices())
            dst = (slice(None), *valid.slices(origin=[iv.lo for iv in need]))
            patch[dst] = arr[src]
        patches.append(patch)

    local = apply_node_local(op, [p[None] for p in patches], weights, out_region.shape, offsets)[0]
    expected = full[(0, slice(None), *out_region.slices())]
    np.testing.assert_allclose(local, expected, atol=1e-4, rtol=1e-4)


REGIONS = [
    Region.from_bounds([0, 0], [4, 4]),      # corner
    Region.from_bounds([3, 5], [7, 9]),      # interior
    Region.from_bounds([8, 8], [12, 12]),    # far corner
]


@pytest.mark.parametrize("region", REGIONS)
class TestLocalEqualsFull2D:
    def _x(self, rng, c=3, s=12):
        return rng.standard_normal((1, c, s, s)).astype(np.float32)

    def test_conv(self, region, rng):
        check_local_matches_full(Conv(out_channels=5, kernel=(3, 3), padding=1), [self._x(rng)], region, rng)

    def test_conv_strided(self, region, rng):
        op = Conv(out_channels=4, kernel=(3, 3), stride=2, padding=1)
        x = rng.standard_normal((1, 3, 24, 24)).astype(np.float32)
        check_local_matches_full(op, [x], region, rng)

    def test_conv_dilated(self, region, rng):
        op = Conv(out_channels=4, kernel=(3, 3), padding=2, dilation=2)
        check_local_matches_full(op, [self._x(rng)], region, rng)

    def test_conv_transpose(self, region, rng):
        op = ConvTranspose(out_channels=4, kernel=(4, 4), stride=2, padding=1)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)  # output 16x16
        check_local_matches_full(op, [x], region, rng)

    def test_maxpool(self, region, rng):
        op = Pool(kernel=(3, 3), stride=1, padding=1, mode="max")
        check_local_matches_full(op, [self._x(rng)], region, rng)

    def test_avgpool(self, region, rng):
        op = Pool(kernel=(2, 2), stride=2)
        x = rng.standard_normal((1, 3, 24, 24)).astype(np.float32)
        check_local_matches_full(op, [x], region, rng)

    def test_activation(self, region, rng):
        check_local_matches_full(Activation("leaky_relu"), [self._x(rng)], region, rng)

    def test_batchnorm(self, region, rng):
        check_local_matches_full(BatchNorm(), [self._x(rng)], region, rng)

    def test_add(self, region, rng):
        check_local_matches_full(Add(), [self._x(rng), self._x(rng)], region, rng)

    def test_concat(self, region, rng):
        check_local_matches_full(Concat(num_inputs=2), [self._x(rng, c=2), self._x(rng, c=3)], region, rng)

    def test_softmax(self, region, rng):
        check_local_matches_full(Softmax(), [self._x(rng)], region, rng)


class TestLocalEqualsFull3D:
    def test_conv3d(self, rng):
        op = Conv(out_channels=3, kernel=(3, 3, 3), padding=1)
        x = rng.standard_normal((1, 2, 8, 8, 8)).astype(np.float32)
        region = Region.from_bounds([0, 2, 4], [4, 6, 8])
        check_local_matches_full(op, [x], region, rng)


class TestGlobalOpsRejected:
    def test_global_pool_not_local(self, rng):
        with pytest.raises(UnsupportedOpError):
            apply_node_local(GlobalAvgPool(), [np.zeros((1, 4, 4), np.float32)], {}, (1, 1), (0, 0))

    def test_dense_not_local(self):
        with pytest.raises(UnsupportedOpError):
            apply_node_local(Dense(out_features=4), [np.zeros((8,), np.float32)], {}, (), ())


def test_pad_value_only_maxpool_is_neg_inf():
    assert pad_value_for(Pool(kernel=(2, 2), mode="max")) == -np.inf
    assert pad_value_for(Pool(kernel=(2, 2), mode="avg")) == 0.0
    assert pad_value_for(Conv(out_channels=1, kernel=(3, 3))) == 0.0


# -- elementwise ops: one whole-tensor call is every brick's call ---------------

# Each output element of these kernels is one IEEE multiply / add / maximum /
# ``where`` of inputs at its position, so it gets the same bits at any array
# shape.  Not here: ``sigmoid`` / ``tanh`` (transcendental loops whose SIMD and
# scalar paths may round differently by array length), softmax (a channel sum
# whose order follows the layout), and windowed ops (a brick's patch is no
# slice of a whole-tensor call).
ELEMENTWISE_OPS = {"batchnorm": BatchNorm(), "bias": Bias(), "add": Add(), "mul": Mul(),
                   "relu": Activation("relu"), "leaky_relu": Activation("leaky_relu", 0.2)}
# Values whose bits an inexact kernel would move: signed zeros, infinities,
# NaN, denormals and the extremes of float32.
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-39,
                    3.4e38, -3.4e38], np.float32)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ELEMENTWISE_OPS)), st.data())
def test_by_tensor_member_equals_its_bricks_bit_for_bit(kind, data):
    """One whole-tensor ``apply_node_full`` of an elementwise op is every
    brick's ``kernel_step`` (patches gathered as a brick task gathers them),
    slice by slice and bit for bit, on 1-3-D maps whose boundary bricks
    overhang, with signed zeros, infinities, NaN and denormals in the input."""
    op = ELEMENTWISE_OPS[kind]
    rank = data.draw(st.integers(1, 3), label="rank")
    spatial = tuple(data.draw(st.lists(st.integers(1, 9), min_size=rank, max_size=rank), label="map"))
    brick = tuple(data.draw(st.integers(1, e + 2), label="brick") for e in spatial)
    batch, channels = data.draw(st.integers(1, 3), label="batch"), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    specs = [TensorSpec(batch, channels, spatial)] * op.arity
    xs = []
    for _ in specs:
        x = rng.standard_normal((batch, channels, *spatial)).astype(np.float32)
        special = rng.random(x.shape) < 0.2
        x[special] = rng.choice(SPECIAL, int(special.sum()))
        xs.append(x)
    weights = op.init_weights(specs, rng)
    node = SimpleNamespace(op=op, inputs=list(range(op.arity)), weights=weights)
    with np.errstate(all="ignore"):
        check_bricks_equal_whole(node, xs, BrickGrid(spatial, brick), specs)


def check_bricks_equal_whole(node, xs, grid, specs):
    op, batch = node.op, len(xs[0])
    whole = apply_node_full(op, xs, node.weights)
    for gpos in itertools.product(*map(range, grid.grid_shape)):
        out = grid.brick_region(gpos, clipped=True)
        maps = [op.rf_maps(specs, k) for k in range(op.arity)]
        needs = [Region(m.in_interval(iv) for m, iv in zip(ms, out)) for ms in maps]
        offsets = [tuple(m.local_out_offset(iv.lo, nv.lo) for m, iv, nv in zip(ms, out, need))
                   for ms, need in zip(maps, needs)]
        for n in range(batch):
            value = kernel_step(node, out.shape, needs, offsets,
                                lambda pred, need, fill: gather_dense(xs[pred][n], need, fill))
            expected = whole[(n, slice(None), *out.slices())]
            assert value.dtype == expected.dtype and value.shape == expected.shape
            assert value.tobytes() == expected.tobytes(), (kind, gpos, n)
