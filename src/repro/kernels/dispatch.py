"""Operator -> kernel dispatch, in full-tensor and brick-local flavors.

Two entry points:

* :func:`apply_node_full` -- execute an op on complete activations.  Used by
  the naive reference executor, the tiled cuDNN-style baseline (per tile, via
  the local path) and for the global ops (dense heads, global pooling) that
  BrickDL hands off to the vendor library (section 3.3.3).

* :func:`apply_node_local` -- execute an op on a *patch*: the caller has
  gathered exactly the input region reported by the op's receptive-field
  maps (zero/neutral-filled beyond the feature map) and wants the outputs for
  its target region.  This is the primitive both merged-execution strategies
  call per brick, mirroring BrickDL's fine-grained cuDNN invocations.

The local path never applies feature-map padding itself: implicit zeros are
already materialized in the patch.  Transposed convolutions over-produce and
are sliced using the ``local_out_offset`` of their receptive-field map.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import UnsupportedOpError
from repro.graph.ops import (
    Activation,
    Add,
    Mul,
    BatchNorm,
    Bias,
    Concat,
    Conv,
    ConvTranspose,
    Dense,
    Flatten,
    FusedOp,
    GlobalAvgPool,
    InputOp,
    OpSpec,
    Pool,
    Softmax,
)
from repro.kernels.conv import conv_forward
from repro.kernels.conv_transpose import conv_transpose_forward, conv_transpose_full
from repro.kernels.dense import dense_forward, flatten_forward
from repro.kernels.pointwise import (
    activation,
    add_bias,
    batchnorm_inference,
    channel_softmax,
    elementwise_add,
    elementwise_mul,
)
from repro.kernels.pooling import global_avg_pool, pool_forward

__all__ = ["BY_TENSOR", "apply_node_full", "apply_node_local", "by_tensor", "pad_value_for"]

BY_TENSOR = frozenset({"batchnorm", "bias", "add", "mul", "relu", "leaky_relu"})
"""Ops (``kind``; an activation by its ``fn``) a values pass may run once over
a whole tensor instead of once per brick: each output element of their kernels
is one IEEE multiply / add / maximum / ``where`` of inputs at its position, so
it gets the same bits at any array shape.  Not in it: ``sigmoid`` / ``tanh``
(transcendental loops whose SIMD and scalar paths may round differently by
array length), softmax (a channel sum whose order follows the layout), pools
and convs (a window: a brick's patch is no slice of a whole-tensor call), and
any subclass (another ``kind``: it may read a halo)."""


def by_tensor(op: OpSpec) -> bool:
    """Whether ``op`` is in :data:`BY_TENSOR`."""
    return (op.fn if op.kind == "activation" else op.kind) in BY_TENSOR


def pad_value_for(op: OpSpec) -> float:
    """Neutral fill value for out-of-feature-map patch elements."""
    if isinstance(op, FusedOp):
        op = op.primary  # the primary reads the patch; epilogues are pointwise
    if isinstance(op, Pool) and op.mode == "max":
        return -np.inf
    return 0.0


def apply_node_full(op: OpSpec, inputs: Sequence[np.ndarray], weights: dict[str, np.ndarray]) -> np.ndarray:
    """Execute ``op`` on full activations (feature-map padding applied)."""
    if isinstance(op, InputOp):
        return inputs[0] if inputs else op.spec.zeros()
    if isinstance(op, FusedOp):
        # Run the exact same kernels, in the same order, as the unfused
        # nodes would: fusion rewrites stay bit-identical by construction.
        per_stage = op.split_weights(weights)
        out = apply_node_full(op.primary, inputs, per_stage[0])
        for stage, sw in zip(op.epilogue, per_stage[1:]):
            out = apply_node_full(stage, [out], sw)
        return out
    if isinstance(op, (Conv, ConvTranspose, Dense)) and len(inputs[0]) > 1:
        # BLAS picks its GEMM kernel by shape, so a batched product is not
        # bit-identical to the same samples multiplied alone.  Every sample
        # takes the batch-1 path: outputs never depend on their batch-mates.
        x = inputs[0]
        return np.concatenate([apply_node_full(op, [x[i:i + 1]], weights) for i in range(len(x))])
    if isinstance(op, Conv):
        return conv_forward(
            inputs[0], weights["weight"], weights.get("bias"),
            stride=op.stride, padding=op.padding, dilation=op.dilation, groups=op.groups,
        )
    if isinstance(op, ConvTranspose):
        return conv_transpose_forward(
            inputs[0], weights["weight"], weights.get("bias"), stride=op.stride,
            padding=op.padding, output_padding=op.output_padding,
        )
    if isinstance(op, Pool):
        return pool_forward(inputs[0], op.kernel, op.stride, op.padding, op.mode)
    if isinstance(op, GlobalAvgPool):
        return global_avg_pool(inputs[0])
    if isinstance(op, Activation):
        return activation(inputs[0], op.fn, op.negative_slope)
    if isinstance(op, BatchNorm):
        return batchnorm_inference(inputs[0], weights["scale"], weights["shift"])
    if isinstance(op, Bias):
        return add_bias(inputs[0], weights["bias"])
    if isinstance(op, Add):
        return elementwise_add(inputs[0], inputs[1])
    if isinstance(op, Mul):
        return elementwise_mul(inputs[0], inputs[1])
    if isinstance(op, Concat):
        return np.ascontiguousarray(np.concatenate(list(inputs), axis=1))
    if isinstance(op, Flatten):
        return flatten_forward(inputs[0])
    if isinstance(op, Dense):
        return dense_forward(inputs[0], weights["weight"], weights.get("bias"))
    if isinstance(op, Softmax):
        return channel_softmax(inputs[0])
    raise UnsupportedOpError(f"no full kernel for op {op!r}")


def _per_input_offsets(
    offsets: Sequence, num_inputs: int, ndim: int
) -> list[tuple[int, ...]]:
    """Normalize ``offsets`` to one per-dim tuple per input.

    Accepts either a single per-dim tuple (applied to every input -- the
    historical calling convention) or a sequence of per-input tuples.
    """
    offsets = tuple(offsets)
    if offsets and isinstance(offsets[0], (tuple, list)):
        per_input = [tuple(int(v) for v in o) for o in offsets]
        if len(per_input) != num_inputs:
            raise UnsupportedOpError(
                f"got offsets for {len(per_input)} inputs, op has {num_inputs}"
            )
        return per_input
    one = tuple(int(v) for v in offsets) if offsets else (0,) * ndim
    return [one] * num_inputs


def _align(patch: np.ndarray, offsets: tuple[int, ...], out_spatial: tuple[int, ...]) -> np.ndarray:
    """Crop an elementwise input patch to its aligned output window."""
    if patch.shape[1:] == tuple(out_spatial) and not any(offsets):
        return patch
    crop = (slice(None),) + tuple(slice(o, o + e) for o, e in zip(offsets, out_spatial))
    return np.ascontiguousarray(patch[crop])


def apply_node_local(
    op: OpSpec,
    patches: Sequence[np.ndarray],
    weights: dict[str, np.ndarray],
    out_spatial: tuple[int, ...],
    offsets: Sequence,
) -> np.ndarray:
    """Execute ``op`` on gathered patches for one output region.

    Parameters
    ----------
    patches:
        One ``(C, *patch_spatial)`` array per op input (a single batch
        sample -- bricks belong to one sample), covering exactly the region
        the op's :meth:`rf_maps` report for the target output region
        (neutral-filled outside the feature map).
    out_spatial:
        Spatial shape of the requested output region.
    offsets:
        Offsets (from ``RFMap.local_out_offset``) at which the requested
        region starts inside the kernel's local output: either one per-dim
        tuple applied to every input, or a sequence with one per-dim tuple
        *per input* (required when inputs have differing receptive-field
        offsets, e.g. a two-input op whose inputs carry different halos).
        Zero for all stencil ops; positive for transposed convolutions.
    """
    ndim = len(out_spatial)
    if isinstance(op, FusedOp):
        # The primary consumes the gathered patches (its rf_maps sized them);
        # pointwise epilogue stages then run on its cropped local output.
        per_stage = op.split_weights(weights)
        local = apply_node_local(op.primary, patches, per_stage[0], out_spatial, offsets)
        zero = (0,) * ndim
        for stage, sw in zip(op.epilogue, per_stage[1:]):
            local = apply_node_local(stage, [local], sw, out_spatial, zero)
        return local
    per_input = _per_input_offsets(offsets, len(patches), ndim)
    patches = [p[None] for p in patches]  # kernels expect a batch axis
    # Multi-input ops combine elementwise: each patch is positioned by its
    # *own* receptive-field map, so align every input to the requested output
    # window before combining (inputs may carry different halos).
    if isinstance(op, (Add, Mul, Concat)):
        aligned = [
            _align(p[0], off, out_spatial)[None]
            for p, off in zip(patches, per_input)
        ]
        if isinstance(op, Add):
            return elementwise_add(aligned[0], aligned[1])[0]
        if isinstance(op, Mul):
            return elementwise_mul(aligned[0], aligned[1])[0]
        return np.ascontiguousarray(np.concatenate(list(aligned), axis=1))[0]

    offsets = per_input[0]
    if isinstance(op, Conv):
        local = conv_forward(
            patches[0], weights["weight"], weights.get("bias"),
            stride=op.stride, padding=0, dilation=op.dilation, groups=op.groups,
        )
    elif isinstance(op, ConvTranspose):
        local = conv_transpose_full(patches[0], weights["weight"], weights.get("bias"), stride=op.stride)
    elif isinstance(op, Pool):
        local = pool_forward(patches[0], op.kernel, op.stride, padding=0, mode=op.mode)
    elif isinstance(op, Activation):
        local = activation(patches[0], op.fn, op.negative_slope)
    elif isinstance(op, BatchNorm):
        local = batchnorm_inference(patches[0], weights["scale"], weights["shift"])
    elif isinstance(op, Bias):
        local = add_bias(patches[0], weights["bias"])
    elif isinstance(op, Softmax):
        local = channel_softmax(patches[0])
    else:
        raise UnsupportedOpError(f"op {op.kind!r} is not brick-local (global ops run un-bricked)")

    local = local[0]  # drop the batch axis again
    if local.shape[1:] == tuple(out_spatial) and not any(offsets):
        return local
    crop = (slice(None),) + tuple(
        slice(o, o + e) for o, e in zip(offsets, out_spatial)
    )
    return np.ascontiguousarray(local[crop])
