"""Operator specifications for the DNN graph IR.

Each operator is described by an :class:`OpSpec` subclass that knows how to:

* infer its output :class:`~repro.graph.tensorspec.TensorSpec` from inputs,
* report its receptive-field maps (:mod:`repro.graph.regions`) per spatial
  dimension and per input -- the geometric contract BrickDL's merged
  execution relies on (section 3.2: ops whose input block of size ``X`` maps
  to output ``alpha X + beta`` are mergeable),
* count floating-point operations per output element (feeds the compute-time
  model of section 4.3.2),
* initialize deterministic inference weights, and
* classify itself for the partitioner: ``is_local`` (mergeable),
  ``is_reduction`` (preferred subgraph tail, e.g. pooling), ``is_global``
  (forces a subgraph boundary), ``is_pointwise`` (cuDNN-fusable with a
  preceding conv).

Operators are *stateless descriptions*; weight arrays live on graph nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, TypeVar

import numpy as np

from repro.errors import ShapeError
from repro.graph.regions import GlobalMap, IdentityMap, RFMap, StencilMap, TransposedMap
from repro.graph.tensorspec import TensorSpec

__all__ = [
    "OpSpec",
    "InputOp",
    "Conv",
    "ConvTranspose",
    "Pool",
    "GlobalAvgPool",
    "Activation",
    "BatchNorm",
    "Bias",
    "Add",
    "Mul",
    "Concat",
    "Flatten",
    "Dense",
    "Softmax",
    "FusedOp",
    "normalize_tuple",
]

#: A ``node.weights`` value: an array, or a description of one not yet drawn
#: (:class:`repro.graph.ir.WeightDesc`) -- regrouping never looks inside.
_W = TypeVar("_W")


def normalize_tuple(value: int | Sequence[int], ndim: int, name: str) -> tuple[int, ...]:
    """Broadcast a scalar hyper-parameter to one value per spatial dim."""
    if isinstance(value, int):
        return (value,) * ndim
    t = tuple(int(v) for v in value)
    if len(t) != ndim:
        raise ShapeError(f"{name} has {len(t)} entries for {ndim} spatial dims")
    return t


@dataclass(frozen=True)
class OpSpec:
    """Base class for operator specifications."""

    @property
    def kind(self) -> str:
        return type(self).__name__.lower()

    @property
    def arity(self) -> int:
        return 1

    # -- classification ----------------------------------------------------
    @property
    def is_local(self) -> bool:
        """True when the op satisfies the paper's ``alpha X + beta`` block
        contract and can participate in merged execution."""
        return True

    @property
    def is_reduction(self) -> bool:
        """True for spatially reducing ops (pooling) -- the partitioner
        prefers to *end* subgraphs on these (section 3.3.1)."""
        return False

    @property
    def is_global(self) -> bool:
        """True for ops needing the full activation (global pooling, dense,
        softmax): they terminate a subgraph and run un-bricked."""
        return False

    @property
    def is_pointwise(self) -> bool:
        """True for elementwise ops a cuDNN engine can fuse onto a conv."""
        return False

    # -- geometry / cost ---------------------------------------------------
    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        raise NotImplementedError

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        """Receptive-field map per spatial dimension, for ``input_index``."""
        spec = inputs[input_index]
        return tuple(IdentityMap() for _ in spec.spatial)

    def flops(self, inputs: Sequence[TensorSpec], out_elements: int) -> int:
        """Floating point operations to produce ``out_elements`` outputs."""
        return out_elements * self.flops_per_element(inputs)

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 1

    def weight_bytes(self, inputs: Sequence[TensorSpec]) -> int:
        # Analytic: profile-mode runs size weight buffers without paying for
        # RNG materialization.  All weights are float32 (4 bytes).
        return sum(4 * math.prod(s) for s in self.weight_shapes(inputs).values())

    def weight_shapes(self, inputs: Sequence[TensorSpec]) -> dict[str, tuple[int, ...]]:
        """Shapes of the op's weights (empty for weightless ops).  Must agree
        with :meth:`init_weights`; ``tests/test_ops.py`` pins the pairing."""
        return {}

    def init_weights(self, inputs: Sequence[TensorSpec], rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Deterministic inference weights (empty for weightless ops)."""
        return {}

    def _check_arity(self, inputs: Sequence[TensorSpec]) -> None:
        if len(inputs) != self.arity:
            raise ShapeError(f"{self.kind} expects {self.arity} inputs, got {len(inputs)}")


@dataclass(frozen=True)
class InputOp(OpSpec):
    """Graph source placeholder carrying the input activation spec."""

    spec: TensorSpec

    @property
    def arity(self) -> int:
        return 0

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        if inputs:
            raise ShapeError("InputOp takes no inputs")
        return self.spec

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 0


@dataclass(frozen=True)
class Conv(OpSpec):
    """N-dimensional convolution (2-D or 3-D, strided/dilated/grouped).

    ``groups == in_channels == out_channels`` expresses a depthwise conv.
    Padding is symmetric zero padding per spatial dim.
    """

    out_channels: int
    kernel: tuple[int, ...]
    stride: tuple[int, ...] | int = 1
    padding: tuple[int, ...] | int = 0
    dilation: tuple[int, ...] | int = 1
    groups: int = 1
    bias: bool = True

    def __post_init__(self) -> None:
        k = tuple(int(v) for v in (self.kernel if not isinstance(self.kernel, int) else (self.kernel,)))
        object.__setattr__(self, "kernel", k)
        nd = len(k)
        object.__setattr__(self, "stride", normalize_tuple(self.stride, nd, "stride"))
        object.__setattr__(self, "padding", normalize_tuple(self.padding, nd, "padding"))
        object.__setattr__(self, "dilation", normalize_tuple(self.dilation, nd, "dilation"))
        if self.out_channels < 1 or self.groups < 1:
            raise ShapeError(f"invalid conv: {self}")
        if self.out_channels % self.groups:
            raise ShapeError(f"out_channels {self.out_channels} not divisible by groups {self.groups}")

    @property
    def spatial_ndim(self) -> int:
        return len(self.kernel)

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        x = inputs[0]
        if x.spatial_ndim != self.spatial_ndim:
            raise ShapeError(f"conv kernel rank {self.spatial_ndim} vs activation rank {x.spatial_ndim}")
        if x.channels % self.groups:
            raise ShapeError(f"in_channels {x.channels} not divisible by groups {self.groups}")
        maps = self.rf_maps(inputs)
        spatial = tuple(m.out_extent(e) for m, e in zip(maps, x.spatial))
        return TensorSpec(x.batch, self.out_channels, spatial, x.dtype)

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        return tuple(
            StencilMap(stride=s, padding=p, k_eff=(k - 1) * d + 1)
            for k, s, p, d in zip(self.kernel, self.stride, self.padding, self.dilation)
        )

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        cin_per_group = inputs[0].channels // self.groups
        return 2 * cin_per_group * math.prod(self.kernel)

    def weight_shapes(self, inputs: Sequence[TensorSpec]) -> dict[str, tuple[int, ...]]:
        cin_per_group = inputs[0].channels // self.groups
        shapes = {"weight": (self.out_channels, cin_per_group, *self.kernel)}
        if self.bias:
            shapes["bias"] = (self.out_channels,)
        return shapes

    def init_weights(self, inputs: Sequence[TensorSpec], rng: np.random.Generator) -> dict[str, np.ndarray]:
        cin_per_group = inputs[0].channels // self.groups
        fan_in = cin_per_group * math.prod(self.kernel)
        w = rng.standard_normal((self.out_channels, cin_per_group, *self.kernel)).astype(np.float32)
        w /= math.sqrt(fan_in)
        out = {"weight": w}
        if self.bias:
            out["bias"] = (rng.standard_normal(self.out_channels) * 0.01).astype(np.float32)
        return out


@dataclass(frozen=True)
class ConvTranspose(OpSpec):
    """Transposed ("de-") convolution, used by DeepCAM's decoder."""

    out_channels: int
    kernel: tuple[int, ...]
    stride: tuple[int, ...] | int = 1
    padding: tuple[int, ...] | int = 0
    bias: bool = True
    output_padding: tuple[int, ...] | int = 0

    def __post_init__(self) -> None:
        k = tuple(int(v) for v in (self.kernel if not isinstance(self.kernel, int) else (self.kernel,)))
        object.__setattr__(self, "kernel", k)
        nd = len(k)
        object.__setattr__(self, "stride", normalize_tuple(self.stride, nd, "stride"))
        object.__setattr__(self, "padding", normalize_tuple(self.padding, nd, "padding"))
        object.__setattr__(self, "output_padding", normalize_tuple(self.output_padding, nd, "output_padding"))
        if self.out_channels < 1:
            raise ShapeError(f"invalid conv transpose: {self}")

    @property
    def spatial_ndim(self) -> int:
        return len(self.kernel)

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        x = inputs[0]
        if x.spatial_ndim != self.spatial_ndim:
            raise ShapeError("conv transpose rank mismatch")
        maps = self.rf_maps(inputs)
        spatial = tuple(m.out_extent(e) for m, e in zip(maps, x.spatial))
        return TensorSpec(x.batch, self.out_channels, spatial, x.dtype)

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        return tuple(
            TransposedMap(stride=s, padding=p, kernel=k, output_padding=op)
            for k, s, p, op in zip(self.kernel, self.stride, self.padding, self.output_padding)
        )

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        # Each output element accumulates ~ Cin * prod(k)/prod(s) taps.
        taps = max(1, math.prod(self.kernel) // math.prod(self.stride))
        return 2 * inputs[0].channels * taps

    def weight_shapes(self, inputs: Sequence[TensorSpec]) -> dict[str, tuple[int, ...]]:
        shapes = {"weight": (inputs[0].channels, self.out_channels, *self.kernel)}
        if self.bias:
            shapes["bias"] = (self.out_channels,)
        return shapes

    def init_weights(self, inputs: Sequence[TensorSpec], rng: np.random.Generator) -> dict[str, np.ndarray]:
        cin = inputs[0].channels
        fan_in = cin * math.prod(self.kernel)
        w = rng.standard_normal((cin, self.out_channels, *self.kernel)).astype(np.float32)
        w /= math.sqrt(fan_in)
        out = {"weight": w}
        if self.bias:
            out["bias"] = (rng.standard_normal(self.out_channels) * 0.01).astype(np.float32)
        return out


@dataclass(frozen=True)
class Pool(OpSpec):
    """Max or average pooling over spatial windows."""

    kernel: tuple[int, ...]
    stride: tuple[int, ...] | int | None = None
    padding: tuple[int, ...] | int = 0
    mode: str = "max"

    def __post_init__(self) -> None:
        k = tuple(int(v) for v in (self.kernel if not isinstance(self.kernel, int) else (self.kernel,)))
        object.__setattr__(self, "kernel", k)
        nd = len(k)
        stride = self.stride if self.stride is not None else k
        object.__setattr__(self, "stride", normalize_tuple(stride, nd, "stride"))
        object.__setattr__(self, "padding", normalize_tuple(self.padding, nd, "padding"))
        if self.mode not in ("max", "avg"):
            raise ShapeError(f"pool mode must be 'max' or 'avg', got {self.mode!r}")

    @property
    def is_reduction(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        x = inputs[0]
        if x.spatial_ndim != len(self.kernel):
            raise ShapeError("pool rank mismatch")
        maps = self.rf_maps(inputs)
        spatial = tuple(m.out_extent(e) for m, e in zip(maps, x.spatial))
        return TensorSpec(x.batch, x.channels, spatial, x.dtype)

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        return tuple(
            StencilMap(stride=s, padding=p, k_eff=k)
            for k, s, p in zip(self.kernel, self.stride, self.padding)
        )

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return math.prod(self.kernel)


@dataclass(frozen=True)
class GlobalAvgPool(OpSpec):
    """Global average pooling: collapses all spatial dims to 1 each.

    Requires the whole activation, so it is a *global* op that ends a
    BrickDL subgraph (section 3.3.1)."""

    @property
    def is_global(self) -> bool:
        return True

    @property
    def is_reduction(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        x = inputs[0]
        return TensorSpec(x.batch, x.channels, (1,) * x.spatial_ndim, x.dtype)

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        return tuple(GlobalMap(extent=e) for e in inputs[input_index].spatial)

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return math.prod(inputs[0].spatial)


@dataclass(frozen=True)
class Activation(OpSpec):
    """Pointwise non-linearity: relu / leaky_relu / sigmoid / tanh."""

    fn: str = "relu"
    negative_slope: float = 0.1

    _FNS = ("relu", "leaky_relu", "sigmoid", "tanh")

    def __post_init__(self) -> None:
        if self.fn not in self._FNS:
            raise ShapeError(f"unknown activation {self.fn!r}; choose from {self._FNS}")

    @property
    def is_pointwise(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        return inputs[0]

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 1 if self.fn in ("relu", "leaky_relu") else 4


@dataclass(frozen=True)
class BatchNorm(OpSpec):
    """Inference batch normalization: a per-channel affine ``scale*x + shift``.

    At inference time the running statistics are folded into two vectors, so
    the op is pointwise and mergeable; the *training*-time global reduction is
    out of scope (the paper targets inference)."""

    eps: float = 1e-5

    @property
    def is_pointwise(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        return inputs[0]

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 2

    def weight_shapes(self, inputs: Sequence[TensorSpec]) -> dict[str, tuple[int, ...]]:
        c = inputs[0].channels
        return {"scale": (c,), "shift": (c,)}

    def init_weights(self, inputs: Sequence[TensorSpec], rng: np.random.Generator) -> dict[str, np.ndarray]:
        c = inputs[0].channels
        return {
            "scale": (1.0 + 0.05 * rng.standard_normal(c)).astype(np.float32),
            "shift": (0.05 * rng.standard_normal(c)).astype(np.float32),
        }


@dataclass(frozen=True)
class Bias(OpSpec):
    """Standalone per-channel bias addition (used when folding fusions)."""

    @property
    def is_pointwise(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        return inputs[0]

    def weight_shapes(self, inputs: Sequence[TensorSpec]) -> dict[str, tuple[int, ...]]:
        return {"bias": (inputs[0].channels,)}

    def init_weights(self, inputs: Sequence[TensorSpec], rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {"bias": (rng.standard_normal(inputs[0].channels) * 0.01).astype(np.float32)}


@dataclass(frozen=True)
class Add(OpSpec):
    """Elementwise addition of two same-shaped activations (residual skip)."""

    @property
    def arity(self) -> int:
        return 2

    @property
    def is_pointwise(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        a, b = inputs
        if a.shape != b.shape:
            raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
        return a

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        return tuple(IdentityMap() for _ in inputs[input_index].spatial)


@dataclass(frozen=True)
class Mul(OpSpec):
    """Elementwise product of two same-shaped activations.

    Used by gradient graphs (activation-function VJPs multiply the upstream
    gradient by a mask) and by gating architectures."""

    @property
    def arity(self) -> int:
        return 2

    @property
    def is_pointwise(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        a, b = inputs
        if a.shape != b.shape:
            raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
        return a

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        return tuple(IdentityMap() for _ in inputs[input_index].spatial)


@dataclass(frozen=True)
class Concat(OpSpec):
    """Channel-dimension concatenation of ``n`` activations (Inception)."""

    num_inputs: int = 2

    @property
    def arity(self) -> int:
        return self.num_inputs

    @property
    def is_pointwise(self) -> bool:
        return False

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        first = inputs[0]
        for other in inputs[1:]:
            if other.batch != first.batch or other.spatial != first.spatial:
                raise ShapeError(f"concat spatial mismatch: {first} vs {other}")
        channels = sum(t.channels for t in inputs)
        return TensorSpec(first.batch, channels, first.spatial, first.dtype)

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        return tuple(IdentityMap() for _ in inputs[input_index].spatial)

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 0


@dataclass(frozen=True)
class Flatten(OpSpec):
    """Collapse channel and spatial dims into a feature vector."""

    @property
    def is_global(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        x = inputs[0]
        return TensorSpec(x.batch, x.channels * math.prod(x.spatial) if x.spatial else x.channels, (), x.dtype)

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 0


@dataclass(frozen=True)
class Dense(OpSpec):
    """Fully-connected layer on flattened features (classifier heads)."""

    out_features: int
    bias: bool = True

    @property
    def is_global(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        x = inputs[0]
        if x.spatial:
            raise ShapeError("Dense expects a flattened activation; insert Flatten first")
        return TensorSpec(x.batch, self.out_features, (), x.dtype)

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 2 * inputs[0].channels

    def weight_shapes(self, inputs: Sequence[TensorSpec]) -> dict[str, tuple[int, ...]]:
        shapes = {"weight": (self.out_features, inputs[0].channels)}
        if self.bias:
            shapes["bias"] = (self.out_features,)
        return shapes

    def init_weights(self, inputs: Sequence[TensorSpec], rng: np.random.Generator) -> dict[str, np.ndarray]:
        cin = inputs[0].channels
        w = (rng.standard_normal((self.out_features, cin)) / math.sqrt(cin)).astype(np.float32)
        out = {"weight": w}
        if self.bias:
            out["bias"] = (rng.standard_normal(self.out_features) * 0.01).astype(np.float32)
        return out


@dataclass(frozen=True)
class Softmax(OpSpec):
    """Softmax over the channel dimension (classifier output).

    Channel-wise softmax does not couple spatial positions, so it is local in
    the blocked (spatial) dimensions; BrickDL never blocks channels."""

    @property
    def is_pointwise(self) -> bool:
        return True

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        self._check_arity(inputs)
        return inputs[0]

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        return 5


@dataclass(frozen=True)
class FusedOp(OpSpec):
    """A primary operator with a chain of fused pointwise epilogue stages.

    ``FusedOp(conv, (bn, relu))`` computes ``relu(bn(conv(x)))`` as one graph
    node by running the *exact same kernels in the same order* as the unfused
    nodes would -- so fusion rewrites built on it are bit-identical by
    construction (no weight re-association, which float32 arithmetic would
    not preserve).  Classification, receptive-field geometry and arity all
    delegate to the primary: epilogue stages are arity-1 pointwise, so they
    change neither shapes nor the ``alpha X + beta`` block contract.

    Weights of all stages live in the host node's single weight dict: the
    primary's keys are unprefixed, epilogue stage ``i`` keys are prefixed
    ``fused{i}.`` (a dot, never a slash -- node names contain slashes and the
    NPZ sidecar keys split on the last one).
    """

    primary: OpSpec
    epilogue: tuple[OpSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "epilogue", tuple(self.epilogue))
        if isinstance(self.primary, (InputOp, FusedOp)):
            raise ShapeError(f"FusedOp primary cannot be {self.primary.kind}")
        if self.primary.is_global:
            raise ShapeError("FusedOp primary must not be a global op")
        if not self.epilogue:
            raise ShapeError("FusedOp needs at least one epilogue stage")
        for stage in self.epilogue:
            if isinstance(stage, FusedOp):
                raise ShapeError("FusedOp stages cannot nest")
            if stage.arity != 1 or not stage.is_pointwise:
                raise ShapeError(
                    f"FusedOp epilogue stage {stage.kind} must be arity-1 pointwise")

    @property
    def kind(self) -> str:
        return "fused[" + "+".join(s.kind for s in self.stages) + "]"

    @property
    def stages(self) -> tuple[OpSpec, ...]:
        return (self.primary, *self.epilogue)

    @property
    def arity(self) -> int:
        return self.primary.arity

    @property
    def is_local(self) -> bool:
        return self.primary.is_local

    @property
    def is_reduction(self) -> bool:
        return self.primary.is_reduction

    @property
    def is_pointwise(self) -> bool:
        return self.primary.is_pointwise

    def infer(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        spec = self.primary.infer(inputs)
        for stage in self.epilogue:
            spec = stage.infer([spec])
        return spec

    def rf_maps(self, inputs: Sequence[TensorSpec], input_index: int = 0) -> tuple[RFMap, ...]:
        # Epilogue stages are pointwise (identity maps), so the fused node's
        # geometry is exactly the primary's.
        return self.primary.rf_maps(inputs, input_index)

    def _stage_inputs(self, inputs: Sequence[TensorSpec]) -> list[list[TensorSpec]]:
        """Input specs seen by each stage, in order."""
        per_stage = [list(inputs)]
        spec = self.primary.infer(inputs)
        for stage in self.epilogue:
            per_stage.append([spec])
            spec = stage.infer([spec])
        return per_stage

    def flops_per_element(self, inputs: Sequence[TensorSpec]) -> int:
        # Epilogue outputs have as many elements as the primary's output
        # (pointwise), so per-element costs sum.
        return sum(stage.flops_per_element(ins)
                   for stage, ins in zip(self.stages, self._stage_inputs(inputs)))

    @staticmethod
    def stage_prefix(stage_index: int) -> str:
        """Weight-key prefix of stage ``stage_index`` (0 = primary: none)."""
        return "" if stage_index == 0 else f"fused{stage_index - 1}."

    def weight_shapes(self, inputs: Sequence[TensorSpec]) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for i, (stage, ins) in enumerate(zip(self.stages, self._stage_inputs(inputs))):
            prefix = self.stage_prefix(i)
            for key, shape in stage.weight_shapes(ins).items():
                shapes[prefix + key] = shape
        return shapes

    def init_weights(self, inputs: Sequence[TensorSpec], rng: np.random.Generator) -> dict[str, np.ndarray]:
        weights: dict[str, np.ndarray] = {}
        for i, (stage, ins) in enumerate(zip(self.stages, self._stage_inputs(inputs))):
            prefix = self.stage_prefix(i)
            for key, value in stage.init_weights(ins, rng).items():
                weights[prefix + key] = value
        return weights

    def split_weights(self, weights: Mapping[str, _W]) -> list[dict[str, _W]]:
        """Partition a fused weight dict into one dict per stage."""
        per_stage: list[dict[str, _W]] = [{} for _ in self.stages]
        for key, value in weights.items():
            for i in range(len(self.epilogue), 0, -1):
                prefix = self.stage_prefix(i)
                if key.startswith(prefix):
                    per_stage[i][key[len(prefix):]] = value
                    break
            else:
                per_stage[0][key] = value
        return per_stage

    @staticmethod
    def join_weights(stage_weights: Sequence[Mapping[str, _W]]) -> dict[str, _W]:
        """Inverse of :meth:`split_weights`: prefix and merge per-stage dicts."""
        joined: dict[str, _W] = {}
        for i, stage in enumerate(stage_weights):
            prefix = FusedOp.stage_prefix(i)
            for key, value in stage.items():
                joined[prefix + key] = value
        return joined
