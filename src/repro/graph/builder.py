"""Fluent construction API for DNN graphs.

:class:`GraphBuilder` wraps a :class:`~repro.graph.ir.Graph` with chainable
helpers for the operator vocabulary the model zoo needs, so model definitions
read like framework code::

    b = GraphBuilder("tiny", TensorSpec(1, 3, (32, 32)))
    x = b.conv(16, 3, padding=1, name="stem")
    x = b.relu()
    x = b.maxpool(2)
    b.classifier(10)

Helpers thread a "current" node so single-chain segments need no explicit
wiring; branching models pass nodes explicitly.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import GraphError
from repro.graph.ir import Graph, Node
from repro.graph.ops import (
    Activation,
    Add,
    BatchNorm,
    Concat,
    Conv,
    ConvTranspose,
    Dense,
    Flatten,
    GlobalAvgPool,
    Pool,
    Softmax,
)
from repro.graph.tensorspec import TensorSpec

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Chainable builder over a :class:`Graph` with an implicit cursor."""

    def __init__(self, name: str, input_spec: TensorSpec, input_name: str = "input") -> None:
        self.graph = Graph(name)
        self._cursor: Node = self.graph.input(input_spec, name=input_name)
        self._ndim = input_spec.spatial_ndim

    @property
    def current(self) -> Node:
        """The most recently produced node (the implicit chain cursor)."""
        return self._cursor

    def _src(self, src: Node | None) -> Node:
        return src if src is not None else self._cursor

    def _emit(self, op, inputs: Sequence[Node], name: str | None) -> Node:
        self._cursor = self.graph.add(op, inputs, name=name)
        return self._cursor

    # -- convolution family -------------------------------------------------
    def conv(self, out_channels: int, kernel: int | Sequence[int], stride: int | Sequence[int] = 1,
             padding: int | Sequence[int] | str = 0, dilation: int | Sequence[int] = 1,
             groups: int = 1, bias: bool = True, src: Node | None = None, name: str | None = None) -> Node:
        k = (kernel,) * self._ndim if isinstance(kernel, int) else tuple(kernel)
        if padding == "same":
            d = (dilation,) * self._ndim if isinstance(dilation, int) else tuple(dilation)
            padding = tuple(((kk - 1) * dd) // 2 for kk, dd in zip(k, d))
        op = Conv(out_channels=out_channels, kernel=k, stride=stride, padding=padding,
                  dilation=dilation, groups=groups, bias=bias)
        return self._emit(op, [self._src(src)], name)

    def deconv(self, out_channels: int, kernel: int | Sequence[int], stride: int | Sequence[int] = 1,
               padding: int | Sequence[int] = 0, bias: bool = True,
               src: Node | None = None, name: str | None = None) -> Node:
        k = (kernel,) * self._ndim if isinstance(kernel, int) else tuple(kernel)
        op = ConvTranspose(out_channels=out_channels, kernel=k, stride=stride, padding=padding, bias=bias)
        return self._emit(op, [self._src(src)], name)

    # -- pooling --------------------------------------------------------------
    def maxpool(self, kernel: int | Sequence[int], stride: int | Sequence[int] | None = None,
                padding: int | Sequence[int] = 0, src: Node | None = None, name: str | None = None) -> Node:
        k = (kernel,) * self._ndim if isinstance(kernel, int) else tuple(kernel)
        return self._emit(Pool(kernel=k, stride=stride, padding=padding, mode="max"), [self._src(src)], name)

    def avgpool(self, kernel: int | Sequence[int], stride: int | Sequence[int] | None = None,
                padding: int | Sequence[int] = 0, src: Node | None = None, name: str | None = None) -> Node:
        k = (kernel,) * self._ndim if isinstance(kernel, int) else tuple(kernel)
        return self._emit(Pool(kernel=k, stride=stride, padding=padding, mode="avg"), [self._src(src)], name)

    def global_avgpool(self, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(GlobalAvgPool(), [self._src(src)], name)

    # -- pointwise ------------------------------------------------------------
    def relu(self, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(Activation("relu"), [self._src(src)], name)

    def leaky_relu(self, slope: float = 0.1, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(Activation("leaky_relu", negative_slope=slope), [self._src(src)], name)

    def sigmoid(self, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(Activation("sigmoid"), [self._src(src)], name)

    def batchnorm(self, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(BatchNorm(), [self._src(src)], name)

    def add(self, a: Node, b: Node, name: str | None = None) -> Node:
        return self._emit(Add(), [a, b], name)

    def concat(self, branches: Sequence[Node], name: str | None = None) -> Node:
        if len(branches) < 2:
            raise GraphError("concat needs at least two branches")
        return self._emit(Concat(num_inputs=len(branches)), list(branches), name)

    def softmax(self, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(Softmax(), [self._src(src)], name)

    # -- heads ---------------------------------------------------------------
    def flatten(self, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(Flatten(), [self._src(src)], name)

    def dense(self, out_features: int, src: Node | None = None, name: str | None = None) -> Node:
        return self._emit(Dense(out_features=out_features), [self._src(src)], name)

    def classifier(self, num_classes: int, src: Node | None = None, prefix: str = "head") -> Node:
        """Standard global-pool -> flatten -> dense -> softmax head."""
        x = self.global_avgpool(src=src, name=f"{prefix}/gap")
        x = self.flatten(src=x, name=f"{prefix}/flatten")
        x = self.dense(num_classes, src=x, name=f"{prefix}/fc")
        x = self.softmax(src=x, name=f"{prefix}/softmax")
        self.graph.mark_output(x)
        return x

    # -- composites ------------------------------------------------------------
    def conv_bn_relu(self, out_channels: int, kernel: int | Sequence[int], stride: int | Sequence[int] = 1,
                     padding: int | Sequence[int] | str = "same", dilation: int | Sequence[int] = 1,
                     groups: int = 1, src: Node | None = None, prefix: str | None = None) -> Node:
        """The ubiquitous conv + batchnorm + relu block (bias folded by BN)."""
        prefix = prefix or f"cbr_{len(self.graph)}"
        x = self.conv(out_channels, kernel, stride=stride, padding=padding, dilation=dilation,
                      groups=groups, bias=False, src=src, name=f"{prefix}/conv")
        x = self.batchnorm(src=x, name=f"{prefix}/bn")
        return self.relu(src=x, name=f"{prefix}/relu")

    def finish(self, output: Node | None = None) -> Graph:
        """Mark the output (default: cursor), validate and return the graph."""
        self.graph.mark_output(output if output is not None else self._cursor)
        self.graph.validate()
        return self.graph
