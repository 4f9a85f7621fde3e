"""Gradient graphs: merged execution for the backward pass.

The paper restricts BrickDL to inference and points at training as the
extension ("merged execution can be extended to enable fine-grained hybrid
model parallelism for distributed DNN *training*", section 5.2).  The key
observation making that extension almost free in this codebase: **the
input-gradient (VJP) of every mergeable operator is itself a mergeable
operator**:

| forward | backward (w.r.t. input) |
|---|---|
| ``Conv(W)`` | ``ConvTranspose(W)`` (same weights, swapped in/out channels) |
| ``ConvTranspose(W)`` | ``Conv(W)`` |
| ``BatchNorm(scale, shift)`` | ``BatchNorm(scale, 0)`` |
| ``Bias`` | identity |
| ``relu`` / ``leaky_relu`` | ``Mul`` by the activation mask (a graph input) |
| ``Add`` | gradient fan-out (re-joined with ``Add`` at fan-in points) |
| ``AvgPool`` | ``ConvTranspose`` with the uniform kernel / k |
| ``Mul`` (by a constant-input mask) | ``Mul`` by the same mask |

:func:`build_input_gradient_graph` therefore emits an ordinary
:class:`~repro.graph.ir.Graph` -- which the partitioner, the performance
models, padded/memoized/wavefront executors, the baselines, and the
distributed runner all execute unchanged.  Backward graphs are chains of
transposed convolutions, precisely the operator mix DeepCAM's decoder
exercises in the forward direction.

Scope: operators whose VJP needs data-dependent state beyond an activation
mask (max pooling's argmax, softmax's Jacobian) and the global classifier
heads are out of scope -- gradient graphs are built for convolutional
trunks, the part of the network where merged execution matters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, UnsupportedOpError
from repro.graph.ir import Graph, Node
from repro.graph.ops import (
    Activation,
    Add,
    BatchNorm,
    Bias,
    Conv,
    ConvTranspose,
    Mul,
    Pool,
)

__all__ = ["build_input_gradient_graph", "gradient_feeds", "activation_mask"]


def activation_mask(op: Activation, pre_activation: np.ndarray) -> np.ndarray:
    """The elementwise derivative of an activation at ``pre_activation``."""
    if op.fn == "relu":
        return (pre_activation > 0).astype(pre_activation.dtype)
    if op.fn == "leaky_relu":
        slope = pre_activation.dtype.type(op.negative_slope)
        return np.where(pre_activation > 0, pre_activation.dtype.type(1.0), slope)
    raise UnsupportedOpError(f"no activation mask for {op.fn!r} (relu family only)")


def _conv_vjp_weights(node: Node) -> dict[str, np.ndarray]:
    """Conv weights reinterpreted for the transposed (gradient) direction.

    ``ConvTranspose`` stores weights as ``(C_in, C_out, *K)``; the VJP of a
    conv with weights ``(O, C, *K)`` is a transposed conv using the *same*
    array read as ``(C_in=O, C_out=C, *K)`` -- no flip, no copy.
    """
    return {"weight": node.weights["weight"]}


def _convtranspose_vjp_weights(node: Node) -> dict[str, np.ndarray]:
    w = node.weights["weight"]  # (C_in, C_out, *K)
    # VJP is a plain conv with weights (O=C_in, C=C_out, *K), kernel flipped
    # twice = unflipped: conv_forward correlates, conv_transpose_full flips,
    # so the round trip uses the raw array with axes 0,1 kept.
    return {"weight": w}


def build_input_gradient_graph(graph: Graph) -> Graph:
    """The VJP graph: d(first output)/d(input) contracted with an upstream grad.

    Inputs of the returned graph:

    * ``grad/<output>`` -- the upstream gradient (same spec as the forward
      output),
    * ``mask/<node>`` -- one activation-derivative mask per relu-family node
      (produce them from the forward run with :func:`gradient_feeds`).

    Output: ``grad/<input>`` with the forward input's spec.
    """
    graph.validate()
    graph.init_weights()
    out_node = graph.output_nodes[0]
    in_node = graph.input_nodes[0]

    bwd = Graph(f"{graph.name}/grad")
    upstream = bwd.input(out_node.spec, name=f"grad/{out_node.name}")

    # Accumulated gradient per forward node (built walking the forward graph
    # in reverse; fan-out joins via Add).
    grads: dict[int, Node] = {out_node.node_id: upstream}

    def accumulate(nid: int, g: Node) -> None:
        if nid in grads:
            grads[nid] = bwd.add(Add(), [grads[nid], g],
                                 name=f"gsum/{graph.node(nid).name}/{g.node_id}")
        else:
            grads[nid] = g

    for node in reversed(graph.nodes):
        if node.is_input or node.node_id not in grads:
            continue
        g = grads[node.node_id]
        op = node.op
        if isinstance(op, Conv):
            if op.groups != 1:
                raise UnsupportedOpError("grouped-conv gradients not supported")
            in_spec = graph.node(node.inputs[0]).spec
            out_pad = tuple(
                xin - ((xout - 1) * st + k - 2 * pd)
                for xin, xout, st, k, pd in zip(in_spec.spatial, node.spec.spatial,
                                                op.stride, op.kernel, op.padding)
            )
            vjp = bwd.add(
                ConvTranspose(out_channels=node.weights["weight"].shape[1],
                              kernel=op.kernel, stride=op.stride, padding=op.padding,
                              bias=False, output_padding=out_pad),
                [g], name=f"g/{node.name}")
            if max(op.dilation) > 1:
                raise UnsupportedOpError("dilated-conv gradients not supported")
            vjp.weights = _conv_vjp_weights(node)
            accumulate(node.inputs[0], vjp)
        elif isinstance(op, ConvTranspose):
            vjp = bwd.add(
                Conv(out_channels=node.weights["weight"].shape[0], kernel=op.kernel,
                     stride=op.stride, padding=op.padding, bias=False),
                [g], name=f"g/{node.name}")
            vjp.weights = _convtranspose_vjp_weights(node)
            accumulate(node.inputs[0], vjp)
        elif isinstance(op, BatchNorm):
            vjp = bwd.add(BatchNorm(), [g], name=f"g/{node.name}")
            scale = node.weights["scale"]
            vjp.weights = {"scale": scale, "shift": np.zeros_like(scale)}
            accumulate(node.inputs[0], vjp)
        elif isinstance(op, Bias):
            accumulate(node.inputs[0], g)
        elif isinstance(op, Activation):
            if op.fn not in ("relu", "leaky_relu"):
                raise UnsupportedOpError(f"gradient of activation {op.fn!r} not supported")
            pred_spec = graph.node(node.inputs[0]).spec
            mask = bwd.input(pred_spec, name=f"mask/{node.name}")
            vjp = bwd.add(Mul(), [g, mask], name=f"g/{node.name}")
            accumulate(node.inputs[0], vjp)
        elif isinstance(op, Add):
            for pred in node.inputs:
                accumulate(pred, g)
        elif isinstance(op, Mul):
            # Supported when one operand is a graph input (a mask): the
            # gradient w.r.t. the other operand multiplies by it.
            preds = [graph.node(i) for i in node.inputs]
            data_preds = [p for p in preds if not p.is_input]
            if len(data_preds) != 1:
                raise UnsupportedOpError("Mul gradients need exactly one non-input operand")
            mask_pred = next(p for p in preds if p.is_input)
            mask = bwd.input(mask_pred.spec, name=f"mask/{node.name}")
            vjp = bwd.add(Mul(), [g, mask], name=f"g/{node.name}")
            accumulate(data_preds[0].node_id, vjp)
        elif isinstance(op, Pool):
            if op.mode != "avg":
                raise UnsupportedOpError("max-pool gradients need argmax state (unsupported)")
            k = op.kernel
            in_spec = graph.node(node.inputs[0]).spec
            out_pad = tuple(
                xin - ((xout - 1) * st + kk - 2 * pd)
                for xin, xout, st, kk, pd in zip(in_spec.spatial, node.spec.spatial,
                                                 op.stride, k, op.padding)
            )
            vjp = bwd.add(
                ConvTranspose(out_channels=node.spec.channels, kernel=k,
                              stride=op.stride, padding=op.padding, bias=False,
                              output_padding=out_pad),
                [g], name=f"g/{node.name}")
            c = node.spec.channels
            w = np.zeros((c, c) + tuple(k), np.float32)
            uniform = 1.0 / float(np.prod(k))
            for ch in range(c):
                w[ch, ch] = uniform
            vjp.weights = {"weight": w}
            accumulate(node.inputs[0], vjp)
        else:
            raise UnsupportedOpError(
                f"no VJP for {op.kind!r}; gradient graphs cover convolutional trunks"
            )

    if in_node.node_id not in grads:
        raise GraphError("the forward input does not influence the requested output")
    bwd.mark_output(grads[in_node.node_id])
    bwd.validate()
    return bwd


def gradient_feeds(graph: Graph, forward_values: dict[str, np.ndarray],
                   upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Assemble the backward graph's input dict from a forward run.

    ``forward_values`` is :meth:`ReferenceExecutor.run_all` output (or any
    executor's full activation map)."""
    out_node = graph.output_nodes[0]
    feeds: dict[str, np.ndarray] = {f"grad/{out_node.name}": upstream}
    for node in graph.nodes:
        if isinstance(node.op, Activation) and node.op.fn in ("relu", "leaky_relu"):
            pre = forward_values[graph.node(node.inputs[0]).name]
            feeds[f"mask/{node.name}"] = activation_mask(node.op, pre)
    return feeds
