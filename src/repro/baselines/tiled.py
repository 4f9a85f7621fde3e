"""Tiled execution of fusion groups on conventional row-major activations.

This is the machinery behind the paper's cuDNN baseline ("a set of C++
benchmarks implemented with tiled cuDNN API calls", section 4.2) and behind
the whole-layer kernels of the TorchScript/XLA proxies (slab tiles spanning
the SMs).  It is also reused by the BrickDL engine as the vendor-library
fallback for tiny layers and global operators (section 3.3.3).

Every tile is one task: it reads its (halo-enlarged) input region from the
producer's dense buffer with strided row-major accesses -- the address-stream
cost the brick layout exists to avoid -- reads the group's weights, and
writes its output tile.  Values (the baselines' and the engine's
``values()``) are computed once per group at full-tensor granularity
(identical math, the tiling only affects the access stream).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.baselines.fusion import FusionGroup
from repro.core.handles import DenseHandle
from repro.errors import ExecutionError
from repro.graph.ir import Graph, Node
from repro.graph.regions import Interval, Region
from repro.gpusim.device import Device
from repro.gpusim.trace import Buffer, Task, buffer_token
from repro.kernels import apply_node_full

__all__ = ["spatial_tiles", "slab_tiles", "run_group", "run_group_tiled", "run_group_global",
           "compute_group_values", "bind_input", "allocate_weights"]


def bind_input(node: Node, inputs: Mapping[str, np.ndarray] | np.ndarray | None) -> np.ndarray:
    """The array a functional run feeds graph input ``node``."""
    if inputs is None:
        raise ExecutionError("functional run requires input arrays")
    arr = inputs if isinstance(inputs, np.ndarray) else inputs[node.name]
    arr = np.asarray(arr, dtype=node.spec.dtype)
    if arr.shape != node.spec.shape:
        raise ExecutionError(f"input {node.name!r}: expected {node.spec.shape}, got {arr.shape}")
    return arr


def allocate_weights(device: Device, graph: Graph) -> dict[int, Buffer]:
    """One device buffer per node that carries weights."""
    buffers = {}
    for node in graph.nodes:
        if node.is_input:
            continue
        input_specs = [graph.node(i).spec for i in node.inputs]
        nbytes = node.op.weight_bytes(input_specs)
        if nbytes:
            buffers[node.node_id] = device.allocate(f"{graph.name}/{node.name}/w", nbytes)
    return buffers


def tile_axes(extents: tuple[int, ...], tile: tuple[int, ...]) -> list[list[Interval]]:
    """Per axis, the tile intervals covering the extent: the tiles of a layer
    are their product."""
    return [[Interval(s, min(s + t, e)) for s in range(0, e, t)]
            for e, t in zip(extents, tile)]


def spatial_tiles(extents: tuple[int, ...], tile: tuple[int, ...]) -> Iterator[Region]:
    """Row-major enumeration of tile regions covering ``extents``."""
    return map(Region, itertools.product(*tile_axes(extents, tile)))


def adaptive_tile(extents: tuple[int, ...], base_tile: int, num_sms: int) -> tuple[int, ...]:
    """A tile sized to saturate the device: shrink the nominal tile until the
    grid offers at least ~2 thread blocks per SM (or the tile bottoms out)."""
    tile = base_tile
    while tile > 4:
        count = math.prod(-(-e // min(tile, e)) for e in extents)
        if count >= 2 * num_sms:
            break
        tile //= 2
    return tuple(min(tile, e) for e in extents)


def adaptive_tiles(extents: tuple[int, ...], base_tile: int, num_sms: int) -> Iterator[Region]:
    """Row-major tile regions of the :func:`adaptive_tile` grid."""
    return spatial_tiles(extents, adaptive_tile(extents, base_tile, num_sms))


def slab_tiles(extents: tuple[int, ...], num_slabs: int) -> Iterator[Region]:
    """Whole-layer kernels: split the first spatial dim into SM-wide slabs."""
    first = extents[0]
    slabs = min(num_slabs, first)
    step = -(-first // slabs)
    for lo in range(0, first, step):
        yield Region.from_bounds(
            [lo] + [0] * (len(extents) - 1),
            [min(lo + step, first)] + list(extents[1:]),
        )


def compute_group_values(
    graph: Graph, group: FusionGroup, values: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Full-tensor numerical result of a fusion group."""
    local: dict[int, np.ndarray] = dict(values)
    out = None
    for node in group.nodes:
        args = [local[i] for i in node.inputs]
        out = apply_node_full(node.op, args, node.weights)
        local[node.node_id] = out
    if out is None:
        raise ExecutionError(f"empty fusion group {group.describe()}")
    return out


def group_flops_per_out_element(graph: Graph, group: FusionGroup) -> float:
    total = 0.0
    for node in group.nodes:
        input_specs = [graph.node(i).spec for i in node.inputs]
        total += node.op.flops_per_element(input_specs)
    return total


def run_group_tiled(
    device: Device,
    graph: Graph,
    group: FusionGroup,
    handles: Mapping[int, DenseHandle],
    out_handle: DenseHandle,
    tiles: Iterator[Region],
    weight_buffers: Mapping[int, Buffer],
    label: str = "tile",
) -> int:
    """Emit one task per tile for a fusion group; returns the task count.

    ``handles`` maps producer node ids (outside the group) to their dense
    handles; ``out_handle`` receives the group output.
    """
    out_node = group.output
    primary = group.primary
    primary_specs = [graph.node(i).spec for i in primary.inputs]
    fpe = group_flops_per_out_element(graph, group)
    batch = out_node.spec.batch
    group_ids = {n.node_id for n in group.nodes}

    count = 0
    for region in tiles:
        for n in range(batch):
            task = Task(label=f"{label}/{out_node.name}/{tuple(iv.lo for iv in region)}",
                        node_id=out_node.node_id)
            # Primary inputs: halo-enlarged regions.  Each input handle's
            # whole-buffer token records the kernel-launch ordering against
            # the producing (possibly un-barriered) conversion kernel.
            for input_index, pred in enumerate(primary.inputs):
                maps = primary.op.rf_maps(primary_specs, input_index)
                need = Region(m.in_interval(iv) for m, iv in zip(maps, region))
                handles[pred].emit_region_read(task, n, need)
                task.acquire(buffer_token(handles[pred].buffer))
            # Side inputs of fused followers (residual adds): same tile region.
            for fnode in group.fused:
                for pred in fnode.inputs:
                    if pred not in group_ids:
                        handles[pred].emit_region_read(task, n, region)
                        task.acquire(buffer_token(handles[pred].buffer))
            for node in group.nodes:
                wb = weight_buffers.get(node.node_id)
                if wb is not None and wb.nbytes:
                    task.read(wb, 0, wb.nbytes)
            out_handle.emit_region_write(task, n, region)
            task.release(buffer_token(out_handle.buffer))
            task.flops = fpe * out_node.spec.channels * region.size
            device.submit(task)
            count += 1
    return count


def run_group_global(
    device: Device,
    graph: Graph,
    group: FusionGroup,
    handles: Mapping[int, DenseHandle],
    out_handle: DenseHandle,
    weight_buffers: Mapping[int, Buffer],
    label: str = "global",
) -> int:
    """One whole-tensor task for a global (un-tiled) group."""
    out_node = group.output
    task = Task(label=f"{label}/{out_node.name}", node_id=out_node.node_id)
    group_ids = {n.node_id for n in group.nodes}
    for node in group.nodes:
        for pred in node.inputs:
            if pred not in group_ids:
                handles[pred].emit_full_read(task)
                task.acquire(buffer_token(handles[pred].buffer))
        wb = weight_buffers.get(node.node_id)
        if wb is not None and wb.nbytes:
            task.read(wb, 0, wb.nbytes)
    out_handle.emit_full_write(task)
    task.release(buffer_token(out_handle.buffer))
    fpe = group_flops_per_out_element(graph, group)
    task.flops = fpe * out_node.spec.num_elements
    device.submit(task)
    return 1


def run_group(device: Device, graph: Graph, group: FusionGroup, handles: Mapping[int, DenseHandle],
              out_handle: DenseHandle, tiles: Callable[[tuple[int, ...]], Iterator[Region]],
              weight_buffers: Mapping[int, Buffer], label: str) -> int:
    """Run a fusion group the vendor-library way: one whole-tensor task for
    a global op (or an output without spatial dims), else one task per tile
    of ``tiles(output extents)``."""
    if group.primary.op.is_global or not out_handle.spec.spatial:
        return run_group_global(device, graph, group, handles, out_handle, weight_buffers, label)
    return run_group_tiled(device, graph, group, handles, out_handle,
                           tiles(out_handle.spec.spatial), weight_buffers, label)
