"""Shared runner for conventional (row-major, layer-by-layer) baselines.

All three baselines of section 4.2 execute the same fusion-grouped graph
layer by layer on dense row-major activations; they differ only in kernel
granularity (small tiles vs SM-wide slabs), fusion, and synchronization
cadence.  :class:`ConventionalExecutor` factors that shape; the concrete
baselines are thin configurations of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.baselines.fusion import fuse_graph
from repro.baselines.tiled import (
    adaptive_tiles,
    allocate_weights,
    bind_input,
    compute_group_values,
    run_group,
    slab_tiles,
)
from repro.core.handles import DenseHandle
from repro.graph.ir import Graph
from repro.graph.regions import Region
from repro.gpusim.device import Device, RunMetrics
from repro.gpusim.spec import A100, GPUSpec

__all__ = ["BaselineResult", "ConventionalExecutor"]

TilePolicy = Callable[[tuple[int, ...], GPUSpec], Iterator[Region]]


@dataclass
class BaselineResult:
    """Simulator metrics of one baseline run."""

    name: str
    metrics: RunMetrics
    num_groups: int

    @property
    def total_time(self) -> float:
        return self.metrics.total_time


class ConventionalExecutor:
    """Layer-by-layer executor over dense activations.

    Parameters
    ----------
    graph:
        The model to execute.
    spec:
        Simulated device.
    fuse:
        Enable conv+pointwise operator fusion (all paper baselines have it).
    tile:
        Spatial tile side for compute kernels; ``None`` selects SM-wide
        slabs (whole-layer kernels).
    sync_every:
        Device synchronization cadence in fusion groups (1 = barrier after
        every operator group, like sequential cuDNN calls).
    """

    name = "conventional"

    def __init__(
        self,
        graph: Graph,
        spec: GPUSpec = A100,
        fuse: bool = True,
        tile: int | None = 32,
        sync_every: int = 1,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.spec = spec
        self.tile = tile
        self.sync_every = max(1, sync_every)
        self.groups = fuse_graph(graph, enabled=fuse)

    def _tiles(self, extents: tuple[int, ...]) -> Iterator[Region]:
        if self.tile is None:
            return slab_tiles(extents, self.spec.num_sms)
        return adaptive_tiles(extents, self.tile, self.spec.num_sms)

    def values(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> dict[str, np.ndarray]:
        """The graph outputs, with no device: group by group at full-tensor
        granularity (tiling shapes the access stream, not the math)."""
        graph = self.graph
        graph.init_weights()
        values = {node.node_id: bind_input(node, inputs) for node in graph.input_nodes}
        for group in self.groups:
            # Fused intermediates are never materialized; the fusion rule
            # guarantees they have no consumers outside the group.
            values[group.output.node_id] = compute_group_values(graph, group, values)
        return {n.name: values[n.node_id] for n in graph.output_nodes}

    def run(self, device: Device | None = None) -> BaselineResult:
        """The counted group loop on ``device`` (a fresh one if None); it
        computes no value (:meth:`values` does)."""
        graph = self.graph
        device = device if device is not None else Device(self.spec)

        handles: dict[int, DenseHandle] = {}
        for node in graph.input_nodes:
            buf = device.allocate(f"{graph.name}/{node.name}", node.spec.nbytes)
            handles[node.node_id] = DenseHandle(node.spec, buf)

        weight_buffers = allocate_weights(device, graph)

        for gi, group in enumerate(self.groups):
            out_node = group.output
            out_buf = device.allocate(f"{graph.name}/{out_node.name}", out_node.spec.nbytes)
            out_handle = DenseHandle(out_node.spec, out_buf)

            for node in group.nodes:
                wb = weight_buffers.get(node.node_id)
                if wb is not None:
                    device.memory.pin(wb)

            run_group(device, graph, group, handles, out_handle, self._tiles, weight_buffers,
                      label=self.name)

            for node in group.nodes:
                wb = weight_buffers.get(node.node_id)
                if wb is not None:
                    device.memory.unpin(wb)

            for node in group.nodes:
                handles[node.node_id] = out_handle  # fused nodes alias the output
            if (gi + 1) % self.sync_every == 0 or gi == len(self.groups) - 1:
                device.synchronize()

        return BaselineResult(name=self.name, metrics=device.finish(), num_groups=len(self.groups))
