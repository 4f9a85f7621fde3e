"""Merged execution with time-skewed wavefronts (paper section 6).

The paper's discussion points at wavefront parallelization and "skewed cuts
across layers" as the next data-movement optimization beyond padded and
memoized bricks.  This module implements that extension: a third merged
execution strategy that schedules bricks on a **time-skewed wavefront**,
the classic stencil technique (Wolfe 1986; Wellein et al. 2009) adapted to
operator chains whose computation changes per layer.

For a stride-preserving chain of ``L`` layers, brick ``g`` of layer ``l``
lands on wave ``w = g_0 + l * s`` where ``g_0`` is the brick's index along
the skew dimension and the skew factor ``s`` exceeds the halo reach in
bricks.  The executor derives waves by dependency longest-path (first-layer
bricks staggered by ``g_0``, every other brick one wave after its latest
member dependency), which reproduces that static placement for stride-1
chains and stays exact for downsampling layers, where the dependency
distance grows with position and no constant skew is safe.  Either way,
every dependency lands on an earlier wave *by construction*:

* like memoized bricks, every (layer, brick) is computed exactly once --
  no redundant halo computation;
* unlike memoized bricks, the schedule is static -- **no tags, no atomic
  CAS, no recursion**; the cost moves into one device synchronization per
  wave and reduced parallelism on the skew boundary waves.

The strategy applies to *chain* subgraphs (each member consumes at most one
member; branches would need multi-dimensional skewing).  The engine falls
back to memoized bricks for non-chains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.bricked import bricked_nbytes
from repro.core.geometry import SubgraphGeometry, patch_geometry
from repro.core.handles import BrickedHandle, DenseHandle
from repro.errors import ExecutionError
from repro.graph.regions import Interval, Region
from repro.graph.traversal import SubgraphView
from repro.gpusim.device import Device
from repro.gpusim.trace import Buffer, Task, brick_token, buffer_token
from repro.kernels import apply_node_local, pad_value_for

__all__ = ["WavefrontBrickExecutor", "is_chain_subgraph", "skew_factor"]


def is_chain_subgraph(subgraph: SubgraphView) -> bool:
    """True when every member consumes at most one member (a linear chain)."""
    members = set(subgraph.node_ids)
    graph = subgraph.graph
    for nid in subgraph.node_ids:
        node = graph.node(nid)
        member_preds = [i for i in node.inputs if i in members]
        if len(member_preds) > 1:
            return False
        member_consumers = [c for c in graph.consumers(nid) if c in members]
        if len(member_consumers) > 1:
            return False
    return True


def skew_factor(subgraph: SubgraphView, brick_shape: tuple[int, ...]) -> int:
    """Skew so every layer's halo reach (in bricks, along dim 0) is covered.

    For a brick of side ``B`` and an operator whose output interval of size
    ``B`` needs ``B + 2p`` input elements, the reach is ``ceil(p / B)``
    bricks; the skew must exceed the largest per-layer reach.
    """
    graph = subgraph.graph
    reach = 0
    for nid in subgraph.node_ids:
        node = graph.node(nid)
        input_specs = [graph.node(i).spec for i in node.inputs]
        for idx in range(len(node.inputs)):
            m = node.op.rf_maps(input_specs, idx)[0]
            probe = m.in_interval(Interval(0, brick_shape[0]))
            lo_reach = max(0, -probe.lo)
            hi_reach = max(0, probe.hi - brick_shape[0])
            reach = max(reach, -(-lo_reach // brick_shape[0]), -(-hi_reach // brick_shape[0]))
    return reach + 1


@dataclass
class WavefrontBrickExecutor:
    """Executes one merged *chain* subgraph on time-skewed wavefronts."""

    subgraph: SubgraphView
    brick_shape: tuple[int, ...]
    device: Device
    entries: dict[int, BrickedHandle | DenseHandle]
    weight_buffers: dict[int, Buffer]
    functional: bool = True

    def __post_init__(self) -> None:
        if not is_chain_subgraph(self.subgraph):
            raise ExecutionError(
                f"wavefront execution requires a chain subgraph; "
                f"{self.subgraph.describe()} has branches"
            )
        for eid in self.subgraph.entry_ids:
            if eid not in self.entries:
                raise ExecutionError(f"wavefront executor missing entry handle for node {eid}")
        graph = self.subgraph.graph
        self.memo: dict[int, BrickedHandle] = {}
        for nid in self.subgraph.node_ids:
            node = graph.node(nid)
            buf = self.device.allocate(f"{node.name}/wave",
                                       bricked_nbytes(node.spec, self.brick_shape), transient=True)
            self.memo[nid] = BrickedHandle.create(node.spec, self.brick_shape, buf, self.functional)
        self.skew = skew_factor(self.subgraph, self.brick_shape)
        self.num_waves = 0
        # Per-axis geometry tables (see repro.core.geometry), shared by the
        # wave placement pass and the per-sample compute pass.
        self.geom = SubgraphGeometry(self.subgraph, self.brick_shape, self.entries)

    def run(self) -> dict[int, BrickedHandle]:
        graph = self.subgraph.graph
        batch = graph.node(self.subgraph.node_ids[0]).spec.batch

        # Wave membership by dependency longest-path: a first-layer brick
        # runs on wave ``g[0]`` (the classic stagger along the skew dim);
        # every other brick runs one wave after the latest member brick it
        # reads.  For stride-1 chains this reproduces the static
        # ``g[0] + l * skew`` placement; for downsampling layers (pooling,
        # strided convs) -- where the dependency distance grows with
        # position and *no* constant skew is safe -- it remains exact by
        # construction.
        max_wave = 0
        waves: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        wave_of: dict[tuple[int, tuple[int, ...]], int] = {}
        for nid in self.subgraph.node_ids:
            handle = self.memo[nid]
            node = graph.node(nid)
            member_pred = next((i for i in node.inputs if i in self.memo), None)
            idx = node.inputs.index(member_pred) if member_pred is not None else -1
            for gpos in handle.bricks():
                if member_pred is None:
                    w = gpos[0]
                else:
                    rows = self.geom.rows(nid, gpos)
                    dep_waves = [wave_of[(member_pred, dp)] for dp in itertools.product(
                        *[r.edges[idx].bricks for r in rows])]
                    w = max(dep_waves) + 1 if dep_waves else 0
                wave_of[(nid, gpos)] = w
                waves.setdefault(w, []).append((nid, gpos))
                max_wave = max(max_wave, w)

        for w in range(max_wave + 1):
            for nid, gpos in waves.get(w, ()):
                for n in range(batch):
                    self._compute_brick(nid, gpos, n)
            # The wave boundary is the synchronization point (in place of
            # the memoized strategy's per-brick atomics).
            self.device.synchronize()
        self.num_waves = max_wave + 1
        reg = self.device.metrics_registry
        reg.inc("wavefront_waves", self.num_waves)
        reg.gauge("wavefront_skew").set(self.skew)
        return {eid: self.memo[eid] for eid in self.subgraph.exit_ids}

    def _compute_brick(self, nid: int, gpos: tuple[int, ...], batch: int) -> None:
        graph = self.subgraph.graph
        node = graph.node(nid)
        handle = self.memo[nid]
        # Per-input needs/offsets: inputs may carry differing halos (skip
        # adds); the rows are shared with the wave-placement pass.
        rows = self.geom.rows(nid, gpos)
        size = math.prod([r.length for r in rows])
        if size == 0:
            return

        task = Task(label=f"wave/{node.name}/{gpos}", node_id=nid, strategy="wavefront",
                    brick=gpos, batch_index=batch)
        sources = [self.memo.get(pred) or self.entries[pred] for pred in node.inputs]
        for input_index, (pred, source) in enumerate(zip(node.inputs, sources)):
            if isinstance(source, BrickedHandle):
                # Producer bricks completed on earlier waves; the wave
                # schedule keeps the producing front L2-hot.  Member deps
                # deliberately carry NO acquire edges: the per-wave barrier
                # is the protocol, so a broken skew factor surfaces as a
                # happens-before race under the sanitizer.  All dep-brick
                # reads are uniform, so they go out as one batch.
                task.read_batch(
                    source.buffer,
                    source.brick_offsets(batch, [r.edges[input_index].terms for r in rows]),
                    source.brick_nbytes)
                if pred not in self.memo:
                    task.acquire(buffer_token(source.buffer))
            else:
                source.emit_region_read(task, batch, Region.trusted(
                    tuple(r.edges[input_index].need for r in rows)))
                task.acquire(buffer_token(source.buffer))
        wb = self.weight_buffers.get(nid)
        if wb is not None and wb.nbytes:
            task.read(wb, 0, wb.nbytes)
        own_offset = handle.brick_offset(batch, gpos)
        handle.emit_brick_write(task, batch, gpos)
        task.flops = self.geom.flops(nid, node.spec.channels * size)

        if self.functional:
            shape, needs, offsets = patch_geometry(rows, len(sources))
            fill = pad_value_for(node.op)
            patches = [source.gather(batch, need, fill) for source, need in zip(sources, needs)]
            values = apply_node_local(node.op, patches, node.weights, shape, offsets)
            handle.store_brick(batch, gpos, values)
        task.release(brick_token(handle.buffer, own_offset))
        task.release(buffer_token(handle.buffer))
        self.device.submit(task)
        if self.functional:
            self.device.note_values(task, nid, values)
