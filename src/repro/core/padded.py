"""Merged execution with padded bricks (section 3.2.1).

One task per (batch sample, exit brick): a single virtual thread block
computes the *entire* merged chain for its brick, working on halo-enlarged
patches at every layer (Fig. 2(c)).  The halo data is *copied* from
neighboring bricks of the entry activations (``gather``), and the enlarged
intermediate patches are recomputed privately -- redundant flops, but zero
inter-block synchronization until the reduction at the subgraph boundary.

The emitted access stream is:

* whole-brick reads of every entry brick overlapping the enlarged region,
* one pinned read of each member operator's weights,
* write+read pairs against a per-worker scratch buffer for the intermediate
  patches (thread-block private: hits L1 while patches are small, spills to
  L2 for deep merges -- the emergent cost that makes over-deep merging lose,
  Fig. 10),
* one contiguous write of the produced exit brick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.bricked import bricked_nbytes, extract_patch
from repro.core.geometry import SubgraphGeometry, patch_geometry
from repro.core.handles import BrickedHandle, DenseHandle
from repro.errors import ExecutionError
from repro.graph.regions import Interval, Region
from repro.graph.traversal import SubgraphView
from repro.gpusim.device import Device
from repro.gpusim.trace import Buffer, Task, brick_token, buffer_token
from repro.kernels import apply_node_local, pad_value_for

__all__ = ["PaddedBrickExecutor"]


@dataclass
class PaddedBrickExecutor:
    """Executes one merged subgraph with the padded-bricks strategy."""

    subgraph: SubgraphView
    brick_shape: tuple[int, ...]
    device: Device
    entries: dict[int, BrickedHandle | DenseHandle]
    weight_buffers: dict[int, Buffer]
    functional: bool = True

    def __post_init__(self) -> None:
        # Per-axis closure tables (see repro.core.geometry): the reverse halo
        # traversal and the per-layer receptive-field resolution run once
        # per (exit, axis, grid index); a brick task looks its rows up.
        self.geom = SubgraphGeometry(self.subgraph, self.brick_shape, self.entries)
        self._members = set(self.subgraph.node_ids)

    def run(self) -> dict[int, BrickedHandle]:
        graph = self.subgraph.graph
        for eid in self.subgraph.entry_ids:
            if eid not in self.entries:
                raise ExecutionError(f"padded executor missing entry handle for node {eid}")

        exits: dict[int, BrickedHandle] = {}
        for enode in self.subgraph.exits:
            buf = self.device.allocate(f"{enode.name}/bricked",
                                       bricked_nbytes(enode.spec, self.brick_shape), transient=True)
            exits[enode.node_id] = BrickedHandle.create(enode.spec, self.brick_shape, buf, self.functional)

        scratch = self._allocate_scratch()
        batch = graph.node(self.subgraph.node_ids[0]).spec.batch

        # Redundancy accounting for the registry: elements computed on
        # enlarged patches (vs the exact output volume) and halo bytes
        # gathered from entry bricks -- the paper's delta in measured form.
        self._compute_elems = 0
        self._entry_read_bytes = 0
        task_index = 0
        for exit_id, handle in exits.items():
            for grid_pos in handle.bricks():
                for n in range(batch):
                    worker = task_index % self.device.spec.num_sms
                    self._run_brick(exit_id, handle, grid_pos, n, scratch[worker], worker)
                    task_index += 1
        reg = self.device.metrics_registry
        reg.inc("padded_compute_elems", self._compute_elems)
        reg.inc("padded_entry_read_bytes", self._entry_read_bytes)
        # One reduction/synchronization closes the subgraph (Fig. 3(b)).
        self.device.synchronize()
        return exits

    # -- internals -------------------------------------------------------------
    def _allocate_scratch(self) -> list[tuple[Buffer, dict[int, int]]]:
        """Per-worker scratch: one slot per member node, sized for the
        largest (interior) patch that node ever computes."""
        graph = self.subgraph.graph
        # Probe an interior exit brick to size the per-node patches.
        exit_id = self.subgraph.exit_ids[-1]
        grid = self.geom.grid(exit_id)
        center = tuple(g // 2 for g in grid.grid_shape)
        required = self.geom.required(exit_id, grid.brick_region(center))
        offsets: dict[int, int] = {}
        cursor = 0
        for nid in self.subgraph.node_ids:
            spec = graph.node(nid).spec
            patch_bytes = spec.channels * required.get(nid, Region.from_extents(self.brick_shape)).size * spec.itemsize
            offsets[nid] = cursor
            cursor += max(patch_bytes, 1)
        scratch = []
        for w in range(self.device.spec.num_sms):
            buf = self.device.allocate(f"{graph.name}/padded-scratch-{w}", cursor, transient=True)
            scratch.append((buf, offsets))
        return scratch

    def _run_brick(
        self,
        exit_id: int,
        exit_handle: BrickedHandle,
        grid_pos: tuple[int, ...],
        batch: int,
        scratch: tuple[Buffer, dict[int, int]],
        worker: int | None = None,
    ) -> None:
        graph = self.subgraph.graph
        members = self._members
        rows = self.geom.closure_rows(exit_id, grid_pos)

        task = Task(label=f"padded/{graph.node(exit_id).name}/{grid_pos}",
                    node_id=exit_id, strategy="padded", worker=worker,
                    brick=grid_pos, batch_index=batch)
        scratch_buf, slots = scratch
        # Private patches (functional mode): each covers its node's required
        # interval clipped to the feature map, so it starts at ``origin``.
        values: dict[int, np.ndarray] = {}
        origin: dict[int, list[int]] = {}

        # Entry reads: whole overlapping bricks (halo copies).
        for eid in rows[0].entries:
            edges = [r.entries[eid] for r in rows]
            handle = self.entries[eid]
            if isinstance(handle, BrickedHandle):
                task.read_batch(handle.buffer,
                                handle.brick_offsets(batch, [e.terms for e in edges]),
                                handle.brick_nbytes)
            else:
                handle.emit_region_read(task, batch, Region.trusted(tuple(e.need for e in edges)))
            task.acquire(buffer_token(handle.buffer))
            espec = handle.spec
            self._entry_read_bytes += (espec.channels * math.prod([e.length for e in edges])
                                       * espec.itemsize)
            if self.functional:
                origin[eid] = [max(e.need.lo, 0) for e in edges]
                values[eid] = handle.gather(batch, [
                    Interval(lo, lo + e.length) for lo, e in zip(origin[eid], edges)])

        calls = 0
        for nid in rows[0].members:
            axis = [r.members[nid] for r in rows]
            size = math.prod([a.length for a in axis])
            if size == 0:
                continue
            node = graph.node(nid)
            spec = node.spec
            for input_index, pred in enumerate(node.inputs):
                # Intermediate patches are thread-block private (registers /
                # shared memory / L1): they never travel below the SM, but
                # their volume shows up in the L1 (global) transaction count
                # -- the paper's padded-brick overfetch.
                if pred in members:
                    pred_spec = graph.node(pred).spec
                    nbytes = (pred_spec.channels * pred_spec.itemsize
                              * math.prod([a.edges[input_index].length for a in axis]))
                    task.read(scratch_buf, slots[pred], min(nbytes, scratch_buf.nbytes - slots[pred]),
                              on_chip=True)

            wb = self.weight_buffers.get(nid)
            if wb is not None and wb.nbytes:
                task.read(wb, 0, wb.nbytes)

            out_bytes = spec.channels * size * spec.itemsize
            if nid == exit_id:
                exit_handle.emit_brick_write(task, batch, grid_pos)
            else:
                task.write(scratch_buf, slots[nid], min(out_bytes, scratch_buf.nbytes - slots[nid]),
                           on_chip=True)
            task.flops += self.geom.flops(nid, spec.channels * size)
            self._compute_elems += spec.channels * size
            calls += 1

            if self.functional:
                shape, needs, offsets = patch_geometry(axis, len(node.inputs))
                fill = pad_value_for(node.op)
                patches = [extract_patch(values[pred], origin[pred], need, fill)
                           for need, pred in zip(needs, node.inputs)]
                values[nid] = apply_node_local(
                    node.op, patches, node.weights, shape, offsets or (0,) * len(shape))
                origin[nid] = [a.out.lo for a in axis]

        task.calls = max(calls, 1)
        # Exits other than `exit_id` are materialized by their own brick loops.
        if self.functional and exit_id in values:
            exit_handle.store_brick(batch, grid_pos, values[exit_id])
        task.release(brick_token(exit_handle.buffer,
                                 exit_handle.brick_offset(batch, grid_pos)))
        task.release(buffer_token(exit_handle.buffer))
        self.device.submit(task)
        if self.functional:
            for nid in self.subgraph.node_ids:
                if nid in values:
                    self.device.note_values(task, nid, values[nid])
