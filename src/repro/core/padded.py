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

from repro.core.bricktask import BrickTasks
from repro.core.handles import BrickedHandle
from repro.graph.regions import Region
from repro.gpusim.trace import Buffer

__all__ = ["PaddedBrickExecutor"]


class PaddedBrickExecutor(BrickTasks):
    """Executes one merged subgraph with the padded-bricks strategy."""

    strategy = "padded"

    def run(self) -> dict[int, BrickedHandle]:
        scratch, slots = self._allocate_scratch()
        task_index = 0
        for exit_id, handle in self.stored.items():
            for grid_pos in handle.bricks():
                for n in range(self.batch):
                    worker = task_index % self.device.spec.num_sms
                    self.emit_fused(exit_id, grid_pos, n, scratch[worker], slots, worker)
                    task_index += 1
        reg = self.device.metrics_registry
        reg.inc("padded_compute_elems", self.compute_elems)
        reg.inc("padded_entry_read_bytes", self.entry_read_bytes)
        # One reduction/synchronization closes the subgraph (Fig. 3(b)).
        self.device.synchronize()
        return self.stored

    def _allocate_scratch(self) -> tuple[list[Buffer], dict[int, int]]:
        """Per-worker scratch buffers and the byte slot of each member node
        in them, sized for the largest (interior) patch that node computes."""
        graph, geom = self.graph, self.geom
        # Probe an interior exit brick to size the per-node patches.
        exit_id = self.subgraph.exit_ids[-1]
        grid = geom.grid(exit_id)
        center = tuple(g // 2 for g in grid.grid_shape)
        required = geom.required(exit_id, grid.brick_region(center))
        slots: dict[int, int] = {}
        cursor = 0
        for nid in self.subgraph.node_ids:
            spec = graph.node(nid).spec
            patch_bytes = spec.channels * required.get(nid, Region.from_extents(self.brick_shape)).size * spec.itemsize
            slots[nid] = cursor
            cursor += max(patch_bytes, 1)
        return [self.device.allocate(f"{graph.name}/padded-scratch-{w}", cursor, transient=True)
                for w in range(self.device.spec.num_sms)], slots
