"""Distributed merged execution over spatially partitioned activations.

Each of ``num_ranks`` simulated GPUs owns a contiguous slab of the first
spatial dimension.  Execution proceeds subgraph by subgraph (the same
partitioning the single-GPU engine uses):

1. the composed receptive field of the whole subgraph (the padded-brick
   static analysis of section 3.2.1) determines how many halo rows each
   rank needs beyond its slab;
2. ranks exchange exactly those rows (one neighbor-exchange step per
   subgraph per entry activation) through the
   :class:`~repro.distributed.comm.CommModel`;
3. each rank computes its output slab locally -- including the redundant
   halo recomputation, exactly like one giant padded brick.  That is a cost
   of the schedule, not a different value: the run only counts each rank's
   flops, and the outputs come from the engine's one value producer,
   :meth:`~repro.core.engine.BrickDLEngine.values`, of which a rank's slab
   is a slice.

Merging more layers per subgraph therefore trades *more* halo volume and
redundant compute per exchange for *fewer* exchanges -- the
communication-avoiding tradeoff the paper's section 5.2 points at.

The runner supports graphs whose operators are all mergeable
(``op.is_local``): convolutional trunks, stencil chains, multigrid cycles.
Classifier heads (global ops) belong on a single device after a gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.geometry import SubgraphGeometry
from repro.core.partition import partition_graph
from repro.core.perfmodel import DEFAULT_CONFIG, PerfModelConfig
from repro.distributed.comm import CommCounters, CommModel
from repro.errors import ExecutionError
from repro.graph.ir import Graph
from repro.graph.regions import Region
from repro.gpusim.spec import A100, GPUSpec

__all__ = ["DistributedRunner", "DistributedResult"]


@dataclass
class DistributedResult:
    """Cost summary of one distributed run."""

    comm: CommCounters
    compute_time_s: float
    num_ranks: int
    num_subgraphs: int
    halo_rows_exchanged: int
    per_rank_flops: list[float] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return self.compute_time_s + self.comm.time_s

    @property
    def load_imbalance(self) -> float:
        if not self.per_rank_flops or max(self.per_rank_flops) == 0:
            return 0.0
        return max(self.per_rank_flops) / (sum(self.per_rank_flops) / len(self.per_rank_flops)) - 1.0


def _partition_rows(extent: int, num_ranks: int) -> list[tuple[int, int]]:
    """Contiguous near-equal row ranges, one per rank."""
    base, extra = divmod(extent, num_ranks)
    bounds = []
    lo = 0
    for r in range(num_ranks):
        hi = lo + base + (1 if r < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class DistributedRunner:
    """Run a mergeable graph across ``num_ranks`` simulated GPUs."""

    def __init__(
        self,
        graph: Graph,
        num_ranks: int,
        spec: GPUSpec = A100,
        config: PerfModelConfig = DEFAULT_CONFIG,
        comm: CommModel | None = None,
        layer_schedule: tuple[int, ...] | None = None,
        registry=None,
    ) -> None:
        graph.validate()
        for node in graph.nodes:
            if node.is_input:
                continue
            if node.op.is_global or not node.op.is_local:
                raise ExecutionError(
                    f"distributed execution requires mergeable ops; {node.name!r} "
                    f"({node.op.kind}) is global -- gather to one rank for heads"
                )
        if num_ranks < 1:
            raise ExecutionError("num_ranks must be >= 1")
        min_extent = min(n.spec.spatial[0] for n in graph.nodes if n.spec.spatial)
        if num_ranks > min_extent:
            raise ExecutionError(
                f"num_ranks={num_ranks} exceeds the smallest activation extent {min_extent}"
            )
        self.graph = graph
        self.num_ranks = num_ranks
        self.spec = spec
        self.config = config
        self.comm = comm if comm is not None else CommModel()
        # Halo-exchange metrics: an explicitly passed registry wins; a comm
        # model that already carries one keeps it.
        if registry is not None:
            self.comm.registry = registry
            registry.set_base(model=graph.name)
        self.subgraphs = partition_graph(graph, spec, config, layer_schedule)

    # -- execution ---------------------------------------------------------
    def run(self) -> DistributedResult:
        """Count the halo exchanges and per-rank compute of every subgraph."""
        graph = self.graph
        compute_time = 0.0
        halo_rows_total = 0
        per_rank_flops = [0.0] * self.num_ranks

        for view in self.subgraphs:
            geom = SubgraphGeometry(view)
            step_flops = [0.0] * self.num_ranks
            messages: list[int] = []
            for exit_id in view.exit_ids:
                exit_node = graph.node(exit_id)
                rows = _partition_rows(exit_node.spec.spatial[0], self.num_ranks)
                for rank, (olo, ohi) in enumerate(rows):
                    out_region = Region.from_bounds(
                        [olo] + [0] * (exit_node.spec.spatial_ndim - 1),
                        [ohi] + list(exit_node.spec.spatial[1:]),
                    )
                    halo_rows, msg_sizes, flops = self._rank_compute(geom, exit_id, rank, out_region)
                    halo_rows_total += halo_rows
                    messages.extend(msg_sizes)
                    step_flops[rank] += flops
            # One neighbor-exchange step per subgraph (all entry halos move
            # together), then all ranks compute; the step cost is the max.
            self.comm.exchange_step(messages)
            compute_time += max(
                self.spec.task_time(f) if f else 0.0 for f in step_flops
            )
            for r in range(self.num_ranks):
                per_rank_flops[r] += step_flops[r]

        return DistributedResult(
            comm=self.comm.counters,
            compute_time_s=compute_time,
            num_ranks=self.num_ranks,
            num_subgraphs=len(self.subgraphs),
            halo_rows_exchanged=halo_rows_total,
            per_rank_flops=per_rank_flops,
        )

    # -- per-rank subgraph costs ---------------------------------------------
    def _rank_compute(self, geom, exit_id, rank, out_region):
        """Count one rank's work on its output slab of one subgraph exit:
        the halo rows it receives, one message per contributing neighbor and
        direction, and the flops of every member over its (clipped) required
        region -- halo recompute included, like one giant padded brick.

        Returns ``(halo_rows, message_sizes, flops)``.
        """
        graph = self.graph
        view = geom.subgraph
        required = geom.required(exit_id, out_region)
        halo_rows = 0
        msg_sizes: list[int] = []
        flops = 0.0
        # Entry halos: rows needed beyond this rank's slab of each entry.
        for eid in view.entry_ids:
            if eid not in required:
                continue
            spec = graph.node(eid).spec
            need = required[eid].clip(spec.spatial)
            rank_rows = _partition_rows(spec.spatial[0], self.num_ranks)
            olo, ohi = rank_rows[rank]
            lo_halo = max(0, olo - need[0].lo)
            hi_halo = max(0, need[0].hi - ohi)
            halo_rows += lo_halo + hi_halo
            row_bytes = spec.batch * spec.channels * math.prod(spec.spatial[1:]) * spec.itemsize
            # A message per contributing neighbor per direction.
            for direction, width in ((-1, lo_halo), (+1, hi_halo)):
                remaining, neighbor = width, rank + direction
                while remaining > 0 and 0 <= neighbor < self.num_ranks:
                    nlo, nhi = rank_rows[neighbor]
                    take = min(remaining, nhi - nlo)
                    msg_sizes.append(take * row_bytes)
                    remaining -= take
                    neighbor += direction

        for nid in view.node_ids:
            if nid not in required:
                continue
            spec = graph.node(nid).spec
            region = required[nid].clip(spec.spatial)
            if not region.is_empty():
                flops += geom.flops(nid, spec.channels * region.size)
        return halo_rows, msg_sizes, flops
