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

from repro.core.bricktask import BrickTasks, member_deps
from repro.core.geometry import SubgraphGeometry
from repro.core.handles import BrickedHandle
from repro.errors import ExecutionError
from repro.graph.regions import Interval
from repro.graph.traversal import SubgraphView

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
    geom = SubgraphGeometry(subgraph)
    reach = 0
    for nid in subgraph.node_ids:
        for maps in geom.rf_maps(nid):
            probe = maps[0].in_interval(Interval(0, brick_shape[0]))
            lo_reach = max(0, -probe.lo)
            hi_reach = max(0, probe.hi - brick_shape[0])
            reach = max(reach, -(-lo_reach // brick_shape[0]), -(-hi_reach // brick_shape[0]))
    return reach + 1


class WavefrontBrickExecutor(BrickTasks):
    """Executes one merged *chain* subgraph on time-skewed wavefronts."""

    strategy = "wavefront"

    def __post_init__(self) -> None:
        if not is_chain_subgraph(self.subgraph):
            raise ExecutionError(
                f"wavefront execution requires a chain subgraph; "
                f"{self.subgraph.describe()} has branches"
            )
        super().__post_init__()
        self.memo = self.stored
        self.skew = skew_factor(self.subgraph, self.brick_shape)
        self.num_waves = 0

    def run(self) -> dict[int, BrickedHandle]:
        # Wave membership by dependency longest-path: a first-layer brick
        # runs on wave ``g[0]`` (the classic stagger along the skew dim);
        # every other brick runs one wave after the latest member brick it
        # reads.  For stride-1 chains this reproduces the static
        # ``g[0] + l * skew`` placement; for downsampling layers (pooling,
        # strided convs) -- where the dependency distance grows with
        # position and *no* constant skew is safe -- it remains exact by
        # construction.
        waves: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        wave_of: dict[tuple[int, tuple[int, ...]], int] = {}
        for nid, handle in self.memo.items():
            first_layer = not any(i in self.memo for i in self.graph.node(nid).inputs)
            for gpos in handle.bricks():
                if first_layer:
                    w = gpos[0]
                else:
                    w = max((wave_of[dep[:2]] + 1
                             for dep in member_deps(self.geom, nid, gpos)), default=0)
                wave_of[(nid, gpos)] = w
                waves.setdefault(w, []).append((nid, gpos))

        self.num_waves = max(waves) + 1
        for w in range(self.num_waves):
            for nid, gpos in waves.get(w, ()):
                for n in range(self.batch):
                    # Producer bricks completed on earlier waves and the wave
                    # schedule keeps the producing front L2-hot.  The task
                    # acquires NO member bricks: the per-wave barrier is the
                    # protocol, so a broken placement surfaces as a
                    # happens-before race under the sanitizer.
                    self.emit(nid, gpos, n)
            # The wave boundary is the synchronization point (in place of
            # the memoized strategy's per-brick atomics).
            self.device.synchronize()
        reg = self.device.metrics_registry
        reg.inc("wavefront_waves", self.num_waves)
        reg.gauge("wavefront_skew").set(self.skew)
        return {eid: self.memo[eid] for eid in self.subgraph.exit_ids}
