"""Execution plan data structures.

Compilation (static analysis) turns a :class:`~repro.graph.ir.Graph` into an
:class:`ExecutionPlan`: an ordered list of :class:`SubgraphPlan` entries,
each carrying the subgraph view, the chosen merged-execution
:class:`Strategy`, the brick shape, and the analysis artifacts
(``delta``, parallelism ``rho``) that justified the choice -- so benchmarks
and tests can interrogate *why* the model decided what it did.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from repro.gpusim.spec import GPUSpec
from repro.graph.ir import Graph
from repro.graph.traversal import SubgraphView

__all__ = ["Strategy", "SubgraphPlan", "ExecutionPlan", "adapt_sectors"]


class Strategy(enum.Enum):
    """How a subgraph is executed."""

    PADDED = "padded"        # merged execution, padded bricks (section 3.2.1)
    MEMOIZED = "memoized"    # merged execution, memoized bricks (section 3.2.2)
    WAVEFRONT = "wavefront"  # merged execution, time-skewed waves (section 6 extension)
    CUDNN = "cudnn"          # vendor-library fallback: tiny layers / global ops


@dataclass(frozen=True)
class SubgraphPlan:
    """One partition of the graph and its execution decision."""

    index: int
    subgraph: SubgraphView
    strategy: Strategy
    brick_shape: tuple[int, ...] = ()
    delta: float = 0.0            # padding data growth (drives padded/memoized)
    rho: float = 0.0              # parallelism of the brick-size model
    footprint_bytes: int = 0      # analyzed on-chip working set
    reason: str = ""              # human-readable model justification

    @property
    def is_merged(self) -> bool:
        return self.strategy in (Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT)

    def describe(self) -> str:
        names = [self.subgraph.graph.node(i).name for i in self.subgraph.node_ids]
        brick = "x".join(map(str, self.brick_shape)) if self.brick_shape else "-"
        return (
            f"subgraph {self.index}: {len(names)} ops [{names[0]} .. {names[-1]}] "
            f"-> {self.strategy.value} (brick {brick}, delta={self.delta:.1%}, "
            f"rho={self.rho:.0f}) {self.reason}"
        )


@dataclass
class ExecutionPlan:
    """The compiled plan for a whole graph."""

    graph: Graph
    subgraphs: list[SubgraphPlan] = field(default_factory=list)

    @property
    def merged_count(self) -> int:
        return sum(1 for s in self.subgraphs if s.is_merged)

    def digest(self) -> str:
        """Stable digest of the plan's decisions (not its timings).

        The same fingerprint the run manifests record, so a serving-layer
        plan-cache entry, a ``BENCH_*.json`` baseline, and a perf diff all
        talk about plans in one currency.
        """
        from repro.metrics.manifest import plan_digest

        return plan_digest(self)

    def summary(self) -> str:
        lines = [f"ExecutionPlan for {self.graph.name!r}: {len(self.subgraphs)} subgraphs "
                 f"({self.merged_count} merged)"]
        lines += ["  " + s.describe() for s in self.subgraphs]
        return "\n".join(lines)


def adapt_sectors(spec: GPUSpec, plan: ExecutionPlan) -> GPUSpec:
    """Match cache-residency tracking granularity to the brick size.

    Bricks are the unit of data movement in merged execution; tracking L2
    residency at a fraction of a brick wastes simulation time.  L1 and DRAM
    transaction counts and the modelled time do not move with the sector
    (``tests/test_bench.py`` pins that over the zoo); ``l2_txns`` does, by a
    few percent: it is charged per L1 miss, and whether a re-read inside a
    task hits L1 is judged per (adapted) L1 sector.  Compare L2 counts only
    between runs on the same spec; ``BrickDLEngine.run`` counts on this one
    when it is given no device.  Clamped so degenerate plans cannot produce
    absurd sectors.
    """
    brick_bytes = []
    for sub in plan.subgraphs:
        if not sub.is_merged:
            continue
        channels = max(sub.subgraph.graph.node(n).spec.channels for n in sub.subgraph.node_ids)
        brick_bytes.append(channels * math.prod(sub.brick_shape) * 4)
    if not brick_bytes:
        return spec
    sector = min(max(min(brick_bytes), spec.l2_sector_bytes), 256 * 1024)
    return replace(spec, l2_sector_bytes=sector, l1_sector_bytes=min(sector, 16 * 1024))
