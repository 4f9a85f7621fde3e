"""TensorFlow XLA proxy baseline (section 4.2).

Models an XLA-compiled inference executable: like the TorchScript proxy it
runs whole-layer (slab) kernels with pointwise fusion, but XLA compiles the
entire graph into one executable with far fewer host synchronization points,
so barriers are amortized over clusters of operator groups.
"""

from __future__ import annotations

from repro.baselines.conventional import ConventionalExecutor
from repro.graph.ir import Graph
from repro.gpusim.spec import A100, GPUSpec

__all__ = ["XlaBaseline"]


class XlaBaseline(ConventionalExecutor):
    """Whole-layer kernels + fusion, one barrier per 8 operator groups."""

    name = "xla"

    def __init__(self, graph: Graph, spec: GPUSpec = A100) -> None:
        super().__init__(graph, spec=spec, fuse=True, tile=None, sync_every=8)
