"""BrickDL core: the paper's contribution.

* :mod:`repro.core.bricked` / :mod:`repro.core.handles` -- the brick data
  layout (sections 3.1, 3.3.4): the brick grid, and the bricked buffers the
  simulator addresses, stored row-major,
* :mod:`repro.core.halo` -- static halo analysis (section 3.2.1),
* :mod:`repro.core.bricktask` -- what a brick task reads, writes and
  synchronizes with under every merged schedule (section 3.2), and the one
  schedule-free values pass of a merged subgraph (one whole-tensor kernel
  call per member),
* :mod:`repro.core.padded` / :mod:`repro.core.memoized` -- the two merged
  execution strategies (sections 3.2.1-3.2.2), as schedules over it,
* :mod:`repro.core.partition` -- DNN graph partitioning (section 3.3.1),
* :mod:`repro.core.perfmodel` -- strategy / brick-size performance models
  (sections 3.3.2-3.3.3),
* :mod:`repro.core.wavefront` -- time-skewed wavefront execution (the
  section-6 extension),
* :mod:`repro.core.tuner` -- empirical per-subgraph tuning vs the models,
* :mod:`repro.core.engine` -- the user-facing BrickDL engine,
* :mod:`repro.core.reference` -- naive layer-by-layer ground truth.
"""

from repro.core.bricked import BrickGrid
from repro.core.engine import BrickDLEngine, EngineResult
from repro.core.partition import partition_graph
from repro.core.perfmodel import PerfModelConfig, choose_brick_size, choose_strategy
from repro.core.plan import ExecutionPlan, Strategy, SubgraphPlan
from repro.core.reference import ReferenceExecutor
from repro.core.tuner import tune_plan

__all__ = [
    "BrickGrid",
    "BrickDLEngine",
    "EngineResult",
    "partition_graph",
    "PerfModelConfig",
    "choose_brick_size",
    "choose_strategy",
    "ExecutionPlan",
    "SubgraphPlan",
    "Strategy",
    "ReferenceExecutor",
    "tune_plan",
]
