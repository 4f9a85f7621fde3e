"""Device timing model: tasks + counters -> the paper's time breakdown.

The paper's case studies (Figs. 8, 10, 11) plot, for each configuration, a
*memory* bar (DRAM time + idle) and a *computation* bar (modeled compute +
compulsory atomics + conflict atomics + other), both equal to the total
execution time, under the stated assumption that compute perfectly overlaps
DRAM transfers.  This module reproduces exactly those derivations:

* ``dram_time = N_txn / R_txn``  (section 4.2),
* compute is the makespan of per-invocation times
  (``call_overhead + flops / sm_rate``) greedily scheduled over the SMs,
* atomics cost ``87.45 ns`` each (section 4.3.1),
* ``total = max(dram, compute + atomics) + sync + recursion overheads``,
* ``idle = total - dram_time``; ``other = total - compute - atomics``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.gpusim.atomics import AtomicCounters
from repro.gpusim.memory import MemoryCounters
from repro.gpusim.spec import GPUSpec
from repro.gpusim.trace import Task

__all__ = ["TimeBreakdown", "schedule_makespan", "compute_breakdown"]


def schedule_makespan(spec: GPUSpec, durations: Iterable[float]) -> float:
    """Greedy list-scheduling makespan of task durations over the SMs."""
    sms = [0.0] * spec.num_sms
    heapq.heapify(sms)
    makespan = 0.0
    for d in durations:
        t = heapq.heappop(sms) + d
        heapq.heappush(sms, t)
        if t > makespan:
            makespan = t
    return makespan


@dataclass(frozen=True)
class TimeBreakdown:
    """All times in seconds; the component identities from the paper hold:
    ``idle + dram == total == other + compute + atomics_*``."""

    total: float
    dram: float
    idle: float
    compute: float
    atomics_compulsory: float
    atomics_conflict: float
    other: float


def compute_breakdown(
    spec: GPUSpec,
    tasks: Sequence[Task],
    memory: MemoryCounters,
    atomics: AtomicCounters,
    sync_count: int = 0,
    extra_overhead_s: float = 0.0,
) -> TimeBreakdown:
    """Derive the full breakdown for one run.

    ``sync_count`` is the number of device-wide synchronizations the
    execution strategy required (per operator for the baseline, per subgraph
    for merged execution).  ``extra_overhead_s`` captures strategy-specific
    serial overheads (e.g. host-side graph bookkeeping).
    """
    dram_time = memory.dram_txns / spec.txn_rate
    compute_time = schedule_makespan(spec, (spec.task_time(t.flops, t.calls) for t in tasks))
    atomic_comp = atomics.compulsory_time(spec)
    atomic_conf = atomics.conflict_time(spec)
    visit_overhead = sum(t.visits for t in tasks) * spec.memo_visit_s
    overhead = sync_count * spec.sync_time_s + visit_overhead + extra_overhead_s

    busy = compute_time + atomic_comp + atomic_conf
    hidden = spec.overlap_efficiency * min(dram_time, busy)
    total = dram_time + busy - hidden + overhead
    idle = total - dram_time
    other = total - compute_time - atomic_comp - atomic_conf
    return TimeBreakdown(
        total=total,
        dram=dram_time,
        idle=idle,
        compute=compute_time,
        atomics_compulsory=atomic_comp,
        atomics_conflict=atomic_conf,
        other=other,
    )
