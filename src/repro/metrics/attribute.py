"""Bottleneck attribution: classify what a run (or one subgraph) is bound by.

The paper's evaluation explains every bar with the section 4 time
derivations: DRAM time is ``N_txn / R_txn`` (4.2), compute is the modeled
SM-wave makespan, atomics cost ``T_atomic`` each (4.3.1), and the total
combines them under the memory/compute-overlap assumption (4.4).  This
module inverts those derivations: given measured counters it names the
*dominant* component -- DRAM-, compute-, atomic-, or idle-bound -- places
the execution on a roofline against the device spec, and bounds the speedup
available from eliminating the dominant component (re-deriving the total
with that component zeroed, so overlap is honored rather than Amdahl
over-promising).

"Idle" here is the *serial residual*: synchronization barriers, memo-table
bookkeeping, and recursion stalls -- time when neither the DRAM pipe nor
the SMs are the limiter.  It is reconstructed from the breakdown identities
(``total = dram + busy - hidden + overhead``) using the spec's overlap
efficiency, the same arithmetic :func:`~repro.gpusim.timing.compute_breakdown`
used forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - types only (avoids an import cycle:
    # gpusim.device imports repro.metrics for its registry)
    from repro.gpusim.device import RunMetrics
    from repro.gpusim.spec import GPUSpec

__all__ = ["RooflinePoint", "BottleneckReport", "attribute_run",
           "attribute_subgraphs", "COMPONENTS"]

COMPONENTS = ("dram", "compute", "atomic", "idle")


@dataclass(frozen=True)
class RooflinePoint:
    """Position of an execution on the device's roofline.

    Rates are *model-effective*: the memory bandwidth is the paper's folded
    ``R_txn`` times the 32 B transaction size and the compute peak is the
    calibrated effective per-SM rate, so the ridge sits where the simulated
    breakdowns actually balance (not at datasheet peaks).
    """

    flops: float
    dram_bytes: float
    arithmetic_intensity: float   # flops / DRAM byte
    achieved_flops: float         # flops / total_time
    peak_flops: float             # num_sms * effective per-SM rate
    memory_bw: float              # effective bytes/s (R_txn * 32 B)
    attainable_flops: float       # min(peak, intensity * bw)
    ridge_intensity: float        # peak / bw: the memory/compute crossover

    @property
    def memory_bound(self) -> bool:
        return self.arithmetic_intensity < self.ridge_intensity

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "flops", "dram_bytes", "arithmetic_intensity", "achieved_flops",
            "peak_flops", "memory_bw", "attainable_flops", "ridge_intensity")}


@dataclass(frozen=True)
class BottleneckReport:
    """One execution's (or subgraph's) dominant-component classification."""

    label: str
    bound: str                    # one of COMPONENTS
    total_s: float
    components: dict[str, float]  # seconds per component (pre-overlap)
    shares: dict[str, float]      # component / total (overlap-adjusted? no:
                                  # raw fractions of total; may sum > 1)
    speedup_ceiling: float        # total / total-with-dominant-eliminated
    roofline: RooflinePoint

    def describe(self) -> str:
        parts = ", ".join(f"{k} {self.shares[k]:.0%}" for k in COMPONENTS)
        return (f"{self.label}: {self.bound}-bound ({parts}); "
                f"AI {self.roofline.arithmetic_intensity:.2f} flop/B "
                f"({'memory' if self.roofline.memory_bound else 'compute'} side "
                f"of ridge {self.roofline.ridge_intensity:.2f}); "
                f"ceiling {self.speedup_ceiling:.2f}x from removing {self.bound}")

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "bound": self.bound,
            "total_s": self.total_s,
            "components": dict(self.components),
            "shares": dict(self.shares),
            "speedup_ceiling": self.speedup_ceiling,
            "roofline": self.roofline.as_dict(),
        }


def _combine(spec: "GPUSpec", dram: float, compute: float, atomic: float,
             idle: float) -> float:
    """Forward time model (section 4.4): busy work overlaps DRAM transfers
    at the spec's overlap efficiency; the serial residual adds on top."""
    busy = compute + atomic
    hidden = spec.overlap_efficiency * min(dram, busy)
    return dram + busy - hidden + idle


def _classify(label: str, spec: "GPUSpec", dram: float, compute: float,
              atomic: float, idle: float, flops: float,
              dram_bytes: float, total_s: float | None = None) -> BottleneckReport:
    components = {"dram": dram, "compute": compute, "atomic": atomic, "idle": idle}
    total = total_s if total_s is not None else _combine(spec, dram, compute, atomic, idle)
    denom = total or 1.0
    shares = {k: v / denom for k, v in components.items()}
    bound = max(COMPONENTS, key=lambda k: components[k])
    without = dict(components)
    without[bound] = 0.0
    reduced = _combine(spec, **without)
    ceiling = total / reduced if reduced > 0 else float("inf")

    peak = spec.num_sms * spec.sm_flops
    bw = spec.txn_rate * spec.transaction_bytes
    ai = flops / dram_bytes if dram_bytes else float("inf")
    roof = RooflinePoint(
        flops=flops,
        dram_bytes=dram_bytes,
        arithmetic_intensity=ai,
        achieved_flops=flops / total if total else 0.0,
        peak_flops=peak,
        memory_bw=bw,
        attainable_flops=min(peak, ai * bw) if dram_bytes else peak,
        ridge_intensity=peak / bw if bw else float("inf"),
    )
    return BottleneckReport(label=label, bound=bound, total_s=total,
                            components=components, shares=shares,
                            speedup_ceiling=ceiling, roofline=roof)


def attribute_run(metrics: "RunMetrics", spec: "GPUSpec",
                  label: str = "run") -> BottleneckReport:
    """Classify a whole run from its :class:`RunMetrics`.

    Components come straight from the paper-derivation breakdown; the serial
    residual ("idle") is reconstructed from the identity
    ``overhead = total - dram - busy + hidden`` with
    ``hidden = overlap * min(dram, busy)`` -- the inverse of
    :func:`~repro.gpusim.timing.compute_breakdown`.
    """
    t = metrics.time
    atomic = t.atomics_compulsory + t.atomics_conflict
    busy = t.compute + atomic
    hidden = spec.overlap_efficiency * min(t.dram, busy)
    idle = max(0.0, t.total - t.dram - busy + hidden)
    return _classify(label, spec, t.dram, t.compute, atomic, idle,
                     flops=metrics.total_flops,
                     dram_bytes=float(metrics.memory.dram_bytes),
                     total_s=t.total)


def attribute_subgraphs(per_subgraph: Sequence[dict], spec: "GPUSpec",
                        plan) -> list[BottleneckReport]:
    """Classify each plan entry from the engine's per-subgraph attribution
    rows (``EngineResult.per_subgraph``, aligned with ``plan.subgraphs``).

    Per-subgraph compute time is the balanced-makespan estimate
    ``busy_s / num_sms`` (exact per-task durations summed over the plan
    entry, spread over the SMs); DRAM time is the entry's transactions over
    ``R_txn``; atomics at ``T_atomic`` each; the idle residual is the
    entry's measured scheduler overhead plus its synchronizations.
    """
    reports = []
    for sub, row in zip(plan.subgraphs, per_subgraph):
        label = f"subgraph {sub.index} ({sub.strategy.value})"
        compute = row["busy_s"] / max(1, spec.num_sms)
        atomic = (row["atomics_compulsory"] + row["atomics_conflict"]) * spec.atomic_time_s
        idle = row["overhead_s"] + row["syncs"] * spec.sync_time_s
        reports.append(_classify(
            label, spec, row["dram_time_s"], compute, atomic, idle,
            flops=row["flops"],
            dram_bytes=row["dram_txns"] * spec.transaction_bytes,
        ))
    return reports
