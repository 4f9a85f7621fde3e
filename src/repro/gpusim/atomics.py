"""Atomic-operation accounting (the memoized-bricks synchronization cost).

The paper models every atomic CAS at a flat calibrated cost
(``T_atomic = 87.45 ns`` on A100, section 4.3.1) and splits counts 3C-style
into *compulsory* (two per brick: acquire + release) and *conflict* (a CAS
that observed another thread's in-progress tag) atomics (section 4.4).
This module accumulates those counts and converts them to time.

It also hosts the synthetic CAS microbenchmark model used by
``benchmarks/bench_atomics_model.py`` to re-derive ``T_atomic`` the way the
paper does: one thread per private cache line, 10^6 CAS each, rate = N ops /
elapsed time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.spec import GPUSpec

__all__ = ["AtomicCounters", "cas_microbenchmark_time"]


@dataclass
class AtomicCounters:
    """Counts of atomic transactions, split like the paper's Fig. 8."""

    compulsory: int = 0
    conflict: int = 0

    @property
    def total(self) -> int:
        return self.compulsory + self.conflict

    def time(self, spec: GPUSpec) -> float:
        return self.total * spec.atomic_time_s

    def compulsory_time(self, spec: GPUSpec) -> float:
        return self.compulsory * spec.atomic_time_s

    def conflict_time(self, spec: GPUSpec) -> float:
        return self.conflict * spec.atomic_time_s


def cas_microbenchmark_time(
    spec: GPUSpec,
    num_threads: int = 32 * 64 * 1024 // 32,
    ops_per_thread: int = 10**6,
) -> tuple[float, float]:
    """Model the paper's CAS microbenchmark (section 4.3.1).

    A ``32 x 64K`` byte array gives one 32 B cache line per thread (64 K
    threads), each issuing ``10^6`` conflict-free CAS operations.  Atomics
    are serviced at the L2 atomic units; with no conflicts the device
    pipelines them across SMs, so the aggregate rate is
    ``num_sms / T_atomic_issue`` -- we invert the paper's arithmetic and
    report the per-op latency it would measure.

    Returns ``(total_time, time_per_atomic)`` where ``time_per_atomic`` is
    by construction ``spec.atomic_time_s`` when the benchmark saturates the
    atomic pipeline, matching the paper's 87.45 ns.
    """
    total_ops = num_threads * ops_per_thread
    # Conflict-free CAS to private lines: throughput-limited, one op retired
    # per atomic-unit slot every atomic_time_s across the device.
    total_time = total_ops * spec.atomic_time_s
    rate = total_ops / total_time
    return total_time, 1.0 / rate
