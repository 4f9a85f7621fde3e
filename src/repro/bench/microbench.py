"""The calibration microbenchmarks of section 4.3.

* :func:`atomic_microbenchmark` -- the CAS-rate benchmark: a ``32 x 64K``
  byte array (one 32 B cache line per thread), each of the 64 K threads
  issuing 10^6 conflict-free CAS operations; the per-atomic time is derived
  from the aggregate rate exactly as the paper does.  Expected result on the
  A100 preset: **87.45 ns**.

* :func:`compute_microbenchmark` -- the brick-compute benchmark: repeated
  fine-grained convolution calls on a shared-memory-resident brick; the
  per-call time is the inverse rate.  Expected result for an 8x8x8 brick
  with a 3x3x3 filter on the A100 preset: **6.72 us** (this is the
  calibration point of the ``call_overhead_s`` / ``sm_gflops_effective``
  constants in :mod:`repro.gpusim.spec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim.atomics import cas_microbenchmark_time
from repro.gpusim.spec import A100, GPUSpec

__all__ = ["AtomicBenchResult", "ComputeBenchResult", "atomic_microbenchmark", "compute_microbenchmark"]

# The CAS benchmark's array: 32 x 64K bytes, one 32 B cache line per thread.
_ARRAY_BYTES = 32 * 64 * 1024


@dataclass(frozen=True)
class AtomicBenchResult:
    num_threads: int
    ops_per_thread: int
    total_time_s: float
    time_per_atomic_ns: float


@dataclass(frozen=True)
class ComputeBenchResult:
    brick: tuple[int, ...]
    kernel: tuple[int, ...]
    calls: int
    total_time_s: float
    time_per_call_us: float


def atomic_microbenchmark(
    spec: GPUSpec = A100,
    ops_per_thread: int = 10**6,
) -> AtomicBenchResult:
    """Reproduce T_atomic via the paper's CAS microbenchmark (section 4.3.1)."""
    num_threads = _ARRAY_BYTES // spec.transaction_bytes
    total, per_op = cas_microbenchmark_time(spec, num_threads, ops_per_thread)
    return AtomicBenchResult(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        total_time_s=total,
        time_per_atomic_ns=per_op * 1e9,
    )


def compute_microbenchmark(
    spec: GPUSpec = A100,
    brick: tuple[int, ...] = (8, 8, 8),
    kernel: tuple[int, ...] = (3, 3, 3),
    calls: int = 10**6,
) -> ComputeBenchResult:
    """Reproduce T_brick via the paper's compute microbenchmark (4.3.2).

    Each call convolves one brick (single channel, matching the benchmark's
    smem-resident independent bricks) with the given filter; flops per call
    = 2 * brick_volume * kernel_volume; per-call time is modeled by the
    device's fine-grained invocation cost.
    """
    flops_per_call = 2 * math.prod(brick) * math.prod(kernel)
    per_call = spec.task_time(flops_per_call)
    return ComputeBenchResult(
        brick=tuple(brick),
        kernel=tuple(kernel),
        calls=calls,
        total_time_s=per_call * calls,
        time_per_call_us=per_call * 1e6,
    )
