"""Shared pieces of the perf benchmark: config, pass loop, order statistics.

Nothing here imports ``repro``: the runner stamps ``setup_s`` from its own
first line, so every program import has to happen inside a workload's
``setup``.
"""

from __future__ import annotations

import gc
import json
import math
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

WORKLOADS = ("sim_full", "compile_zoo", "serve_closed", "serve_vtime")


class Yardstick:
    """The box's speed right now, as the time of a fixed pure-Python loop.

    The dev VM runs identical work up to 30 % apart from one minute to the
    next (a spin loop shows it, in CPU time as much as in wall time), which
    is more than any bound this benchmark could usefully set.  So every run
    samples this loop in the gaps between its timed operations and scales
    its host times by ``NOMINAL_S / median sample``: they read in seconds at
    the yardstick's nominal speed.  In sizing that halved the run-to-run
    spread.  The loop lives here, where a change under test cannot reach it.
    """

    LOOPS = 300_000
    NOMINAL_S = 0.025    # what LOOPS iterations take on the dev box, typically
    # OpenBLAS workers spin for about 0.1 s after their last job and halve
    # the speed of whatever runs next; wait that out before sampling.
    QUIESCE_S = 0.2

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i % 7
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        return spent

    def sample_gap(self, after_threads: bool = False, count: int = 4) -> float:
        """Median of ``count`` samples, for a gap between long timed regions;
        ``after_threads`` first lets native thread pools the program may
        just have used go to sleep."""
        if after_threads:
            time.sleep(self.QUIESCE_S)
        return median(self.sample() for _ in range(count))

    def factor(self) -> float:
        return self.NOMINAL_S / median(self.samples)


@dataclass(frozen=True)
class RunConfig:
    """What one invocation of one workload was asked to do."""

    yard: Yardstick
    seed: int
    seconds: float
    smoke: bool
    baselines: pathlib.Path
    # Exactly this many passes instead of filling ``seconds`` (the traced
    # invocation compares one plain pass with one traced pass).
    passes: int | None = None


@dataclass
class Outcome:
    """What a workload measured: metrics by name, operations, failed checks."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    # Human-readable reasons; any entry makes the run incorrect.
    check_failures: list[str] = field(default_factory=list)
    # Values that must be identical between two runs of one commit
    # (counter digests, plan digests, fingerprints), printed by name.
    exact: dict[str, str] = field(default_factory=dict)
    # Raw material for the workload's own ``verify`` and ``traced_metrics``
    # (responses, passes); never printed.
    evidence: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.check_failures and self.failed == 0


def load_benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def run_passes(one_pass: Callable[[int], object], cfg: RunConfig,
               min_passes: int = 1) -> list:
    """Repeat ``one_pass`` until ``cfg.seconds`` is used.

    A further pass starts only while at least half of it is expected to fit,
    so a run overshoots its budget by at most half a pass.  ``min_passes``
    covers the workloads whose checks compare passes with each other.
    """
    results = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        results.append(one_pass(len(results)))
        now = time.perf_counter()
        done = len(results)
        if cfg.passes is not None:
            if done >= cfg.passes:
                return results
        elif cfg.smoke:
            if done >= min_passes:
                return results
        elif done >= min_passes and (now - t0) + (now - p0) / 2 > cfg.seconds:
            return results


def timed_ops(keys, run_op: Callable[[str], dict], cfg: RunConfig, rec,
              out: Outcome, clock: Callable[[], float] = time.perf_counter) -> list[dict]:
    """Passes (at least two) over keyed operations, one ``{key: row}`` per
    pass.  ``run_op(key)`` returns the row; its time on ``clock`` is added
    as ``row["host_s"]``.  An operation that raises is counted as failed and
    left out of its pass."""

    def one_pass(_index: int) -> dict:
        rows = {}
        for key in keys:
            settle(cfg.yard)
            rec.op = key
            out.attempted += 1
            t0 = clock()
            try:
                row = run_op(key)
            except Exception as exc:
                out.failed += 1
                out.check_failures.append(f"{key}: {exc!r}")
                continue
            finally:
                spent = clock() - t0
                rec.op = None
            row["host_s"] = spent
            rows[key] = row
        return rows

    return run_passes(one_pass, cfg, min_passes=2)


def summarize_ops(passes: list[dict], keys, field: str, out: Outcome) -> float | None:
    """Require every pass to agree on ``row[field]`` per key (recorded as an
    exact value), and return the sum over keys of the typical ``host_s`` --
    ``None`` when some operation failed, which is already counted."""
    for key in keys:
        values = {p[key][field] for p in passes if key in p}
        if len(values) > 1:
            out.check_failures.append(
                f"{key}: passes disagree on the {field} {sorted(values)}")
        if values:
            out.exact[f"{field}[{key}]"] = min(values)
    if any(key not in p for p in passes for key in keys):
        return None
    return sum(typical(p[key]["host_s"] for p in passes) for key in keys)


def response_metrics(done: list) -> dict[str, float]:
    """Batching and queueing metrics from the stamps on served responses.
    Every response of a batch carries the batch's size and bucket, so a
    per-batch sum is a per-response sum weighted by 1 / batch size."""
    batches = round(sum(1.0 / r.batch_size for r in done))
    bucket_slots = sum(r.batch_bucket / r.batch_size for r in done)
    queued = [r.batched_s - r.admitted_s for r in done if r.batched_s is not None]
    return {
        "serve.queue_wait_ms_p50": median(queued) * 1e3,
        "serve.queue_wait_ms_p95": percentile(queued, 0.95) * 1e3,
        "serve.batches": batches,
        "serve.batch_size_mean": len(done) / batches,
        "serve.batch_fill_share": len(done) / bucket_slots,
        "serve.plancache.hit_share": sum(r.cache_hit for r in done) / len(done),
    }


def settle(yard: Yardstick) -> None:
    """The gap between two timed operations: collect garbage, so that one
    operation's garbage is not collected on the next one's time and peak RSS
    does not depend on when the collector last ran, and take a yardstick
    sample."""
    gc.collect()
    yard.sample()


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def typical(values) -> float:
    """The undisturbed duration of something timed once per pass.

    The box slows identical work by up to a fifth for seconds at a time, and
    only ever slows it.  A median rejects one slow pass from three passes up;
    with two it is their mean and rejects nothing, so the lower one stands.
    """
    values = list(values)
    return median(values) if len(values) >= 3 else min(values)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])
