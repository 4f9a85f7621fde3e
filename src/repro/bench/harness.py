"""Benchmark runners: execute a graph under each system, collect rows.

All benchmark executions run in *profile* mode (access streams and the cost
model, no NumPy arithmetic), so paper-scale graphs are tractable; numerical
correctness is covered separately by the functional test suite.

Scale presets
-------------
The paper's microbenchmark volumes (``224^3 x 64`` activations) are large
for a pure-Python discrete simulation, so the harness supports three scales
selected by the ``BRICKDL_SCALE`` environment variable:

* ``small`` (default) -- reduced spatial extents; every comparison and
  crossover of the paper is still exercised, in seconds.
* ``half`` -- the paper's 6-layer proxy size (112^3); minutes.
* ``full`` -- the paper's exact sizes everywhere; tens of minutes.

EXPERIMENTS.md records which scale produced the reported numbers.
"""

from __future__ import annotations

import os
import time

from typing import TYPE_CHECKING

from repro.bench.reporting import BreakdownRow
from repro.core.engine import BrickDLEngine
# adapt_sectors is re-exported: benchmark workloads that build their own
# Device import it from here.
from repro.core.plan import ExecutionPlan, Strategy, adapt_sectors
from repro.baselines.conventional import ConventionalExecutor
from repro.graph.ir import Graph
from repro.gpusim.spec import A100, GPUSpec

if TYPE_CHECKING:  # pragma: no cover - types only (repro.serve is imported lazily)
    from repro.serve import ServeConfig

__all__ = ["scale_preset", "run_brickdl", "run_conventional", "adapt_sectors",
           "record_bench_manifest", "run_serve_loadgen"]

_SCALES = ("small", "half", "full")


def scale_preset() -> str:
    """Benchmark scale from ``BRICKDL_SCALE`` (small | half | full)."""
    scale = os.environ.get("BRICKDL_SCALE", "small").lower()
    if scale not in _SCALES:
        raise ValueError(f"BRICKDL_SCALE must be one of {_SCALES}, got {scale!r}")
    return scale


def run_brickdl(
    graph: Graph,
    spec: GPUSpec = A100,
    strategy: Strategy | None = None,
    brick: int | None = None,
    layer_schedule: tuple[int, ...] | None = None,
    label: str | None = None,
    trace: "str | os.PathLike | None" = None,
    manifest: "str | os.PathLike | None" = None,
) -> tuple[BreakdownRow, ExecutionPlan]:
    """Profile one BrickDL configuration; returns (row, plan).

    ``trace`` optionally names a file to receive the run's task timeline as
    Chrome-trace/Perfetto JSON (see :mod:`repro.profiling`).  ``manifest``
    optionally names a file to receive the run's
    :class:`~repro.metrics.RunManifest` (spec + plan digest + full metric
    dump), the record the perf-diff gate compares across commits.
    """
    engine = BrickDLEngine(
        graph,
        spec=spec,
        strategy_override=strategy,
        brick_override=brick,
        layer_schedule=layer_schedule,
    )
    plan = engine.compile()
    t0 = time.perf_counter()
    result = engine.run(plan=plan)
    sim_wall_s = time.perf_counter() - t0
    if trace is not None:
        from repro.profiling import write_chrome_trace

        write_chrome_trace(result.trace, trace,
                           names={n.node_id: n.name for n in graph.nodes})
    name = label or (f"brickdl/{strategy.value}" if strategy else "brickdl")
    if manifest is not None:
        from repro.metrics import manifest_from_result

        manifest_from_result(
            graph.name, result, result.spec, label=name, scale=scale_preset(),
            wall={"sim_wall_s": round(sim_wall_s, 4)},
        ).save(manifest)
    return BreakdownRow.from_metrics(name, result.metrics), plan


def record_bench_manifest(
    model: str,
    out_dir: "str | os.PathLike" = ".",
    strategy: Strategy | None = None,
    brick: int | None = None,
    label: str | None = None,
    optimize: bool = False,
    rules=None,
    **build_kwargs,
):
    """Record one zoo model's run as a ``BENCH_<model>[__<label>].json`` manifest.

    This is the trajectory entry point: the ``repro metrics record`` CLI and
    the CI perf-smoke job both come through here, so a committed baseline and
    a fresh CI run are produced by the same code path.  ``optimize`` runs the
    validated graph-rewrite pipeline before compiling (``rules`` optionally
    selects the batches, as for :meth:`BrickDLEngine.compile`); the rewrite
    provenance lands in the manifest's ``rewrite`` block.  Returns
    ``(manifest, path)``.
    """
    from repro.metrics import bench_manifest_path, manifest_from_result
    from repro.models import zoo

    graph = zoo.build(model, **build_kwargs)
    engine = BrickDLEngine(graph, strategy_override=strategy, brick_override=brick)
    plan = engine.compile(optimize=optimize or rules is not None, rules=rules)
    t0 = time.perf_counter()
    result = engine.run(plan=plan)
    sim_wall_s = time.perf_counter() - t0
    if label is None:
        label = strategy.value if strategy else ""
    manifest = manifest_from_result(
        model, result, result.spec, label=label, scale=scale_preset(),
        build_args=build_kwargs,
        wall={"sim_wall_s": round(sim_wall_s, 4)},
        rewrite=(engine.rewrite_report.manifest_dict()
                 if engine.rewrite_report is not None else None),
    )
    path = manifest.save(bench_manifest_path(model, out_dir, label=label))
    return manifest, path


def run_serve_loadgen(
    model: str,
    config: "ServeConfig",
    requests: int = 200,
    mode: str = "poisson",
    rate: float = 100.0,
    concurrency: int = 8,
    seed: int = 0,
    verify: int = 0,
    manifest: "str | os.PathLike | None" = None,
    trace: "str | os.PathLike | None" = None,
    latency_csv: "str | os.PathLike | None" = None,
    **build_kwargs,
):
    """Serve one zoo model under synthetic traffic; returns ``(report, server)``.

    The shared path of the ``repro loadgen`` CLI, the CI serve-smoke and
    obs-smoke jobs, and ``benchmarks/bench_serve.py``, so a committed smoke
    threshold and a local run exercise the same code.  ``config`` is the
    session's :class:`~repro.serve.ServeConfig` (fleet size, batching, SLO
    objective, straggler injection, autoscaler); ``manifest`` optionally
    names a file to receive the session's serving
    :class:`~repro.metrics.RunManifest`.

    ``trace`` enables request-scoped distributed tracing (``repro.obs``):
    the JSONL span log lands at the given path, and the tracer dumps
    ``flightrec-<reason>.json`` next to it on error/reject/timeout/SLO
    breach.  ``latency_csv`` dumps one row per request.
    """
    from repro.models import zoo
    from repro.serve import InferenceServer, loadgen

    graph = zoo.build(model, **build_kwargs)
    tracer = None
    if trace is not None:
        from repro.obs import Tracer

        tracer = Tracer(log_path=trace)
    server = InferenceServer(graph, config=config, tracer=tracer)
    report = loadgen(server, requests=requests, mode=mode, rate=rate,
                     concurrency=concurrency, seed=seed, verify=verify,
                     latency_csv=latency_csv)
    if tracer is not None:
        tracer.close()
    if manifest is not None:
        server.manifest(scale=scale_preset()).save(manifest)
    return report, server


def run_conventional(
    executor_cls: type[ConventionalExecutor],
    graph: Graph,
    spec: GPUSpec = A100,
    label: str | None = None,
    **kwargs,
) -> BreakdownRow:
    """Profile one conventional baseline."""
    executor = executor_cls(graph, spec=spec, **kwargs)
    result = executor.run()
    return BreakdownRow.from_metrics(label or executor.name, result.metrics)
