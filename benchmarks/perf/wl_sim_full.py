"""Workload ``sim_full``: the researcher's path, full scale, profile mode.

``zoo.build -> BrickDLEngine.compile -> Device(adapt_sectors) -> engine.run
-> manifest_from_result -> to_json`` for three models under both forced
strategies.  The executors' access-stream generation, the simulator's
accounting and the observers do nearly all of the work; rewrite, analysis,
kernels and serve do none.  Forcing both strategies gives the padded and the
memoized executor equal weight, so a gain for one shows in its own configs.
No inputs, so no dependence on the seed.
"""

from __future__ import annotations

import hashlib
import json

from perf_common import Outcome, RunConfig, summarize_ops, timed_ops

MODELS = ("mobilenet_v1", "vgg16", "resnet50")
STRATEGIES = ("padded", "memoized")
# The configs with committed reduced-scale baselines (benchmarks/baselines).
BASELINE_MODELS = ("mobilenet_v1", "vgg16")
PY_CALLS_CONFIG = ("resnet50", "memoized")


def setup(cfg: RunConfig) -> None:
    """Set-up is the imports: every pass builds its graphs itself."""
    import repro.bench.harness  # noqa: F401
    import repro.metrics  # noqa: F401
    import repro.models.zoo  # noqa: F401


def _counter_digest(manifest) -> str:
    """sha256 of the metric block ``repro metrics diff`` compares."""
    from repro.metrics.diff import flatten_metrics

    blob = json.dumps(flatten_metrics(manifest.metrics), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _compiled(model: str, strategy: str, reduced: bool):
    from repro.bench.harness import adapt_sectors
    from repro.core.engine import BrickDLEngine
    from repro.core.plan import Strategy
    from repro.gpusim.device import Device
    from repro.gpusim.spec import A100
    from repro.models import zoo

    graph = zoo.build(model, reduced=reduced)
    engine = BrickDLEngine(graph, strategy_override=Strategy(strategy))
    plan = engine.compile()
    return engine, plan, Device(adapt_sectors(A100, plan))


def _record(model: str, strategy: str, reduced: bool):
    """One config, the way ``repro metrics record`` produces a manifest."""
    from repro.metrics import manifest_from_result

    engine, plan, device = _compiled(model, strategy, reduced)
    result = engine.run(inputs=None, functional=False, device=device, plan=plan)
    manifest = manifest_from_result(
        model, result, device.spec, label=strategy,
        scale="small" if reduced else "full",
        build_args={"reduced": True} if reduced else {})
    manifest.to_json()
    return manifest, result


def verify(state: None, cfg: RunConfig, out: Outcome) -> None:
    """The four reduced configs must still diff clean against the committed
    baselines: the benchmark measures a simulator that produces the gated
    counters, not some faster one that does not."""
    from repro.metrics import RunManifest, bench_manifest_path, diff_manifests

    for model in BASELINE_MODELS:
        for strategy in STRATEGIES:
            path = bench_manifest_path(model, cfg.baselines, label=strategy)
            try:
                base = RunManifest.load(path)
                fresh, _ = _record(model, strategy, reduced=True)
                report = diff_manifests(base, fresh)
            except Exception as exc:  # a check that cannot run has failed
                out.check_failures.append(
                    f"baseline {model}/{strategy}: {exc!r}")
                continue
            if not report.ok:
                out.check_failures.append(
                    f"baseline {model}/{strategy}: "
                    + "; ".join(d.render().strip() for d in report.regressions))


def measure(state: None, cfg: RunConfig, rec) -> Outcome:
    out = Outcome()
    keys = [f"{m}/{s}" for m in MODELS for s in STRATEGIES]

    def run_op(key: str) -> dict:
        manifest, result = _record(*key.split("/"), reduced=cfg.smoke)
        m = result.metrics
        return {
            "counter_digest": _counter_digest(manifest),
            "tasks": m.num_tasks,
            "dram_txns": m.memory.dram_txns,
            "atomics": m.atomics.compulsory + m.atomics.conflict,
            "model_ms": m.total_time * 1e3,
            "subgraphs": len(result.plan.subgraphs),
        }

    passes = timed_ops(keys, run_op, cfg, rec, out)
    host_s = summarize_ops(passes, keys, "counter_digest", out)
    if host_s is not None:
        first = passes[0].values()
        tasks = sum(r["tasks"] for r in first)
        out.metrics.update({
            "host_time_s": host_s,
            "sim.host_us_per_task": host_s / tasks * 1e6,
            "sim_model_time_ms": sum(r["model_ms"] for r in first),
            "gpusim.tasks": tasks,
            "gpusim.dram_txns": sum(r["dram_txns"] for r in first),
            "gpusim.atomics": sum(r["atomics"] for r in first),
            "core.subgraphs": sum(r["subgraphs"] for r in first),
        })
    return out


def traced_metrics(state: None, cfg: RunConfig, rec, plain: Outcome,
                   traced: Outcome) -> dict:
    """Python calls per simulated task over ``engine.run`` of one config,
    counted by the interpreter's profiler hook with the wrappers off."""
    import cProfile

    engine, plan, device = _compiled(*PY_CALLS_CONFIG, reduced=cfg.smoke)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = engine.run(inputs=None, functional=False, device=device,
                            plan=plan)
    finally:
        profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    return {"core.py_calls_per_task": calls / result.metrics.num_tasks}
