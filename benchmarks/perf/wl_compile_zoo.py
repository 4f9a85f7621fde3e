"""Workload ``compile_zoo``: the compiler and verifier path, no device.

``zoo.build -> RuleRunner(default_batches(), validate="static").run ->
BrickDLEngine.compile -> lint_graph + verify_plan -> analyze_effects`` at
full scale.  Rewrite and analysis do all the work and the simulator none, so
this is the workload on which a simulator optimisation must show no change.
Models picked for shape: a chain with 500 MB of dense weights, a residual
net, the widest DAG of the zoo, a 3-D net, a transposed-conv segmentation
net and a depthwise net.  Every pass builds its graphs afresh, so every pass
pays the cold cost a CLI user pays.  No inputs, so no dependence on the seed.
"""

from __future__ import annotations

import resource
import time

from perf_common import Outcome, RunConfig, summarize_ops, timed_ops

MODELS = ("vgg16", "resnet50", "inception_v4", "resnet3d34", "deepcam",
          "mobilenet_v1")


def setup(cfg: RunConfig) -> None:
    """Set-up is the imports: every pass builds its graphs itself."""
    import repro.analysis  # noqa: F401
    import repro.core.engine  # noqa: F401
    import repro.models.zoo  # noqa: F401
    import repro.rewrite  # noqa: F401


def _clock() -> float:
    """Wall seconds minus the kernel time charged to this process.

    ``vgg16`` alone faults in 1.3 GB of weights and float64 temporaries; on
    the dev VM the kernel time for that is 5-7 s of a 15 s pass and drifts
    +-15 % over minutes with the hypervisor's price for backing guest pages.
    No compiler change moves it, and the memory is gated as ``peak_rss_mb``,
    so it is kept out of the time this workload reports.
    """
    return time.perf_counter() - resource.getrusage(resource.RUSAGE_SELF).ru_stime


def _compile(model: str, reduced: bool) -> dict:
    from repro.analysis import analyze_effects, lint_graph, verify_plan
    from repro.core.engine import BrickDLEngine
    from repro.core.perfmodel import DEFAULT_CONFIG
    from repro.gpusim.spec import A100
    from repro.models import zoo
    from repro.rewrite import RuleRunner, default_batches

    graph = zoo.build(model, reduced=reduced)
    rewrite = RuleRunner(default_batches(), validate="static").run(graph)
    plan = BrickDLEngine(rewrite.graph).compile()
    report = lint_graph(rewrite.graph)
    report.extend(verify_plan(plan, A100, DEFAULT_CONFIG))
    report.extend(analyze_effects(plan, A100, DEFAULT_CONFIG))
    return {
        "rewrite_ok": rewrite.ok,
        "rules_fired": len(rewrite.steps),
        "nodes_removed": rewrite.nodes_removed,
        "subgraphs": len(plan.subgraphs),
        "errors": [d.render() for d in report.errors],
        "plan_digest": plan.digest(),
    }


def measure(state: None, cfg: RunConfig, rec) -> Outcome:
    out = Outcome()

    def run_op(model: str) -> dict:
        row = _compile(model, reduced=cfg.smoke)
        if not row["rewrite_ok"] or row["errors"]:
            out.failed += 1
            out.check_failures.append(
                f"{model}: rewrite ok={row['rewrite_ok']}, "
                f"diagnostics {row['errors'][:3]}")
        return row

    passes = timed_ops(MODELS, run_op, cfg, rec, out, clock=_clock)
    host_s = summarize_ops(passes, MODELS, "plan_digest", out)
    if host_s is not None:
        first = passes[0].values()
        out.metrics.update({
            "host_time_s": host_s,
            "rewrite.rules_fired": sum(r["rules_fired"] for r in first),
            "rewrite.nodes_removed": sum(r["nodes_removed"] for r in first),
            "core.subgraphs": sum(r["subgraphs"] for r in first),
            "analysis.error_diagnostics": sum(len(r["errors"]) for r in first),
        })
    return out
