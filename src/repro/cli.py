"""Command-line interface: inspect models, plans, runs, and experiments.

Usage::

    python -m repro.cli models
    python -m repro.cli plan resnet50 --image-size 224
    python -m repro.cli run darknet53 --strategy memoized --compare
    python -m repro.cli profile resnet50 --trace run.json --csv run.csv
    python -m repro.cli lint resnet50 --protocol --run --sanitize
    python -m repro.cli lint resnet50 --rewrites
    python -m repro.cli rewrite resnet50 --reduced --validate
    python -m repro.cli sanitize vgg16 --reduced --strategy memoized
    python -m repro.cli tune vgg16 --image-size 96
    python -m repro.cli fig 10            # run an evaluation figure driver
    python -m repro.cli metrics record vgg16 --reduced --strategy padded
    python -m repro.cli metrics diff baseline.json fresh.json
    python -m repro.cli serve mobilenet_v1 --requests 8 --devices 2
    python -m repro.cli loadgen mobilenet_v1 --requests 200 --devices 2 --verify 5
    python -m repro.cli microbench
"""

from __future__ import annotations

import argparse
import sys

from repro.core.plan import adapt_sectors
from repro.gpusim.spec import A100


def _build_model(args) -> "Graph":
    from repro.models import zoo

    kwargs = {}
    if args.model == "resnet3d34":
        if args.image_size:
            kwargs["clip"] = (max(4, args.image_size // 14), args.image_size, args.image_size)
    elif args.image_size:
        kwargs["image_size"] = args.image_size
    if getattr(args, "reduced", False):
        return zoo.build(args.model, reduced=True)
    return zoo.build(args.model, **kwargs)


def cmd_models(args) -> int:
    from repro.models import MODELS, build

    print(f"{'model':14s} {'nodes':>6s} {'GFLOP':>8s} {'act MB':>8s} {'params MB':>10s}")
    for name in MODELS:
        g = build(name)
        print(f"{name:14s} {len(g):6d} {g.total_flops() / 1e9:8.2f} "
              f"{g.activation_bytes() / 1e6:8.1f} {g.weight_bytes() / 1e6:10.1f}")
    return 0


def cmd_plan(args) -> int:
    from repro.core.engine import BrickDLEngine

    graph = _build_model(args)
    engine = BrickDLEngine(graph, strategy_override=_strategy(args), brick_override=args.brick)
    print(engine.compile().summary())
    return 0


def cmd_run(args) -> int:
    from repro.core.engine import BrickDLEngine
    from repro.gpusim.device import Device
    from repro.gpusim.report import profile_report

    graph = _build_model(args)
    engine = BrickDLEngine(graph, strategy_override=_strategy(args), brick_override=args.brick)
    plan = engine.compile()
    device = Device(adapt_sectors(A100, plan))
    result = engine.run(inputs=None, functional=False, device=device, plan=plan)
    print(profile_report(result.metrics, A100, title=f"{args.model} / brickdl"))
    if args.per_subgraph:
        print()
        print(result.attribution_table())

    if args.compare:
        from repro.baselines import CudnnBaseline

        base = CudnnBaseline(_build_model(args)).run()
        print()
        print(profile_report(base.metrics, A100, title=f"{args.model} / cudnn baseline"))
        ratio = result.metrics.total_time / base.metrics.total_time
        print(f"\nbrickdl vs cudnn: {ratio:.3f}x total time "
              f"({(1 - ratio) * 100:+.1f}%), "
              f"{(1 - result.metrics.memory.dram_txns / base.metrics.memory.dram_txns) * 100:+.1f}% DRAM txns")
    return 0


def cmd_profile(args) -> int:
    from repro.core.engine import BrickDLEngine
    from repro.gpusim.device import Device
    from repro.gpusim.report import profile_report
    from repro.profiling import write_chrome_trace, write_summary_csv

    graph = _build_model(args)
    engine = BrickDLEngine(graph, strategy_override=_strategy(args), brick_override=args.brick)
    plan = engine.compile()
    device = Device(adapt_sectors(A100, plan))
    result = engine.run(inputs=None, functional=False, device=device, plan=plan)
    trace = result.trace
    print(profile_report(result.metrics, A100, title=f"{args.model} / brickdl"))
    print()
    print(result.attribution_table())
    if args.per_node:
        print()
        print(result.node_attribution_table())
    names = {n.node_id: n.name for n in graph.nodes}
    if args.trace:
        path = write_chrome_trace(trace, args.trace, names=names)
        print(f"\nwrote Chrome trace ({len(trace.records)} tasks, "
              f"{trace.num_workers} lanes) to {path}")
    if args.csv:
        path = write_summary_csv(trace, args.csv, names=names)
        print(f"wrote per-node summary to {path}")
    return 0


def _sanitized_run(graph, plan, strategy, brick):
    """One functional run with the execution sanitizer attached; returns the
    engine result (carrying ``sanitizer_report``)."""
    import numpy as np

    from repro.core.engine import BrickDLEngine
    from repro.gpusim.device import Device

    engine = BrickDLEngine(graph, strategy_override=strategy,
                           brick_override=brick, sanitize=True)
    device = Device(adapt_sectors(A100, plan))
    rng = np.random.default_rng(0)
    inputs = {n.name: rng.standard_normal(n.spec.shape).astype(n.spec.dtype)
              for n in graph.input_nodes}
    return engine.run(inputs=inputs, functional=True, device=device, plan=plan)


def cmd_sanitize(args) -> int:
    """Dynamic analysis: run the model functionally with the sanitizer suite
    attached (shadow memory, happens-before races, numeric screening)."""
    from repro.core.engine import BrickDLEngine

    graph = _build_model(args)
    strategy = _strategy(args)
    plan = BrickDLEngine(graph, strategy_override=strategy,
                         brick_override=args.brick).compile()
    result = _sanitized_run(graph, plan, strategy, args.brick)
    report = result.sanitizer_report
    print(report.summary(f"{args.model}: sanitized run, "
                         f"{result.metrics.num_tasks} tasks, "
                         f"{len(plan.subgraphs)} subgraphs"))
    return 1 if report.errors else 0


def cmd_lint(args) -> int:
    """Static analysis: lint the graph, verify the compiled plan, model-check
    the memoization protocol, and optionally replay a run's trace."""
    from repro.analysis import (
        GridModel,
        ProtocolModel,
        explore_protocol,
        lint_graph,
        replay_tasks_from_chrome_trace,
        replay_trace,
        verify_plan,
    )
    from repro.core.engine import BrickDLEngine

    graph = _build_model(args)
    strategy = _strategy(args)
    engine = BrickDLEngine(graph, strategy_override=strategy, brick_override=args.brick)
    plan = engine.compile()

    report = lint_graph(graph)
    report.extend(verify_plan(plan, engine.spec, engine.config,
                              strategy_override=strategy,
                              brick_override=args.brick))
    if args.protocol:
        report.extend(explore_protocol(GridModel(), ProtocolModel()))
    if args.replay:
        import json
        import pathlib

        doc = json.loads(pathlib.Path(args.replay).read_text())
        report.extend(replay_trace(plan, replay_tasks_from_chrome_trace(doc)))
    elif args.run:
        from repro.gpusim.device import Device

        device = Device(adapt_sectors(A100, plan))
        result = engine.run(inputs=None, functional=False, device=device, plan=plan)
        report.extend(replay_trace(plan, result.trace.records))
    if args.sanitize:
        result = _sanitized_run(graph, plan, strategy, args.brick)
        report.extend(result.sanitizer_report)
    if args.effects or args.baseline:
        from repro.analysis import analyze_effects, check_manifest_bracket

        effect_report = analyze_effects(plan, engine.spec, engine.config)
        report.extend(effect_report)
        if args.baseline:
            from repro.metrics.manifest import RunManifest

            report.extend(check_manifest_bracket(
                effect_report, RunManifest.load(args.baseline)))
    if args.rewrites:
        # Dry run: apply the default rule batches to a throwaway copy of the
        # graph and report which rules would fire, in the same Diagnostic
        # currency.  Static validation findings ride along (and gate the
        # exit code like any other error).
        from repro.analysis import Diagnostic, Severity
        from repro.rewrite import RuleRunner, default_batches

        rewrite_report = RuleRunner(default_batches(), validate="static").run(graph)
        report.extend(rewrite_report.validation)
        for step in rewrite_report.steps:
            detail = f"; {step.rewrite.detail}" if step.rewrite.detail else ""
            report.add(Diagnostic(
                pass_name="rewrite-validate", code="rewrite.would-fire",
                severity=Severity.INFO,
                message=f"rule {step.rule!r} would fire: {step.nodes_before} -> "
                        f"{step.nodes_after} nodes{detail}"))
        if not rewrite_report.steps:
            report.add(Diagnostic(
                pass_name="rewrite-validate", code="rewrite.no-op",
                severity=Severity.INFO,
                message="no rewrite rule fires on this graph"))

    print(report.summary(f"{args.model}: {len(graph)} nodes, "
                         f"{len(plan.subgraphs)} subgraphs"))
    for d in report.diagnostics:
        print(d.render())
    return 1 if report.errors else 0


def _rewrite_batches(rules_csv: str | None):
    """--rules NAME[,NAME...] -> rule batches (None = the default pipeline)."""
    if not rules_csv:
        return None
    from repro.rewrite import batches_from_names

    return batches_from_names(n.strip() for n in rules_csv.split(",") if n.strip())


def cmd_rewrite(args) -> int:
    """Apply the rewrite rule batches and translation-validate every step;
    exit nonzero if any application is proved unsound."""
    from repro.rewrite import RuleRunner, default_batches

    graph = _build_model(args)
    batches = _rewrite_batches(args.rules) or default_batches()
    runner = RuleRunner(batches, validate="full" if args.validate else "static")
    report = runner.run(graph)
    print(f"{args.model}: {len(graph)} nodes")
    print(report.summary())
    return 0 if report.ok else 1


def cmd_tune(args) -> int:
    from repro.core.tuner import tune_plan

    graph = _build_model(args)
    _, report = tune_plan(graph)
    print(report.summary())
    return 0


def cmd_fig(args) -> int:
    import pathlib

    from repro.bench import figures

    # Persist by default: the rendered table plus one run manifest per
    # BrickDL configuration (plan/spec provenance) land next to each other
    # under --out.  --no-save restores the old print-only behavior.
    out_dir = None if args.no_save else pathlib.Path(args.out) / f"fig{args.number}"

    if args.number == 7:
        result = figures.fig7_end_to_end(manifest_dir=out_dir)
        text = figures.fig7_summary_table(result)
    elif args.number == 8:
        text = figures.fig8_resnet_case_study(manifest_dir=out_dir).render()
    elif args.number == 9:
        text = figures.fig9_data_movement(figures.fig8_resnet_case_study(manifest_dir=out_dir))
    elif args.number == 10:
        text = figures.fig10_subgraph_size(manifest_dir=out_dir).render()
    elif args.number == 11:
        text = figures.fig11_brick_size(manifest_dir=out_dir).render()
    else:
        print(f"no driver for figure {args.number} (evaluation figures are 7-11)", file=sys.stderr)
        return 2
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        table_path = out_dir / f"fig{args.number}.txt"
        table_path.write_text(text + "\n")
        manifests = sorted(out_dir.glob("*.manifest.json"))
        print(f"\nwrote {table_path} and {len(manifests)} run manifest(s) to {out_dir}/")
    return 0


def cmd_metrics(args) -> int:
    from repro.metrics import RunManifest

    if args.action == "record":
        from repro.bench.harness import record_bench_manifest
        from repro.core.plan import Strategy

        strategy = Strategy(args.strategy) if args.strategy else None
        build_kwargs = {}
        if args.reduced:
            build_kwargs["reduced"] = True
        if args.image_size:
            build_kwargs["image_size"] = args.image_size
        manifest, path = record_bench_manifest(
            args.model, out_dir=args.out, strategy=strategy, brick=args.brick,
            label=args.label, optimize=args.optimize,
            rules=_rewrite_batches(args.rules), **build_kwargs)
        print(manifest.summary())
        rw = manifest.rewrite
        if rw:
            fired = ", ".join(f"{k}x{v}" for k, v in rw.get("rules_fired", {}).items())
            print(f"  rewrite: {rw.get('nodes_before')} -> {rw.get('nodes_after')} "
                  f"nodes ({fired or 'no rule fired'}), "
                  f"validated={rw.get('validated')}")
        wall = manifest.wall
        if wall:
            print(f"  sim: {wall.get('sim_wall_s', 0.0):.3f} s wall")
        print(f"wrote {path}")
        return 0

    if args.action == "report":
        for name in args.manifests:
            manifest = RunManifest.load(name)
            print(manifest.summary())
            run = manifest.bottleneck.get("run", {})
            if run:
                shares = run.get("shares", {})
                print("  components: " + "  ".join(
                    f"{k}={shares.get(k, 0.0):.1%}" for k in ("dram", "compute", "atomic", "idle")))
                roof = run.get("roofline", {})
                if roof:
                    print(f"  roofline: AI={roof.get('arithmetic_intensity', 0.0):.2f} flop/B "
                          f"(ridge {roof.get('ridge_intensity', 0.0):.2f}), "
                          f"achieved {roof.get('achieved_flops', 0.0) / 1e9:.1f} / "
                          f"attainable {roof.get('attainable_flops', 0.0) / 1e9:.1f} GFLOP/s")
                print(f"  speedup ceiling (remove {run.get('bound', '?')}): "
                      f"{run.get('speedup_ceiling', 1.0):.2f}x")
            if args.verbose and manifest.plan.get("subgraphs"):
                for sub in manifest.plan["subgraphs"]:
                    brick = "x".join(str(b) for b in sub.get("brick", [])) or "-"
                    print(f"    subgraph {sub['index']}: {sub['strategy']:9s} "
                          f"brick={brick:9s} ops={sub['num_ops']}")
        return 0

    # diff: the perf-smoke gate.  Exit 1 iff a tolerated metric regressed.
    from repro.metrics import diff_manifests

    tolerances = {}
    for item in args.tolerance or ():
        name, _, value = item.partition("=")
        if not _ or not name:
            print(f"--tolerance expects NAME=FRACTION, got {item!r}", file=sys.stderr)
            return 2
        tolerances[name] = float(value)
    report = diff_manifests(RunManifest.load(args.base), RunManifest.load(args.new),
                            tolerances=tolerances or None)
    print(report.render(verbose=args.verbose))
    if getattr(args, "require_identical", False):
        # Equivalence mode (the tracing-off purity gate): every metric must
        # be bit-equal; tolerances do not apply.
        moved = [d for d in report.deltas if d.new != d.base]
        missing = [w for w in report.warnings if "only in" in w]
        for d in moved:
            print(f"not identical: {d.name}: {d.base:g} != {d.new:g}", file=sys.stderr)
        for w in missing:
            print(f"not identical: {w}", file=sys.stderr)
        return 1 if moved or missing else 0
    return 1 if report.regressions else 0


def _serve_build_kwargs(args) -> dict:
    kwargs = {}
    if not args.full:
        kwargs["reduced"] = True
    if args.image_size:
        kwargs.pop("reduced", None)
        kwargs["image_size"] = args.image_size
    return kwargs


def _parse_straggler(value: str | None) -> tuple[int | None, float]:
    """``DEV:MS`` -> (device index, delay seconds); ``None`` -> no straggler."""
    if value is None:
        return None, 0.0
    dev, sep, ms = value.partition(":")
    if not sep:
        raise SystemExit(f"--straggler expects DEV:MS, got {value!r}")
    return int(dev), float(ms) / 1e3


def _serve_config(args):
    """The serving session config shared by ``serve``, ``loadgen`` and
    ``top``: each flag maps to its :class:`ServeConfig` field once."""
    from repro.serve import AutoscalerConfig, ServeConfig

    straggler_device, straggler_delay_s = _parse_straggler(args.straggler)
    devices, autoscaler = args.devices, None
    if args.autoscale is not None:
        lo, sep, hi = args.autoscale.partition(":")
        if not sep:
            raise SystemExit(f"--autoscale expects MIN:MAX, got {args.autoscale!r}")
        devices = int(lo)
        autoscaler = AutoscalerConfig(min_devices=devices, max_devices=int(hi))
    return ServeConfig(
        devices=devices, max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3, queue_depth=args.queue_depth,
        cache_capacity=args.cache_capacity,
        saturation_policy=args.on_saturation,
        functional=not args.profile, strategy=_strategy(args),
        brick=args.brick,
        default_timeout_s=(None if args.timeout_ms is None
                           else args.timeout_ms / 1e3),
        slo_objective=args.slo_objective,
        slo_latency_target_s=(None if args.slo_latency_ms is None
                              else args.slo_latency_ms / 1e3),
        straggler_device=straggler_device,
        straggler_delay_s=straggler_delay_s,
        batching=args.batching,
        autoscaler=autoscaler,
    )


def _print_obs_summary(args, server) -> None:
    """After a traced serve run: where the artifacts landed, what fired."""
    if args.trace:
        print(f"wrote span log to {args.trace}")
    slo = server.stats().get("slo", {})
    for alert in slo.get("alerts", ()):
        print(f"SLO BURN ALERT: window {alert['short_window_s']:g}s/"
              f"{alert['long_window_s']:g}s burn "
              f"{alert['short_burn']:.1f}x/{alert['long_burn']:.1f}x "
              f"(threshold {alert['threshold']:g}x)")
    if server.recorder is not None:
        for reason, path in sorted(server.recorder.paths.items()):
            print(f"flight-recorder dump ({reason}): {path}")


def cmd_serve(args) -> int:
    """Start the async server and run a short closed-loop demo against it."""
    from repro.bench.harness import run_serve_loadgen

    report, server = run_serve_loadgen(
        args.model, _serve_config(args), requests=args.requests,
        mode="closed", concurrency=min(4, args.requests or 1),
        seed=args.seed, manifest=args.manifest, trace=args.trace,
        **_serve_build_kwargs(args))
    stats = server.stats()
    print(f"served {stats['requests']['completed']} requests on "
          f"{stats['devices']['current']} simulated device(s): "
          f"p50 {stats['latency_s']['p50'] * 1e3:.1f} ms, "
          f"p99 {stats['latency_s']['p99'] * 1e3:.1f} ms, "
          f"plan cache {stats['plan_cache']['hits']}/{stats['plan_cache']['hits'] + stats['plan_cache']['misses']} hits "
          f"({stats['plan_cache']['size']} entries)")
    for entry in server.cache.snapshot():
        print(f"  bucket {entry['batch_bucket']:3d}: plan {entry['plan_digest']} "
              f"({entry['subgraphs']} subgraphs, "
              f"strategy {entry['strategy'] or 'model-chosen'}, "
              f"{entry['uses']} reuses)")
    _print_obs_summary(args, server)
    if args.manifest:
        print(f"wrote serving manifest to {args.manifest}")
    return 0


def cmd_loadgen(args) -> int:
    """Drive the serving layer with open-loop Poisson or closed-loop traffic."""
    from repro.bench.harness import run_serve_loadgen

    report, server = run_serve_loadgen(
        args.model, _serve_config(args), requests=args.requests,
        mode=args.mode, rate=args.rate, concurrency=args.concurrency,
        seed=args.seed, verify=args.verify, manifest=args.manifest,
        trace=args.trace, latency_csv=args.latency_csv,
        **_serve_build_kwargs(args))
    print(report.render())
    _print_obs_summary(args, server)
    if args.latency_csv:
        print(f"wrote per-request latency rows to {args.latency_csv}")
    if args.manifest:
        print(f"\nwrote serving manifest to {args.manifest}")
    return 0


def cmd_top(args) -> int:
    """Live serve-fleet dashboard: traffic runs while the terminal refreshes."""
    from repro.models import zoo
    from repro.obs import run_top
    from repro.serve import InferenceServer

    graph = zoo.build(args.model, **_serve_build_kwargs(args))
    server = InferenceServer(graph, config=_serve_config(args))
    report = run_top(server, refresh_s=args.refresh_ms / 1e3,
                     requests=args.requests, mode=args.mode, rate=args.rate,
                     concurrency=args.concurrency, seed=args.seed)
    print(report.render())
    return 0


def cmd_scenario(args) -> int:
    """Run (or list) the deterministic fleet-serving scenario packs."""
    from repro.serve.scenarios import SCENARIOS, run_scenario

    if args.action == "list":
        for name, s in sorted(SCENARIOS.items()):
            print(f"{name:12s} {s.description}")
        return 0
    report = run_scenario(
        args.name, seed=args.seed, batching=args.batching,
        requests=args.requests, verify=args.verify,
        reduced=not args.full, manifest_path=args.manifest,
        trace_path=args.trace)
    print(report.render())
    if args.manifest:
        print(f"wrote scenario manifest to {args.manifest}")
    if args.check:
        violations = report.check()
        for v in violations:
            print(f"objective violated: {v}", file=sys.stderr)
        return 1 if violations else 0
    return 0


def cmd_trace(args) -> int:
    """Inspect a serve span log: span trees, completeness, Perfetto export."""
    import json

    from repro.obs import (check_completeness, list_traces, load_entries,
                           merged_chrome_trace, render_span_tree)

    entries = load_entries(args.log)
    if args.action == "check":
        report = check_completeness(entries)
        print(report.summary())
        return 0 if report.ok else 1
    if args.action == "export":
        doc = merged_chrome_trace(entries)
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
        print(f"wrote {len(doc['traceEvents'])} trace events to {args.out}")
        return 0
    # show: one trace's span tree, or the trace listing.
    if args.trace_id:
        print(render_span_tree(entries, args.trace_id))
        return 0
    rows = list_traces(entries)
    for row in rows[: args.limit]:
        print(f"{row['trace_id']}  root={row['root'] or '?':<10s} "
              f"status={row['status']:<16s} spans={row['spans']:<4d} "
              f"tasks={row['tasks']:<5d} "
              f"duration={row['duration_ms']:8.2f} ms")
    if len(rows) > args.limit:
        print(f"... {len(rows) - args.limit} more "
              f"(--limit {len(rows)} to see all)")
    return 0


def cmd_microbench(args) -> int:
    from repro.bench.microbench import atomic_microbenchmark, compute_microbenchmark

    a = atomic_microbenchmark()
    c = compute_microbenchmark()
    print(f"T_atomic = {a.time_per_atomic_ns:.2f} ns   (paper: 87.45 ns)")
    print(f"T_brick  = {c.time_per_call_us:.2f} us   (paper: 6.72 us, 8^3 brick / 3^3 filter)")
    return 0


def _strategy(args):
    from repro.core.plan import Strategy

    if not getattr(args, "strategy", None):
        return None
    return Strategy(args.strategy)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(fn=cmd_models)

    for name, fn, help_ in (("plan", cmd_plan, "show the compiled execution plan"),
                            ("run", cmd_run, "profile a model on the simulated A100"),
                            ("profile", cmd_profile,
                             "run with the trace collector; export timeline + attribution"),
                            ("tune", cmd_tune, "empirically tune strategies/bricks per subgraph"),
                            ("lint", cmd_lint,
                             "static analysis: lint the graph and verify the plan invariants"),
                            ("sanitize", cmd_sanitize,
                             "dynamic analysis: run with the execution sanitizer suite attached")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("model")
        sp.add_argument("--image-size", type=int, default=None)
        sp.add_argument("--reduced", action="store_true", help="use the test-scale config")
        sp.add_argument("--strategy", choices=["padded", "memoized", "wavefront"], default=None)
        sp.add_argument("--brick", type=int, default=None)
        if name == "run":
            sp.add_argument("--compare", action="store_true", help="also run the cuDNN baseline")
            sp.add_argument("--per-subgraph", action="store_true",
                            help="attribute counters to each plan subgraph")
        if name == "lint":
            sp.add_argument("--protocol", action="store_true",
                            help="also model-check the memoization tag protocol")
            sp.add_argument("--run", action="store_true",
                            help="also execute the plan and replay-check its trace")
            sp.add_argument("--replay", default=None, metavar="TRACE.json",
                            help="replay-check an exported Chrome-trace JSON")
            sp.add_argument("--sanitize", action="store_true",
                            help="also execute functionally with the sanitizer suite")
            sp.add_argument("--rewrites", action="store_true",
                            help="dry-run the default rewrite rules and report "
                                 "which would fire (statically validated)")
            sp.add_argument("--effects", action="store_true",
                            help="also run the static effect analysis: race-freedom "
                                 "and exactly-once coverage proofs plus DRAM/L2 "
                                 "traffic bounds (no device execution)")
            sp.add_argument("--baseline", default=None, metavar="MANIFEST.json",
                            help="with --effects: assert the static DRAM bounds "
                                 "bracket this measured run manifest")
        if name == "profile":
            sp.add_argument("--trace", default=None, metavar="OUT.json",
                            help="write a Chrome-trace/Perfetto JSON timeline")
            sp.add_argument("--csv", default=None, metavar="OUT.csv",
                            help="write the per-node attribution summary as CSV")
            sp.add_argument("--per-node", action="store_true",
                            help="print the per-node attribution table")
        sp.set_defaults(fn=fn)

    rw = sub.add_parser(
        "rewrite", help="apply the graph-rewrite rules with translation validation")
    rw.add_argument("model")
    rw.add_argument("--image-size", type=int, default=None)
    rw.add_argument("--reduced", action="store_true", help="use the test-scale config")
    rw.add_argument("--rules", default=None, metavar="NAME[,NAME...]",
                    help="comma-separated registry rule names "
                         "(default: the seed pipeline)")
    rw.add_argument("--validate", action="store_true",
                    help="also discharge the differential obligation (original vs "
                         "rewritten through the reference executor, bit-identical); "
                         "default validation is static-only")
    rw.set_defaults(fn=cmd_rewrite)

    fig = sub.add_parser("fig", help="run an evaluation-figure driver (7-11)")
    fig.add_argument("number", type=int)
    fig.add_argument("--out", default="results", metavar="DIR",
                     help="directory for the rendered table + run manifests "
                          "(default: results/fig<N>/)")
    fig.add_argument("--no-save", action="store_true",
                     help="print only; do not persist the table or manifests")
    fig.set_defaults(fn=cmd_fig)

    met = sub.add_parser(
        "metrics", help="record / report / diff run manifests (the perf gate)")
    msub = met.add_subparsers(dest="action", required=True)
    rec = msub.add_parser("record", help="run a zoo model and write BENCH_<model>.json")
    rec.add_argument("model")
    rec.add_argument("--strategy", choices=["padded", "memoized", "wavefront"], default=None)
    rec.add_argument("--brick", type=int, default=None)
    rec.add_argument("--image-size", type=int, default=None)
    rec.add_argument("--reduced", action="store_true", help="use the test-scale config")
    rec.add_argument("--out", default=".", metavar="DIR",
                     help="directory for the manifest (default: cwd)")
    rec.add_argument("--label", default=None,
                     help="manifest label / filename suffix (default: the strategy)")
    rec.add_argument("--optimize", action="store_true",
                     help="run the validated graph-rewrite pipeline before compiling")
    rec.add_argument("--rules", default=None, metavar="NAME[,NAME...]",
                     help="rewrite with these registry rules only (implies --optimize)")
    rec.set_defaults(fn=cmd_metrics)
    rep = msub.add_parser("report", help="summarize recorded manifests")
    rep.add_argument("manifests", nargs="+", metavar="MANIFEST.json")
    rep.add_argument("--verbose", action="store_true",
                     help="also list per-subgraph plan decisions")
    rep.set_defaults(fn=cmd_metrics)
    dif = msub.add_parser(
        "diff", help="compare two manifests; exit 1 on tolerance-gated regression")
    dif.add_argument("base", metavar="BASE.json")
    dif.add_argument("new", metavar="NEW.json")
    dif.add_argument("--tolerance", action="append", metavar="NAME=FRACTION",
                     help="override a metric tolerance, e.g. memory.dram_txns=0.1 "
                          "(repeatable)")
    dif.add_argument("--verbose", action="store_true",
                     help="list every compared metric, not just movements")
    dif.add_argument("--require-identical", action="store_true",
                     help="exit 1 unless every metric is bit-equal "
                          "(the tracing-off purity gate)")
    dif.set_defaults(fn=cmd_metrics)

    for name, fn, help_ in (
            ("serve", cmd_serve,
             "start the async batching server and demo it with a few requests"),
            ("loadgen", cmd_loadgen,
             "drive the serving layer with Poisson / closed-loop traffic")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("model")
        sp.add_argument("--requests", type=int, default=8 if name == "serve" else 200)
        sp.add_argument("--devices", type=int, default=2,
                        help="simulated device fleet size")
        sp.add_argument("--max-batch", type=int, default=8)
        sp.add_argument("--max-wait-ms", type=float, default=20.0,
                        help="dynamic batcher hold on the head request")
        sp.add_argument("--queue-depth", type=int, default=64)
        sp.add_argument("--cache-capacity", type=int, default=16,
                        help="compiled-plan LRU entries")
        sp.add_argument("--timeout-ms", type=float, default=None,
                        help="per-request queueing deadline")
        sp.add_argument("--strategy", choices=["padded", "memoized", "wavefront"],
                        default=None)
        sp.add_argument("--brick", type=int, default=None)
        sp.add_argument("--profile", action="store_true",
                        help="profile mode: access streams/timing only, no outputs")
        sp.add_argument("--full", action="store_true",
                        help="serve the paper-scale model (default: reduced config)")
        sp.add_argument("--image-size", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--manifest", default=None, metavar="OUT.json",
                        help="write the serving-session run manifest")
        sp.add_argument("--trace", default=None, metavar="SPANS.jsonl",
                        help="trace every request end-to-end; write the span "
                             "log here (flight-recorder dumps land beside it)")
        sp.add_argument("--straggler", default=None, metavar="DEV:MS",
                        help="inject MS ms of wall delay on device DEV "
                             "(fault injection for the SLO/flight-recorder path)")
        sp.add_argument("--slo-objective", type=float, default=0.99,
                        help="deadline-attainment objective (default 0.99)")
        sp.add_argument("--slo-latency-ms", type=float, default=None,
                        help="count a request as SLO-bad unless it completes "
                             "within this latency (default: deadline only)")
        sp.add_argument("--batching", choices=["head", "edf"], default="head",
                        help="batch formation order: head-anchored arrival "
                             "order, or earliest-deadline-first")
        sp.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                        help="autoscale the device fleet between MIN and MAX "
                             "from queue-depth/burn signals")
        if name == "loadgen":
            sp.add_argument("--mode", choices=["poisson", "closed"], default="poisson")
            sp.add_argument("--rate", type=float, default=100.0,
                            help="open-loop arrival rate (requests/second)")
            sp.add_argument("--concurrency", type=int, default=8,
                            help="closed-loop clients")
            sp.add_argument("--on-saturation", choices=["degrade", "reject"],
                            default="degrade")
            sp.add_argument("--verify", type=int, default=0, metavar="K",
                            help="re-check K responses bit-identical to single-shot runs")
            sp.add_argument("--latency-csv", default=None, metavar="OUT.csv",
                            help="write one row per request: arrival/admitted/"
                                 "batched/completed, deadline attainment, trace id")
        else:
            sp.set_defaults(on_saturation="degrade")
        sp.set_defaults(fn=fn)

    top = sub.add_parser(
        "top", help="live dashboard: serve synthetic traffic and watch the fleet")
    top.add_argument("model")
    top.add_argument("--requests", type=int, default=400)
    top.add_argument("--devices", type=int, default=2)
    top.add_argument("--max-batch", type=int, default=8)
    top.add_argument("--max-wait-ms", type=float, default=20.0)
    top.add_argument("--queue-depth", type=int, default=64)
    top.add_argument("--cache-capacity", type=int, default=16)
    top.add_argument("--strategy", choices=["padded", "memoized", "wavefront"],
                     default=None)
    top.add_argument("--brick", type=int, default=None)
    top.add_argument("--profile", action="store_true",
                     help="profile mode: access streams/timing only, no outputs")
    top.add_argument("--full", action="store_true")
    top.add_argument("--image-size", type=int, default=None)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--mode", choices=["poisson", "closed"], default="poisson")
    top.add_argument("--rate", type=float, default=100.0)
    top.add_argument("--concurrency", type=int, default=8)
    top.add_argument("--refresh-ms", type=float, default=500.0,
                     help="dashboard refresh period")
    top.add_argument("--straggler", default=None, metavar="DEV:MS")
    top.add_argument("--slo-objective", type=float, default=0.99)
    top.add_argument("--slo-latency-ms", type=float, default=None)
    # Not flags of ``top``: the shared config helper reads them as fixed.
    top.set_defaults(fn=cmd_top, timeout_ms=None, on_saturation="degrade",
                     batching="head", autoscale=None)

    sc = sub.add_parser(
        "scenario",
        help="deterministic fleet-serving scenarios (diurnal / burst / "
             "heavy-tail / straggler / multitenant)")
    ssub = sc.add_subparsers(dest="action", required=True)
    slist = ssub.add_parser("list", help="list the scenario pack")
    slist.set_defaults(fn=cmd_scenario)
    srun = ssub.add_parser(
        "run", help="replay one scenario in virtual time; print its report")
    srun.add_argument("name")
    srun.add_argument("--seed", type=int, default=0)
    srun.add_argument("--batching", choices=["head", "edf"], default=None,
                      help="override the interactive class's batching mode")
    srun.add_argument("--requests", type=int, default=None,
                      help="override the scenario's request count")
    srun.add_argument("--verify", type=int, default=0, metavar="K",
                      help="re-check K responses bit-identical to "
                           "single-shot runs (forces functional mode)")
    srun.add_argument("--check", action="store_true",
                      help="evaluate the scenario's objectives; exit 1 on "
                           "any violation (the CI conformance gate)")
    srun.add_argument("--full", action="store_true",
                      help="serve paper-scale models (default: reduced)")
    srun.add_argument("--manifest", default=None, metavar="OUT.json")
    srun.add_argument("--trace", default=None, metavar="SPANS.jsonl")
    srun.set_defaults(fn=cmd_scenario)

    tr = sub.add_parser(
        "trace", help="inspect a serve span log (show / check / export)")
    tsub = tr.add_subparsers(dest="action", required=True)
    tshow = tsub.add_parser("show", help="list traces, or print one span tree")
    tshow.add_argument("log", metavar="SPANS.jsonl")
    tshow.add_argument("--trace-id", default=None,
                       help="render this trace's span tree")
    tshow.add_argument("--limit", type=int, default=20,
                       help="max traces to list (default 20)")
    tshow.set_defaults(fn=cmd_trace)
    tcheck = tsub.add_parser(
        "check", help="verify span-tree completeness; exit 1 on problems")
    tcheck.add_argument("log", metavar="SPANS.jsonl")
    tcheck.set_defaults(fn=cmd_trace)
    texp = tsub.add_parser(
        "export", help="merge serve + device spans into Perfetto JSON")
    texp.add_argument("log", metavar="SPANS.jsonl")
    texp.add_argument("--out", required=True, metavar="OUT.json")
    texp.set_defaults(fn=cmd_trace)

    sub.add_parser("microbench", help="the section 4.3 calibration scalars").set_defaults(fn=cmd_microbench)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro plan ... | head`
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
