"""The repo benchmark: one command, four workloads, checked outputs.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace 0|1] [--smoke] [--out FILE]
                                   [--trace-out FILE] [--baselines DIR]

With ``--workload`` this process is the workload's fresh interpreter; without
it each workload runs in a child interpreter of its own, one at a time, so
peak memory and warm caches do not leak from one workload into the next.
Every metric is printed by name with its unit, every check runs outside the
timed regions, and a failed check makes the exit code non-zero.  The last
line of standard output is the result object BENCHMARK.json describes: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  README.md in this directory says what each metric means.
"""

from __future__ import annotations

import time

# Set-up time counts from here: the imports below and the workload's own are
# what a user pays before the first useful operation.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from perf_common import (REPO_ROOT, WORKLOADS, Outcome, RunConfig,  # noqa: E402
                         Yardstick, load_benchmark_json, median, peak_rss_mb)
from perf_trace import Recorder  # noqa: E402

# Set-up is timed in this many interpreters per run (this one included) and
# the median reported; each of the others runs ``--setup-only``.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
# Units of host time: scaled to the yardstick's nominal speed (a rate the
# other way).  Simulated, virtual-clock and serve-loop-clock units are not.
HOST_TIME_UNITS = ("s", "host_s", "host_ms", "host_us")
HOST_RATE_UNITS = ("1/s",)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="run one workload in this interpreter (default: all "
                        "four, each in a child interpreter)")
    p.add_argument("--seed", type=int, default=0,
                   help="draws request inputs and arrival times")
    p.add_argument("--seconds", type=float, default=None,
                   help="how long to measure (default: BENCHMARK.json's "
                        "run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one plain and one traced pass, per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="reduced models and a few requests; numbers from a "
                        "smoke run are never compared")
    p.add_argument("--out", type=pathlib.Path, default=None,
                   help="append this run's full record to a JSON file "
                        "(compare.py reads two of them)")
    p.add_argument("--trace-out", type=pathlib.Path, default=None,
                   help="with --trace 1: write the spans as JSON")
    p.add_argument("--baselines", type=pathlib.Path,
                   default=REPO_ROOT / "benchmarks" / "baselines",
                   help="committed reduced-scale manifests sim_full must "
                        "still reproduce")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_argv(args: argparse.Namespace, workload: str) -> list[str]:
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--baselines", str(args.baselines)]
    if args.smoke:
        argv.append("--smoke")
    return argv


def _setup_in_child(args: argparse.Namespace) -> float:
    done = subprocess.run(
        _child_argv(args, args.workload) + ["--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _traced(wl, state, cfg: RunConfig, args: argparse.Namespace) -> Outcome:
    """One plain pass, then one pass under the timing wrappers."""
    once = dataclasses.replace(cfg, passes=1)
    plain = wl.measure(state, once, Recorder())
    if hasattr(wl, "verify"):
        wl.verify(state, cfg, plain)
    rec = Recorder()
    rec.install()
    try:
        traced = wl.measure(state, once, rec)
    finally:
        rec.uninstall()
    out = Outcome(
        metrics=dict(plain.metrics),
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        check_failures=plain.check_failures + traced.check_failures,
        exact=plain.exact)
    if plain.exact != traced.exact:
        out.check_failures.append(
            "the plain and the traced pass disagree on "
            + ", ".join(sorted(k for k in plain.exact
                               if plain.exact[k] != traced.exact.get(k))))
    out.metrics.update(rec.layer_metrics())
    if hasattr(wl, "traced_metrics"):
        out.metrics.update(wl.traced_metrics(state, cfg, rec, plain, traced))
    if "host_time_s" in plain.metrics and "host_time_s" in traced.metrics:
        base = plain.metrics["host_time_s"]
        out.metrics["bench.trace_overhead_share"] = (
            traced.metrics["host_time_s"] - base) / base
    if args.trace_out is not None:
        rec.write(args.trace_out)
        print(f"wrote {rec.span_count()} spans to {args.trace_out}")
    return out


def _report(args: argparse.Namespace, out: Outcome, bench: dict,
            yard: Yardstick) -> int:
    """Print every metric, then the result object; returns the exit code."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    unknown = sorted(set(out.metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    factor = yard.factor()
    for name in out.metrics:
        if name == "setup_s":
            continue  # each interpreter scaled its own by its own yardstick
        if units[name] in HOST_TIME_UNITS:
            out.metrics[name] *= factor
        elif units[name] in HOST_RATE_UNITS:
            out.metrics[name] /= factor
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  seconds {args.seconds:g}{'  smoke' if args.smoke else ''}")
    print(f"  host times x {factor:.4f}: the yardstick took "
          f"{median(yard.samples) * 1e3:.2f} ms, nominally "
          f"{yard.NOMINAL_S * 1e3:g} ms ({len(yard.samples)} samples)")
    for name in units:
        if name in out.metrics:
            print(f"  {name} = {out.metrics[name]!r} {units[name]}")
    for name, value in out.exact.items():
        print(f"  exact {name} = {value}")
    for reason in out.check_failures:
        print(f"  CHECK FAILED: {reason}")
    print(f"  attempted {out.attempted}  failed {out.failed}  "
          f"failed_share {out.failed / max(out.attempted, 1):g}")

    if args.out is not None:
        _append_record(args, out, factor)
    if args.trace:
        # A layer that did not run on this workload measured nothing: 0.
        wanted = {m["name"]: out.metrics.get(m["name"], 0.0)
                  for m in bench["per_layer"]}
    else:
        missing = [m["name"] for m in bench["end_to_end"]
                   if m["name"] not in out.metrics]
        if missing:
            print(f"no result: {missing} could not be measured", file=sys.stderr)
            return 1
        wanted = {m["name"]: out.metrics[m["name"]] for m in bench["end_to_end"]}
    print(json.dumps({
        "correct": out.correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in wanted.items()},
    }))
    return 0 if out.correct else 1


def _append_record(args: argparse.Namespace, out: Outcome,
                   factor: float) -> None:
    import numpy

    doc = {"runs": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["runs"].append({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "correct": out.correct, "attempted": out.attempted,
        "failed": out.failed, "check_failures": out.check_failures,
        "metrics": out.metrics, "exact": out.exact,
        "yardstick_factor": factor,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


def run_one(args: argparse.Namespace, bench: dict) -> int:
    yard = Yardstick()
    cfg = RunConfig(yard=yard, seed=args.seed, seconds=args.seconds,
                    smoke=args.smoke, baselines=args.baselines)
    wl = importlib.import_module(f"wl_{args.workload}")
    state = wl.setup(cfg)
    own_setup_s = time.perf_counter() - _T0
    # Idling first only where set-up left threads behind (a served warm-up
    # batch): after an idle spell the first samples read slow, which in sizing
    # tripled the spread of the import-only set-ups.
    speed = yard.sample_gap(after_threads=threading.active_count() > 1)
    own_setup_s *= yard.NOMINAL_S / speed
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        if args.trace:
            out = _traced(wl, state, cfg, args)
        else:
            samples = [own_setup_s] + [_setup_in_child(args)
                                       for _ in range(SETUP_SAMPLES - 1)]
            out = wl.measure(state, cfg, Recorder())
            out.metrics["setup_s"] = median(samples)
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            if hasattr(wl, "verify"):
                wl.verify(state, cfg, out)
    finally:
        if hasattr(wl, "teardown"):
            wl.teardown(state)
    return _report(args, out, bench, yard)


def run_all(args: argparse.Namespace) -> int:
    worst = 0
    for workload in WORKLOADS:
        argv = _child_argv(args, workload)
        if args.out is not None:
            argv += ["--out", str(args.out)]
        if args.trace_out is not None:
            argv += ["--trace-out",
                     str(args.trace_out.with_suffix(f".{workload}.json"))]
        worst = max(worst, subprocess.run(argv, timeout=CHILD_TIMEOUT_S).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"run.py: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = load_benchmark_json()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
