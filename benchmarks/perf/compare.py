"""Compare two result files written by ``run.py --out``, row by row.

    python3 benchmarks/perf/compare.py A.json B.json

A is the parent (or the first run set), B the change (or the second).  Each
row is one workload x metric that has a regression bound: the end-to-end
metrics of BENCHMARK.json, and the user-visible metrics in ``GUARDS`` that
exist on some workloads only.  The verdicts:

* ``regressed``    B's median is worse than A's by more than the bound;
* ``better``       B's median is better by more than the bound, or the spread
                   is wider than the bound and yet every run of B reads
                   better than every run of A;
* ``within-bound`` neither;
* ``unresolved``   the run-to-run spread (distance between the quartiles over
                   the median, of either side) is wider than the bound, so
                   the runs cannot tell -- not the same as "unchanged".

Metrics that are a function of the seed alone (virtual-time latencies, the
modelled time) are compared seed by seed when both files hold the same
seeds: their spread across seeds is the workload's variety, not noise.

Exits non-zero when any row regressed or any operation failed more often.
Values that repeat exactly (digests, fingerprints) are compared per workload
and seed and listed when they differ; a policy change moves them on purpose,
two run sets of one commit must not.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from perf_common import WORKLOADS, load_benchmark_json

# Bounds for user-visible metrics that BENCHMARK.json's flat schema lists as
# per-layer because they exist on one or two workloads only (or repeat
# exactly, which the driver does not accept of a time).  ("rel", x): may
# worsen by the share x of A's median; ("abs", x): by x.  The third field
# names the workloads the bound holds on.
GUARDS = {
    "sim_model_time_ms": ("rel", 0.01, ("sim_full", "serve_vtime")),
    "serve_rps": ("rel", 0.15, ("serve_closed",)),
    "serve_latency_p50_ms": ("rel", 0.15, ("serve_closed",)),
    "serve_latency_p90_ms": ("rel", 0.20, ("serve_closed",)),
    "serve_host_us_per_req": ("rel", 0.15, ("serve_vtime",)),
    "vt_latency_p50_units": ("rel", 0.02, ("serve_vtime",)),
    "vt_latency_p99_units": ("rel", 0.02, ("serve_vtime",)),
    "vt_good_share": ("abs", 0.005, ("serve_vtime",)),
    "vt_devices_mean": ("rel", 0.02, ("serve_vtime",)),
}
# Functions of the seed alone on the workloads they are guarded on.
PER_SEED = ("sim_model_time_ms", "vt_latency_p50_units", "vt_latency_p99_units",
            "vt_good_share", "vt_devices_mean")


def load_runs(path: str) -> dict:
    """``{workload: [run record]}`` of the plain, full-size runs in a file."""
    with open(path) as fh:
        doc = json.load(fh)
    runs = defaultdict(list)
    for run in doc["runs"]:
        if not run["smoke"] and not run["trace"]:
            runs[run["workload"]].append(run)
    return runs


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a: list[float], b: list[float], better: str, kind: str,
            bound: float) -> tuple[str, float, float | None]:
    """``(verdict, how much worse B is, spread)``, both in the bound's terms:
    shares of the median for a relative bound, raw for an absolute one."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    scale_a = abs(ma) if kind == "rel" and ma else 1.0
    scale_b = abs(mb) if kind == "rel" and mb else 1.0
    worse = sign * (mb - ma) / scale_a
    spreads = [s / scale for s, scale in ((_spread(a), scale_a),
                                          (_spread(b), scale_b))
               if s is not None]
    spread = max(spreads) if spreads else None
    if spread is not None and spread > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("better" if all_better else "unresolved"), worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if worse < -bound:
        return "better", worse, spread
    return "within-bound", worse, spread


def _seed_by_seed(a_runs: list, b_runs: list, name: str, kind: str):
    """B's values relative to A's of the same seed (A's become 1, or 0 for
    an absolute bound), or ``None`` unless each seed occurs once a side."""
    a = {r["seed"]: r["metrics"][name] for r in a_runs}
    b = {r["seed"]: r["metrics"][name] for r in b_runs}
    if len(a) != len(a_runs) or len(b) != len(b_runs) or set(a) != set(b):
        return None
    if kind == "abs":
        return [0.0] * len(a), [b[seed] - a[seed] for seed in a]
    return [1.0] * len(a), [b[seed] / a[seed] for seed in a]


def compare(runs_a: dict, runs_b: dict, bench: dict) -> tuple[list[list], list[str]]:
    """Table rows, and the exact values that differ."""
    bounded = {m["name"]: (m["better"], "rel", m["bound"], WORKLOADS)
               for m in bench["end_to_end"]}
    direction = {m["name"]: m["better"] for m in bench["per_layer"]}
    for name, (kind, bound, workloads) in GUARDS.items():
        bounded[name] = (direction[name], kind, bound, workloads)

    rows, changed = [], []
    for workload in WORKLOADS:
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            continue
        for name, (better, kind, bound, workloads) in bounded.items():
            if workload not in workloads:
                continue
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            paired = (_seed_by_seed(a_runs, b_runs, name, kind)
                      if name in PER_SEED else None)
            status, worse, spread = verdict(*(paired or (a, b)), better, kind,
                                            bound)
            rows.append([workload, name, statistics.median(a),
                         statistics.median(b), worse, bound, kind, spread,
                         len(a), len(b), status])
        fa = sum(r["failed"] for r in a_runs) / max(sum(r["attempted"] for r in a_runs), 1)
        fb = sum(r["failed"] for r in b_runs) / max(sum(r["attempted"] for r in b_runs), 1)
        rows.append([workload, "failed_share", fa, fb, fb - fa, 0.0, "abs",
                     None, len(a_runs), len(b_runs),
                     "regressed" if fb > fa else "within-bound"])
        exact_a = {r["seed"]: r["exact"] for r in a_runs}
        for run in b_runs:
            for key, value in run["exact"].items():
                before = exact_a.get(run["seed"], {}).get(key)
                if before is not None and before != value:
                    changed.append(f"{workload} seed {run['seed']} {key}: "
                                   f"{before} -> {value}")
    return rows, changed


def render(rows: list[list]) -> str:
    lines = [f"{'workload':<13}{'metric':<24}{'A median':>14}{'B median':>14}"
             f"{'B worse by':>12}{'bound':>9}{'spread':>9}{'n':>7}  verdict"]
    for (workload, name, ma, mb, worse, bound, kind, spread, na, nb,
         status) in rows:
        pct = kind == "rel"
        fmt = (lambda v: f"{v:+.1%}") if pct else (lambda v: f"{v:+.4g}")
        lines.append(
            f"{workload:<13}{name:<24}{ma:>14.6g}{mb:>14.6g}{fmt(worse):>12}"
            f"{(f'{bound:.1%}' if pct else f'{bound:g}'):>9}"
            f"{('-' if spread is None else fmt(spread).lstrip('+')):>9}"
            f"{f'{na}/{nb}':>7}  {status}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows, changed = compare(load_runs(argv[0]), load_runs(argv[1]),
                            load_benchmark_json())
    print(render(rows))
    if changed:
        print(f"{len(changed)} exact value(s) differ:")
        for line in changed:
            print(f"  {line}")
    else:
        print("exact values: identical wherever both files have the "
              "workload and seed")
    regressed = [r for r in rows if r[-1] == "regressed"]
    print(f"{len(regressed)} regressed, "
          f"{sum(r[-1] == 'unresolved' for r in rows)} unresolved, "
          f"{sum(r[-1] == 'better' for r in rows)} better, "
          f"{sum(r[-1] == 'within-bound' for r in rows)} within bound")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
