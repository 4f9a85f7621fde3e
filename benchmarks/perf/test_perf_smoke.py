"""The benchmark's own tests (``python -m pytest benchmarks/perf -q``).

Not part of tier-1: they run the benchmark end to end in ``--smoke`` size and
check it against BENCHMARK.json, the contract later changes are measured by.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

PERF_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

from compare import verdict  # noqa: E402
from perf_common import REPO_ROOT, WORKLOADS, load_benchmark_json  # noqa: E402

BENCH = load_benchmark_json()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", *flags],
        capture_output=True, text=True, timeout=170, cwd=REPO_ROOT)


def _results(stdout: str) -> dict[str, dict]:
    """Result objects by workload, from the output of an all-workloads run."""
    results, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith('{"correct"'):
            results[workload] = json.loads(line)
    return results


@pytest.fixture(scope="module")
def plain():
    done = _run()
    assert done.returncode == 0, done.stdout + done.stderr
    return _results(done.stdout)


@pytest.fixture(scope="module")
def traced():
    done = _run("--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    return _results(done.stdout)


def test_benchmark_json_is_well_formed():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names), names
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["unit"] and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])


def test_plain_run_reports_every_end_to_end_metric(plain):
    assert set(plain) == set(WORKLOADS)
    wanted = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for workload, result in plain.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted, workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_traced_run_reports_every_per_layer_metric(traced):
    assert set(traced) == set(WORKLOADS)
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for workload, result in traced.items():
        assert result["correct"] is True and result["failed"] == 0, workload
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted, workload
        assert result["metrics"]["bench.trace_overhead_share"]["value"] != 0


def test_workloads_isolate_their_layers(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    for name in (m["name"] for m in BENCH["per_layer"]):
        if name.startswith("gpusim.") or name.startswith("kernels."):
            assert value("compile_zoo", name) == 0, name
        if name.startswith("rewrite.") or name.startswith("analysis."):
            assert value("sim_full", name) == 0, name
        if name.startswith("kernels."):
            assert value("sim_full", name) == 0, name
            assert value("serve_vtime", name) == 0, name
    assert value("sim_full", "core.memoized.self_s") > 0
    assert value("sim_full", "core.padded.self_s") > 0
    assert value("compile_zoo", "analysis.effects_s") > 0
    assert value("serve_closed", "kernels.apply_s") > 0
    assert value("serve_vtime", "obs.slo_observe_us_per_req") > 0
    # The all-fallback model never reaches a brick executor.
    assert value("serve_vtime", "core.memoized.self_s") == 0
    assert value("serve_vtime", "core.fallback.self_s") > 0


def test_wrong_baseline_fails_the_run(tmp_path):
    baselines = tmp_path / "baselines"
    shutil.copytree(REPO_ROOT / "benchmarks" / "baselines", baselines)
    path = baselines / "BENCH_vgg16__padded.json"
    doc = json.loads(path.read_text())
    doc["metrics"]["num_tasks"] -= 1
    path.write_text(json.dumps(doc))
    done = _run("--workload", "sim_full", "--baselines", str(baselines))
    assert done.returncode != 0
    assert "CHECK FAILED: baseline vgg16/padded" in done.stdout
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_out_file_accumulates_runs(tmp_path):
    out = tmp_path / "runs.json"
    for seed in ("1", "2"):
        done = _run("--workload", "serve_vtime", "--seed", seed, "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [r["seed"] for r in runs] == [1, 2]
    # Another seed is another arrival plan, so another session.
    assert (runs[0]["exact"]["manifest_fingerprint"]
            != runs[1]["exact"]["manifest_fingerprint"])


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [v * 1.2 for v in steady], "lower", "rel", 0.1)[0] == "regressed"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", "rel", 0.1)[0] == "better"
    assert verdict(steady, [v * 1.02 for v in steady], "lower", "rel", 0.1)[0] == "within-bound"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", "rel", 0.1)[0] == "regressed"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", "rel", 0.1)[0] == "unresolved"
    assert verdict(noisy, [v * 0.5 for v in noisy], "lower", "rel", 0.1)[0] == "better"
    assert verdict([0.99] * 4, [0.98] * 4, "higher", "abs", 0.005)[0] == "regressed"
