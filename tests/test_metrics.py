"""Metrics subsystem: registry, attribution, manifests, diff gate."""

import json

import pytest

from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.metrics import (
    COMPONENTS,
    DEFAULT_TOLERANCES,
    MetricsRegistry,
    RunManifest,
    attribute_run,
    attribute_subgraphs,
    diff_manifests,
    manifest_from_result,
    plan_digest,
)
from repro.distributed.comm import CommModel

from testlib import small_chain_graph


def run_graph(graph, strategy=None, brick=None, device=None):
    engine = BrickDLEngine(graph, strategy_override=strategy, brick_override=brick)
    plan = engine.compile()
    device = device or Device(A100)
    result = engine.run(inputs=None, functional=False, device=device, plan=plan)
    return result, plan


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.inc("txns", 3)
        reg.inc("txns", 2)
        reg.gauge("level").set(7)
        reg.histogram("sizes").observe(100.0)
        assert reg.total("txns") == 5
        assert reg.total("level") == 7
        assert reg.histogram("sizes").count == 1
        with pytest.raises(ValueError):
            reg.counter("txns").inc(-1)

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_label_scopes_nest_and_pop(self):
        reg = MetricsRegistry()
        reg.set_base(model="m")
        with reg.label_scope(strategy="padded", subgraph=0):
            with reg.label_scope(subgraph=1):
                reg.inc("txns", node=5)
        reg.inc("txns", 10)
        series = reg.series("txns")
        assert (("model", "m"), ("strategy", "padded"), ("subgraph", "1"),
                ("node", "5")) in series
        # After the scopes pop, only the base label applies.
        assert series[(("model", "m"),)] == 10

    def test_hierarchy_keys_lead_label_ordering(self):
        reg = MetricsRegistry()
        reg.inc("x", node=1, model="m", zz="later", strategy="s")
        (labels,) = reg.series("x")
        assert [k for k, _ in labels] == ["model", "strategy", "node", "zz"]

    def test_total_rolls_up_label_subsets(self):
        reg = MetricsRegistry()
        with reg.label_scope(subgraph=0):
            reg.inc("txns", 2, node=1)
            reg.inc("txns", 3, node=2)
        with reg.label_scope(subgraph=1):
            reg.inc("txns", 5, node=1)
        assert reg.total("txns") == 10
        assert reg.total("txns", subgraph=0) == 5
        assert reg.total("txns", node=1) == 7
        assert reg.total("txns", subgraph=1, node=1) == 5

    def test_context_token_tracks_label_changes(self):
        reg = MetricsRegistry()
        t0 = reg.context_token
        with reg.label_scope(subgraph=0):
            assert reg.context_token != t0
            inner = reg.context_token
        assert reg.context_token != inner
        reg.set_base(model="m")
        assert reg.context_token > t0

    def test_as_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.set_base(model="m")
        with reg.label_scope(strategy="padded"):
            reg.inc("txns", 4, node=3)
        reg.gauge("level").set(2.5)
        reg.histogram("sizes").observe(33.0)
        clone = MetricsRegistry.from_dict(json.loads(json.dumps(reg.as_dict())))
        assert clone.as_dict() == reg.as_dict()
        assert clone.total("txns", node=3) == 4


# ---------------------------------------------------------------------------
# Device / executor instrumentation
# ---------------------------------------------------------------------------

class TestInstrumentation:
    def test_registry_reconciles_with_run_metrics(self):
        result, _ = run_graph(small_chain_graph(size=48))
        reg = result.registry
        m = result.metrics
        assert reg is not None
        assert reg.total("tasks") == m.num_tasks
        assert reg.total("flops") == pytest.approx(m.total_flops)
        # Reads happen only inside tasks, so node-level series must sum to
        # the run total exactly; writes gain the end-of-run flush on top.
        assert reg.total("dram_read_txns") == m.memory.dram_read_txns
        assert reg.total("dram_write_txns") <= m.memory.dram_write_txns
        assert reg.total("l2_txns") == m.memory.l2_txns

    def test_labels_carry_model_strategy_subgraph(self):
        result, plan = run_graph(small_chain_graph(size=48),
                                 strategy=Strategy.PADDED)
        series = result.registry.series("tasks")
        labels = {dict(k).get("model") for k in series}
        assert labels == {"chain"}
        strategies = {dict(k).get("strategy") for k in series}
        assert "padded" in strategies
        merged = [s.index for s in plan.subgraphs if s.is_merged]
        per_sub = sum(result.registry.total("tasks", subgraph=i) for i in merged)
        assert per_sub == sum(result.registry.total("tasks", subgraph=s.index)
                              for s in plan.subgraphs if s.is_merged)

    def test_memoized_records_memo_counters(self):
        result, _ = run_graph(small_chain_graph(size=48),
                              strategy=Strategy.MEMOIZED)
        reg = result.registry
        assert reg.total("memo_bricks_computed") > 0
        assert reg.total("memo_table_visits") > 0
        assert reg.total("memo_cas_retries") >= 0

    def test_cache_stats_exported_as_gauges(self):
        result, _ = run_graph(small_chain_graph(size=48))
        reg = result.registry
        assert reg.total("cache_hit_bytes") >= 0
        assert reg.total("cache_miss_bytes") > 0

    def test_comm_model_records_halo_metrics(self):
        reg = MetricsRegistry()
        comm = CommModel(registry=reg)
        comm.exchange_step([1000, 2000])
        comm.exchange_step([])
        assert reg.total("halo_exchange_steps") == 2
        assert reg.total("halo_exchange_messages") == 2
        assert reg.total("halo_exchange_bytes") == 3000
        assert reg.histogram("halo_message_bytes").count == 2


# ---------------------------------------------------------------------------
# Bottleneck attribution
# ---------------------------------------------------------------------------

class TestAttribution:
    def test_components_and_shares_cover_the_model(self):
        result, _ = run_graph(small_chain_graph(size=48))
        report = attribute_run(result.metrics, A100, label="chain")
        assert report.bound in COMPONENTS
        assert set(report.components) == set(COMPONENTS)
        assert report.total_s == pytest.approx(result.metrics.total_time)
        assert all(v >= 0 for v in report.shares.values())
        assert report.speedup_ceiling >= 1.0
        assert "bound" in report.describe()

    def test_roofline_position_is_consistent(self):
        result, _ = run_graph(small_chain_graph(size=48))
        roof = attribute_run(result.metrics, A100).roofline
        assert roof.peak_flops == A100.num_sms * A100.sm_flops
        assert roof.memory_bw == A100.txn_rate * A100.transaction_bytes
        assert roof.ridge_intensity == pytest.approx(roof.peak_flops / roof.memory_bw)
        assert roof.attainable_flops <= roof.peak_flops
        assert roof.memory_bound == (roof.arithmetic_intensity < roof.ridge_intensity)

    def test_memoized_is_atomic_heavier_than_padded(self):
        # The paper's central strategy tradeoff, visible in the attribution:
        # memoization pays atomic CAS traffic that padding never issues.
        graph = small_chain_graph(size=48)
        padded, _ = run_graph(small_chain_graph(size=48), strategy=Strategy.PADDED)
        memo, _ = run_graph(graph, strategy=Strategy.MEMOIZED)
        rp = attribute_run(padded.metrics, A100, label="padded")
        rm = attribute_run(memo.metrics, A100, label="memoized")
        assert rm.components["atomic"] > rp.components["atomic"]
        assert rm.shares["atomic"] > rp.shares["atomic"]

    def test_per_subgraph_attribution_aligns_with_plan(self):
        result, plan = run_graph(small_chain_graph(size=48))
        reports = attribute_subgraphs(result.per_subgraph, A100, plan)
        assert len(reports) == len(plan.subgraphs)
        for sub, report in zip(plan.subgraphs, reports):
            assert sub.strategy.value in report.label
            assert report.bound in COMPONENTS


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------

class TestManifest:
    def test_round_trip(self, tmp_path):
        result, _ = run_graph(small_chain_graph(size=48))
        manifest = manifest_from_result("chain", result, A100,
                                        label="padded", scale="test")
        path = manifest.save(tmp_path / "BENCH_chain.json")
        loaded = RunManifest.load(path)
        assert loaded.as_dict() == manifest.as_dict()
        assert loaded.metrics["num_tasks"] == result.metrics.num_tasks
        assert loaded.plan["digest"] == plan_digest(result.plan)
        assert loaded.bottleneck["run"]["bound"] in COMPONENTS
        assert "chain" in loaded.summary()

    def test_plan_digest_is_stable_and_decision_sensitive(self):
        graph = small_chain_graph(size=48)
        plan_a = BrickDLEngine(graph, strategy_override=Strategy.PADDED).compile()
        plan_b = BrickDLEngine(small_chain_graph(size=48),
                               strategy_override=Strategy.PADDED).compile()
        plan_c = BrickDLEngine(small_chain_graph(size=48),
                               strategy_override=Strategy.MEMOIZED).compile()
        assert plan_digest(plan_a) == plan_digest(plan_b)
        assert plan_digest(plan_a) != plan_digest(plan_c)

    def test_newer_version_rejected(self):
        with pytest.raises(ValueError):
            RunManifest.from_dict({"version": 999, "model": "x"})

    def test_git_sha_shells_out_once_per_process(self, monkeypatch):
        import subprocess

        from repro.metrics import manifest as manifest_module

        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        manifest_module.git_sha.cache_clear()
        result, _ = run_graph(small_chain_graph(size=48))
        shas = {manifest_from_result("chain", result, A100).git_sha for _ in range(3)}
        assert len(calls) == 1 and shas == {manifest_module.git_sha()}


# ---------------------------------------------------------------------------
# Manifest diff: the perf gate
# ---------------------------------------------------------------------------

def _manifest(tmp_path, name, scale_txns=1.0):
    result, _ = run_graph(small_chain_graph(size=48), strategy=Strategy.PADDED)
    manifest = manifest_from_result("chain", result, A100, label="padded")
    if scale_txns != 1.0:
        mem = manifest.metrics["memory"]
        for key in ("dram_txns", "dram_read_txns"):
            mem[key] = int(mem[key] * scale_txns)
    return manifest.save(tmp_path / name)


class TestDiff:
    def test_identical_manifests_are_ok(self, tmp_path):
        base = _manifest(tmp_path, "base.json")
        report = diff_manifests(RunManifest.load(base), RunManifest.load(base))
        assert report.ok
        assert not report.regressions

    def test_seeded_dram_regression_fails(self, tmp_path):
        base = RunManifest.load(_manifest(tmp_path, "base.json"))
        worse = RunManifest.load(_manifest(tmp_path, "worse.json", scale_txns=1.10))
        report = diff_manifests(base, worse)
        assert not report.ok
        assert any(d.name == "memory.dram_txns" for d in report.regressions)
        assert "REGRESSION" in report.render()

    def test_within_tolerance_passes(self, tmp_path):
        base = RunManifest.load(_manifest(tmp_path, "base.json"))
        drift = RunManifest.load(_manifest(tmp_path, "drift.json", scale_txns=1.03))
        assert diff_manifests(base, drift).ok

    def test_improvement_reported_not_fatal(self, tmp_path):
        base = RunManifest.load(_manifest(tmp_path, "base.json"))
        better = RunManifest.load(_manifest(tmp_path, "better.json", scale_txns=0.5))
        report = diff_manifests(base, better)
        assert report.ok
        assert report.improvements

    def test_untracked_metric_never_gates(self, tmp_path):
        base = RunManifest.load(_manifest(tmp_path, "base.json"))
        new = RunManifest.load(_manifest(tmp_path, "new.json"))
        new.metrics["experimental"] = base.metrics.get("experimental", 0) + 999
        base.metrics["experimental"] = 1
        assert "experimental" not in DEFAULT_TOLERANCES
        assert diff_manifests(base, new).ok

    def test_tolerance_override_tightens_the_gate(self, tmp_path):
        base = RunManifest.load(_manifest(tmp_path, "base.json"))
        drift = RunManifest.load(_manifest(tmp_path, "drift.json", scale_txns=1.03))
        report = diff_manifests(base, drift, tolerances={"memory.dram_txns": 0.0})
        assert not report.ok

    def test_context_mismatch_warns_not_fails(self, tmp_path):
        base = RunManifest.load(_manifest(tmp_path, "base.json"))
        other = RunManifest.load(_manifest(tmp_path, "other.json"))
        other.model = "different"
        other.spec = dict(other.spec, num_sms=1)
        report = diff_manifests(base, other)
        assert report.ok
        assert any("model mismatch" in w for w in report.warnings)
        assert any("spec constants differ" in w for w in report.warnings)

    def test_cli_diff_exit_codes(self, tmp_path):
        from repro.cli import main

        base = _manifest(tmp_path, "base.json")
        worse = _manifest(tmp_path, "worse.json", scale_txns=1.12)
        assert main(["metrics", "diff", str(base), str(base)]) == 0
        assert main(["metrics", "diff", str(base), str(worse)]) == 1
        # Loosening the tolerance lets the same delta through.
        assert main(["metrics", "diff", str(base), str(worse),
                     "--tolerance", "memory.dram_txns=0.5",
                     "--tolerance", "memory.dram_read_txns=0.5"]) == 0
        assert main(["metrics", "diff", str(base), str(worse),
                     "--tolerance", "bogus"]) == 2


# ---------------------------------------------------------------------------
# Histogram quantile edge cases
# ---------------------------------------------------------------------------

class TestHistogramEdges:
    def _hist(self, *values, buckets=(1.0, 10.0, 100.0)):
        from repro.metrics.registry import Histogram

        hist = Histogram(buckets=buckets)
        for value in values:
            hist.observe(value)
        return hist

    def test_empty_histogram_reports_zero_not_nan(self):
        hist = self._hist()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.01)

    def test_single_observation_is_exact_at_every_quantile(self):
        hist = self._hist(7.25)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 7.25

    def test_single_bucket_mass_repeated_value_is_exact(self):
        # 50 identical values all land in one bucket; interpolation across
        # the bucket must not smear the estimate.
        hist = self._hist(*([42.0] * 50), buckets=(10.0, 100.0))
        assert hist.quantile(0.5) == 42.0
        assert hist.quantile(0.99) == 42.0

    def test_p99_on_low_count_window_stays_inside_observed_range(self):
        hist = self._hist(2.0, 3.0, 4.0)   # p99 of 3 samples
        assert hist.quantile(0.99) <= 4.0
        assert hist.quantile(0.01) >= 2.0
        assert hist.quantile(1.0) == 4.0
        assert hist.quantile(0.0) == 2.0

    def test_overflow_bucket_reports_true_maximum(self):
        hist = self._hist(5.0, 250.0, 900.0)   # two past the top edge (100)
        assert hist.quantile(0.99) == 900.0    # not the 100.0 edge
        assert hist.quantile(1.0) == 900.0

    def test_merge_doc_folds_counts_sum_and_extremes(self):
        from repro.metrics.registry import Histogram

        a = self._hist(0.5, 20.0)
        b = self._hist(200.0)
        doc = {"counts": list(b.counts), "sum": b.sum, "count": b.count,
               "min": b.minimum, "max": b.maximum}
        a.merge_doc(doc)
        assert a.count == 3 and a.sum == pytest.approx(220.5)
        assert a.minimum == 0.5 and a.maximum == 200.0
        assert a.quantile(1.0) == 200.0
        empty = Histogram(buckets=(1.0,))
        with pytest.raises(ValueError, match="bucket mismatch"):
            empty.merge_doc(doc)

    def test_extremes_survive_registry_roundtrip(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0, 10.0)).observe(0.25)
        reg.histogram("lat", buckets=(1.0, 10.0)).observe(64.0)
        (sample,) = [s for s in reg.samples() if s.name == "lat"]
        assert sample.histogram["min"] == 0.25
        assert sample.histogram["max"] == 64.0
        clone = MetricsRegistry.from_dict(json.loads(json.dumps(reg.as_dict())))
        assert clone.histogram("lat", buckets=(1.0, 10.0)).quantile(1.0) == 64.0
        # Empty histograms serialize without min/max keys.
        reg2 = MetricsRegistry()
        reg2.histogram("idle", buckets=(1.0,))
        (idle,) = [s for s in reg2.samples() if s.name == "idle"]
        assert "min" not in idle.histogram and "max" not in idle.histogram
