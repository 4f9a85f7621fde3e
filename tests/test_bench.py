"""Benchmark-harness tests: microbenchmarks, proxies, runners, reporting,
and smoke runs of each figure driver at micro scale."""

import numpy as np
import pytest

from repro.baselines import CudnnBaseline
from repro.bench import figures, microbench, proxies
from repro.bench.harness import adapt_sectors, run_brickdl, run_conventional, scale_preset
from repro.bench.reporting import BreakdownRow, format_breakdowns, format_table
from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.gpusim.device import Device
from repro.gpusim.spec import A100
from repro.models import zoo


class TestMicrobench:
    def test_atomic_matches_paper(self):
        r = microbench.atomic_microbenchmark()
        assert r.time_per_atomic_ns == pytest.approx(87.45, abs=0.01)
        assert r.num_threads == 64 * 1024

    def test_compute_matches_paper(self):
        r = microbench.compute_microbenchmark()
        assert r.time_per_call_us == pytest.approx(6.72, abs=0.05)

    def test_compute_scales_with_kernel(self):
        small = microbench.compute_microbenchmark(kernel=(3, 3, 3))
        big = microbench.compute_microbenchmark(kernel=(5, 5, 5))
        assert big.time_per_call_us > small.time_per_call_us


class TestProxies:
    def test_six_layer_structure(self):
        g = proxies.six_layer_proxy(size=20)
        convs = [n for n in g.nodes if n.op.kind == "conv"]
        assert len(convs) == 6
        # Unpadded 3^3 convs shrink by 2 per layer.
        assert convs[0].spec.spatial == (18, 18, 18)
        assert convs[-1].spec.spatial == (8, 8, 8)

    def test_three_layer_structure(self):
        g = proxies.three_layer_proxy(size=16)
        assert sum(1 for n in g.nodes if n.op.kind == "conv") == 3

    def test_proxy_functional(self):
        """The proxies run functionally like any other graph."""
        g = proxies.conv_chain_3d(layers=2, size=12, channels=4, in_channels=2)
        x = np.random.default_rng(0).standard_normal(g.input_nodes[0].spec.shape).astype(np.float32)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(g, strategy_override=Strategy.MEMOIZED, brick_override=4,
                            layer_schedule=(2,)).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)


class TestHarness:
    def test_scale_preset_default(self, monkeypatch):
        monkeypatch.delenv("BRICKDL_SCALE", raising=False)
        assert scale_preset() == "small"

    def test_scale_preset_invalid(self, monkeypatch):
        monkeypatch.setenv("BRICKDL_SCALE", "gigantic")
        with pytest.raises(ValueError):
            scale_preset()

    def test_run_brickdl_returns_row_and_plan(self):
        row, plan = run_brickdl(proxies.conv_chain_3d(2, 16, channels=4), brick=4,
                                strategy=Strategy.PADDED, layer_schedule=(2,))
        assert row.total > 0 and row.num_tasks > 0
        assert plan.merged_count == 1

    def test_run_conventional(self):
        row = run_conventional(CudnnBaseline, proxies.conv_chain_3d(2, 16, channels=4))
        assert row.label == "cudnn" and row.dram_txns > 0

    def test_adapt_sectors_matches_brick(self):
        g = proxies.conv_chain_3d(2, 24, channels=8)
        eng = BrickDLEngine(g, brick_override=8, strategy_override=Strategy.PADDED,
                            layer_schedule=(2,))
        plan = eng.compile()
        spec = adapt_sectors(A100, plan)
        assert spec.l2_sector_bytes >= A100.l2_sector_bytes

    def test_adapt_sectors_no_merged_is_identity(self):
        from testlib import small_chain_graph

        plan = BrickDLEngine(small_chain_graph(size=24)).compile()  # all fallback
        assert adapt_sectors(A100, plan) is A100

    @pytest.mark.parametrize("strategy", [Strategy.PADDED, Strategy.MEMOIZED])
    @pytest.mark.parametrize("model", sorted(zoo.MODELS))
    def test_adapt_sectors_can_move_l2_txns_and_nothing_else(self, model, strategy):
        """The sector choice is residency-tracking granularity: L1 and DRAM
        transactions are byte-derived and the modelled time follows them, so
        they must not depend on it; the L2 count (one per sector touched)
        may.  A run on an explicit ``Device(spec)`` (the spec's own sector)
        and one on the adapted spec that ``engine.run()`` builds by default
        therefore agree on everything but ``l2_txns``."""
        engine = BrickDLEngine(zoo.build(model, reduced=True), strategy_override=strategy)
        plan = engine.compile()
        plain = engine.run(functional=False, plan=plan, device=Device(engine.spec)).metrics
        adapted = engine.run(functional=False, plan=plan,
                             device=Device(adapt_sectors(engine.spec, plan))).metrics
        for counter in ("l1_txns", "dram_read_txns", "dram_write_txns"):
            assert getattr(plain.memory, counter) == getattr(adapted.memory, counter), counter
        assert plain.total_time == adapted.total_time


class TestReporting:
    def _row(self, label, total=2.0, dram=1.0):
        return BreakdownRow(label=label, total=total, dram=dram, idle=total - dram,
                            compute=0.5, atomics_compulsory=0.1, atomics_conflict=0.0,
                            other=total - 0.6, l1_txns=100, l2_txns=80, dram_txns=50,
                            num_tasks=7, atomics_compulsory_count=10, atomics_conflict_count=2)

    def test_format_table_alignment(self):
        t = format_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = t.splitlines()
        assert lines[0] == "T"
        assert len({len(l) for l in lines[1:]}) == 1  # rectangular

    def test_breakdowns_relative(self):
        base = self._row("base")
        other = self._row("x", total=1.0)
        text = format_breakdowns([base, other], relative_to=base)
        assert "0.500" in text

    def test_normalized_to(self):
        a, b = self._row("a"), self._row("b", total=4.0, dram=2.0)
        n = b.normalized_to(a)
        assert n["total"] == pytest.approx(2.0)
        assert n["dram_txns"] == pytest.approx(1.0)


class TestFigureDrivers:
    """Micro-scale smoke runs; the real shapes are checked in benchmarks/."""

    def test_fig10_micro(self):
        r = figures.fig10_subgraph_size(scale="small")
        rows = r.groups["6-layer CNN proxy"]
        assert rows[0].label == "cudnn"
        assert len(rows) == 1 + 4 * 2
        assert "Fig. 10" in r.name and "cudnn" in r.render()

    def test_fig11_micro(self):
        r = figures.fig11_brick_size(scale="small", bricks=(8, 16))
        rows = r.groups["3-layer CNN proxy"]
        assert len(rows) == 1 + 2 * 2

    def test_fig7_single_model(self):
        r = figures.fig7_end_to_end(models=("resnet50",), scale="small")
        rows = r.groups["resnet50"]
        assert [x.label for x in rows] == ["cudnn", "brickdl", "torchscript", "xla"]
        table = figures.fig7_summary_table(r)
        assert "resnet50" in table

    def test_fig8_and_9(self):
        r = figures.fig8_resnet_case_study(scale="small", num_subgraphs=2)
        assert 1 <= len(r.groups) <= 2
        table = figures.fig9_data_movement(r)
        assert "DRAM vs cudnn" in table

    def test_fig8_breakdown_identities(self):
        r = figures.fig8_resnet_case_study(scale="small", num_subgraphs=1)
        for rows in r.groups.values():
            for row in rows:
                assert row.total == pytest.approx(row.idle + row.dram)
                assert row.total == pytest.approx(
                    row.other + row.compute + row.atomics_compulsory + row.atomics_conflict
                )
