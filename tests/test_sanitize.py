"""Tests for the execution sanitizer suite (repro.sanitize).

Covers the three detectors at unit level (shadow memory intervals, vector
clocks / happens-before, numeric screening), clean-run guarantees across all
execution strategies, and -- the load-bearing part -- seeded-mutant tests
proving each detector actually fires on the failure it exists for:

* stripping the memoized protocol's acquire edges (a lost dependency edge)
  trips the race detector, and so does a wavefront run without its per-wave
  barrier;
* skipping one halo brick write trips shadow memory as an uninitialized read;
* a memoized or wavefront schedule that ignores member dependencies is
  rejected in profile mode, where no value is computed to go wrong;
* a NaN-poisoned kernel is attributed to the correct (node, brick).
"""

import numpy as np
import pytest

from repro.core.engine import BrickDLEngine
from repro.core.handles import BrickedHandle
from repro.core.bricktask import BrickTasks
from repro.core.plan import Strategy
from repro.errors import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.device import Device
from repro.gpusim.trace import Access, Task, brick_token, buffer_token
from repro.sanitize import (
    BufferShadow,
    ExecutionSanitizer,
    HBState,
    NumericSanitizer,
    ShadowMemory,
    VectorClock,
    WriteRecord,
)

from testlib import input_for, small_chain_graph


def conv_chain(size=16, c=4, layers=2):
    b = GraphBuilder("san", TensorSpec(1, c, (size, size)))
    for i in range(layers):
        b.conv(c, 3, padding=1, bias=False, name=f"conv{i}")
    return b.finish()


def sanitized_run(graph, strategy=None, brick=4, strict=False):
    engine = BrickDLEngine(graph, strategy_override=strategy,
                           brick_override=brick, sanitize=True, strict=strict)
    return engine.run(input_for(graph))


def raw_access(buffer, offset, nbytes, write=False):
    """Build an Access row bypassing the constructor's bounds validation,
    the way a corrupted replay or a hand-built trace could."""
    return tuple.__new__(Access, (buffer, offset, nbytes, write, (), False, False, False))


W1 = WriteRecord(seq=0, lane=0, epoch=1, label="w1")
W2 = WriteRecord(seq=1, lane=1, epoch=1, label="w2")


class TestBufferShadow:
    def test_uncovered_gaps(self):
        sh = BufferShadow(0, "b", 100, preinitialized=False)
        sh.record_write(10, 20, W1)
        assert sh.uncovered(0, 30) == [(0, 10), (20, 30)]
        assert sh.uncovered(12, 18) == []
        assert sh.overlapping(5, 15) == [(10, 15, W1)]

    def test_overwrite_preserves_tails(self):
        sh = BufferShadow(0, "b", 100, preinitialized=False)
        sh.record_write(0, 40, W1)
        sh.record_write(10, 20, W2)
        assert sh.overlapping(0, 40) == [(0, 10, W1), (10, 20, W2), (20, 40, W1)]
        assert sh.written_bytes == 40

    def test_adjacent_same_writer_merges(self):
        sh = BufferShadow(0, "b", 100, preinitialized=False)
        sh.record_write(0, 10, W1)
        sh.record_write(10, 20, W1)
        assert len(sh.starts) == 1
        assert sh.written_bytes == 20

    def test_preinitialized_needs_no_writer(self):
        sh = BufferShadow(0, "b", 100, preinitialized=True)
        assert sh.uncovered(0, 100) == []

    def test_registration_policy(self):
        from repro.gpusim.trace import Buffer

        mem = ShadowMemory()
        assert mem.register(Buffer.new("weights", 64)).preinitialized
        assert not mem.register(Buffer.new("scratch", 64, transient=True)).preinitialized
        mem.saw_task = True
        assert not mem.register(Buffer.new("mid-run", 64)).preinitialized


class TestVectorClocks:
    def test_tick_join_dominates(self):
        a = VectorClock()
        e = a.tick(0)
        assert a.dominates(0, e) and not a.dominates(1, 1)
        b = VectorClock()
        b.tick(1)
        a.join(b)
        assert a.dominates(1, 1)

    def test_release_acquire_orders_tasks(self):
        hb = HBState()
        c1 = hb.begin_task(0, [])
        e1 = c1.get(0)
        hb.release(("t",), c1)
        c2 = hb.begin_task(1, [("t",)])
        assert c2.dominates(0, e1)
        c3 = hb.begin_task(2, [])  # no acquire: unordered
        assert not c3.dominates(0, e1)

    def test_barrier_orders_all_lanes(self):
        hb = HBState()
        e0 = hb.begin_task(0, []).get(0)
        e1 = hb.begin_task(1, []).get(1)
        hb.barrier()
        c = hb.begin_task(2, [])
        assert c.dominates(0, e0) and c.dominates(1, e1)


class TestAccessIntervals:
    def test_contiguous(self):
        from repro.gpusim.trace import Buffer

        buf = Buffer.new("x", 1024)
        ivs, exact = Access(buf, 8, 16).byte_intervals()
        assert exact and ivs == [(8, 24)]

    def test_strided_exact(self):
        from repro.gpusim.trace import Buffer

        buf = Buffer.new("x", 1024)
        ivs, exact = Access(buf, 0, 4, reps=((3, 10),)).byte_intervals()
        assert exact and ivs == [(0, 4), (10, 14), (20, 24)]

    def test_touching_segments_merge(self):
        from repro.gpusim.trace import Buffer

        buf = Buffer.new("x", 1024)
        ivs, exact = Access(buf, 0, 8, reps=((4, 8),)).byte_intervals()
        assert exact and ivs == [(0, 32)]

    def test_hull_fallback_is_flagged(self):
        from repro.gpusim.trace import Buffer

        buf = Buffer.new("x", 1 << 20)
        a = Access(buf, 0, 1, reps=((64, 16), (64, 1024)))
        ivs, exact = a.byte_intervals(max_segments=16)
        assert not exact and ivs == [(0, a.span)]


class TestCleanRuns:
    @pytest.mark.parametrize("strategy", [None, Strategy.PADDED,
                                          Strategy.MEMOIZED, Strategy.WAVEFRONT])
    def test_small_chain_is_clean(self, strategy):
        res = sanitized_run(small_chain_graph(size=32), strategy)
        report = res.sanitizer_report
        assert report is not None and report.ok, report.summary()

    def test_profile_mode_is_clean(self):
        engine = BrickDLEngine(conv_chain(), strategy_override=Strategy.MEMOIZED,
                               brick_override=4, sanitize=True)
        res = engine.run(inputs=None, functional=False)
        assert res.sanitizer_report.ok, res.sanitizer_report.summary()

    def test_report_absent_without_flag(self):
        engine = BrickDLEngine(conv_chain(), brick_override=4)
        assert engine.run(input_for(engine.graph)).sanitizer_report is None


class TestMutants:
    def test_dropped_dependency_edge_trips_race_detector(self, monkeypatch):
        g = conv_chain(16, 4, 2)
        assert sanitized_run(conv_chain(16, 4, 2), Strategy.MEMOIZED).sanitizer_report.ok

        orig = BrickTasks.sync

        def no_dependency_acquires(self, task, handle, own_offset, entry_sources, acquired=None):
            # The schedule stays correct; only the HB edges to dep bricks go.
            orig(self, task, handle, own_offset, entry_sources)

        monkeypatch.setattr(BrickTasks, "sync", no_dependency_acquires)
        report = sanitized_run(g, Strategy.MEMOIZED).sanitizer_report
        races = report.by_code("sanitize.race-read")
        assert races, report.summary()
        assert not report.ok
        assert any("memo/" in d.detail["writer"] for d in races)

    def test_wavefront_without_wave_barrier_trips_race_detector(self, monkeypatch):
        """Wavefront tasks acquire no member bricks: the per-wave barrier is
        the whole protocol, so without it every halo read is a race."""
        g = conv_chain(16, 4, 2)
        assert sanitized_run(conv_chain(16, 4, 2), Strategy.WAVEFRONT).sanitizer_report.ok

        monkeypatch.setattr(Device, "synchronize", lambda self: None)
        report = sanitized_run(g, Strategy.WAVEFRONT).sanitizer_report
        races = report.by_code("sanitize.race-read")
        assert races, report.summary()
        assert any("wave/" in d.detail["writer"] for d in races)

    @pytest.mark.parametrize("strategy, codes, replay_codes", [
        (Strategy.MEMOIZED, {"sanitize.uninit-read"}, {"replay.missing-producer"}),
        (Strategy.WAVEFRONT, {"sanitize.race-read", "sanitize.uninit-read"}, set()),
    ], ids=["memoized", "wavefront"])
    def test_schedule_without_member_deps_is_rejected_in_profile_mode(
            self, monkeypatch, strategy, codes, replay_codes):
        """The counted run carries no values, so a brick scheduled before its
        producers reads no zeros and fails no reference comparison: the
        checkers that need no values must reject the schedule.  Without its
        dependencies the memoized scheduler never computes the first layer,
        and the wavefront puts every second-layer brick on wave 0."""
        import repro.core.memoized
        import repro.core.wavefront
        from repro.analysis import replay_trace

        for module in (repro.core.memoized, repro.core.wavefront):
            monkeypatch.setattr(module, "member_deps", lambda geom, nid, gpos: [])
        engine = BrickDLEngine(conv_chain(16, 4, 2), strategy_override=strategy,
                               brick_override=4, sanitize=True)
        res = engine.run(inputs=None, functional=False)
        report = res.sanitizer_report
        assert not report.ok
        assert codes <= {d.code for d in report.errors}, report.summary()
        replay = replay_trace(res.plan, res.trace.records)
        assert replay_codes <= {d.code for d in replay.errors}, replay.summary()

    def test_skipped_halo_write_trips_shadow_memory(self, monkeypatch):
        g = conv_chain(16, 4, 2)
        orig = BrickedHandle.emit_brick_write

        def skipping(self, task, batch, gpos):
            if self.buffer.name == "conv0/memo" and gpos == (0, 0):
                return  # the halo brick everyone's (0, 0)-corner reads
            orig(self, task, batch, gpos)

        monkeypatch.setattr(BrickedHandle, "emit_brick_write", skipping)
        report = sanitized_run(g, Strategy.MEMOIZED).sanitizer_report
        uninit = report.by_code("sanitize.uninit-read")
        assert uninit, report.summary()
        assert any(d.detail["buffer"] == "conv0/memo" for d in uninit)

    def test_nan_kernel_attributed_to_node_and_brick(self):
        g = conv_chain(16, 4, 2)
        g.init_weights()  # idempotent: the engine will not re-randomize
        poisoned = g.node("conv1")
        for w in poisoned.weights.values():
            w[...] = np.nan
        res = sanitized_run(g, Strategy.MEMOIZED)
        report = res.sanitizer_report
        nans = report.by_code("sanitize.numeric-nan")
        assert len(nans) == 1, report.summary()
        d = nans[0]
        assert d.node_id == poisoned.node_id
        first = next(r for r in res.trace.records if r.node_id == poisoned.node_id)
        assert d.detail["brick"] == first.brick

    def test_derived_nan_demoted_to_info(self):
        g = conv_chain(16, 4, 3)
        g.init_weights()
        first = g.node("conv0")
        for w in first.weights.values():
            w[...] = np.nan
        report = sanitized_run(g, Strategy.MEMOIZED).sanitizer_report
        errors = report.by_code("sanitize.numeric-nan")
        assert [d.node_id for d in errors] == [first.node_id]
        derived = report.by_code("sanitize.numeric-derived")
        assert {d.node_id for d in derived} == {g.node("conv1").node_id,
                                               g.node("conv2").node_id}

    def test_fallback_nan_screened_per_fusion_group(self):
        """A fallback entry is screened one fusion-group output at a time:
        conv0's NaN weights show on act0, the output of its conv+relu group,
        with no brick and the fallback label, and conv1 inherits them."""
        b = GraphBuilder("san", TensorSpec(1, 4, (16, 16)))
        b.conv(4, 3, padding=1, bias=False, name="conv0")
        b.relu(name="act0")
        b.conv(4, 3, padding=1, bias=False, name="conv1")
        g = b.finish()
        g.init_weights()
        for w in g.node("conv0").weights.values():
            w[...] = np.nan
        report = sanitized_run(g, Strategy.CUDNN).sanitizer_report
        nans = report.by_code("sanitize.numeric-nan")
        assert [d.node_id for d in nans] == [g.node("act0").node_id], report.summary()
        assert nans[0].detail["brick"] is None
        assert "first seen in task '(fallback kernel)'" in nans[0].message
        derived = report.by_code("sanitize.numeric-derived")
        assert [d.node_id for d in derived] == [g.node("conv1").node_id]

    def test_strict_mode_raises_on_sanitizer_error(self, monkeypatch):
        orig = BrickedHandle.emit_brick_write

        def skipping(self, task, batch, gpos):
            if self.buffer.name == "conv0/memo" and gpos == (0, 0):
                return
            orig(self, task, batch, gpos)

        monkeypatch.setattr(BrickedHandle, "emit_brick_write", skipping)
        with pytest.raises(ExecutionError, match="sanitizer"):
            sanitized_run(conv_chain(16, 4, 2), Strategy.MEMOIZED, strict=True)


class TestObserverLevel:
    def test_use_after_discard(self):
        dev = Device()
        san = dev.attach(ExecutionSanitizer())
        buf = dev.allocate("x", 128, transient=True)
        t = Task("writer")
        t.write(buf, 0, 128)
        dev.submit(t)
        dev.discard(buf)
        t2 = Task("reader")
        t2.read(buf, 0, 64)
        dev.submit(t2)
        diags = san.report().by_code("sanitize.use-after-discard")
        assert diags and "reader" in diags[0].message

    def test_out_of_bounds_access(self):
        dev = Device()
        san = dev.attach(ExecutionSanitizer())
        buf = dev.allocate("x", 64, transient=True)
        t = Task("oob")
        t.accesses.append(raw_access(buf, 32, 64, write=True))
        dev.submit(t)
        assert san.report().by_code("sanitize.oob-access")

    def test_unordered_waw(self):
        dev = Device()
        san = dev.attach(ExecutionSanitizer())
        buf = dev.allocate("x", 64, transient=True)
        t1 = Task("w1", worker=0)
        t1.write(buf, 0, 64)
        dev.submit(t1)
        t2 = Task("w2", worker=1)
        t2.write(buf, 0, 64)
        dev.submit(t2)
        assert san.report().by_code("sanitize.race-write")

    def test_release_acquire_suppresses_race(self):
        dev = Device()
        san = dev.attach(ExecutionSanitizer())
        buf = dev.allocate("x", 64, transient=True)
        t1 = Task("producer", worker=0)
        t1.write(buf, 0, 64)
        t1.release(buffer_token(buf))
        dev.submit(t1)
        t2 = Task("consumer", worker=1)
        t2.read(buf, 0, 64)
        t2.acquire(buffer_token(buf))
        dev.submit(t2)
        assert san.report().ok

    def test_brick_token_identity(self):
        from repro.gpusim.trace import Buffer

        buf = Buffer.new("b", 1024)
        assert brick_token(buf, 0) != brick_token(buf, 512)
        assert brick_token(buf, 0) != buffer_token(buf)

    def test_diagnostic_cap_suppresses(self):
        dev = Device()
        san = dev.attach(ExecutionSanitizer(max_per_code=3))
        buf = dev.allocate("x", 1024, transient=True)
        for i in range(6):
            t = Task(f"r{i}")
            t.read(buf, i * 64, 64)
            dev.submit(t)
        report = san.report()
        assert len(report.by_code("sanitize.uninit-read")) == 3
        assert report.by_code("sanitize.uninit-read.suppressed")
        assert san.counts["sanitize.uninit-read"] == 6

    def test_numeric_screen_counts(self):
        num = NumericSanitizer()
        arr = np.zeros(8, dtype=np.float32)
        arr[0] = np.nan
        arr[1] = np.inf
        arr[2] = np.float32(1e-42)  # denormal
        num.screen(7, arr, None, None, None, "(fallback kernel)")
        kinds = {f.kind: f.count for f in num.findings.values()}
        assert kinds == {"nan": 1, "inf": 1, "denormal": 1}
        diags = num.diagnostics()
        severities = {d.code: str(d.severity) for d in diags}
        assert severities["sanitize.numeric-nan"] == "error"
        assert severities["sanitize.numeric-denormal"] == "warning"
