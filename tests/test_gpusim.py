"""Simulated-GPU substrate tests: caches, memory system, timing, device."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpusim.atomics import AtomicCounters, cas_microbenchmark_time
from repro.gpusim.cache import SectorCache
from repro.gpusim.device import Device
from repro.gpusim.memory import AnalyticResidency, MemorySystem, _lines, _txns
from repro.gpusim.spec import A100, GPUSpec
from repro.gpusim.timing import compute_breakdown, schedule_makespan
from repro.gpusim.trace import Access, Buffer, Task


class TestSectorCache:
    def test_hit_after_miss(self):
        c = SectorCache(8192, 2048)
        r1 = c.access(1, 0, 2048, write=False)
        assert r1.miss_bytes == 2048 and r1.hit_bytes == 0
        r2 = c.access(1, 0, 2048, write=False)
        assert r2.hit_bytes == 2048

    def test_lru_eviction_order(self):
        c = SectorCache(4096, 2048)  # 2 sectors
        c.access(1, 0, 2048, write=True)
        c.access(1, 2048, 2048, write=False)
        c.access(1, 0, 1, write=False)       # refresh sector 0
        c.access(1, 4096, 2048, write=False)  # evicts sector 1 (LRU)
        assert c.access(1, 0, 1, write=False).hit_bytes == 1
        assert c.access(1, 2048, 1, write=False).miss_bytes == 1

    def test_dirty_eviction_accounting(self):
        c = SectorCache(2048, 2048)
        c.access(1, 0, 512, write=True)
        c.access(1, 2048, 2048, write=False)  # evicts dirty sector
        assert c.drain_evicted_dirty() == 512

    def test_flush_and_discard(self):
        c = SectorCache(8192, 2048)
        c.access(1, 0, 100, write=True)
        c.access(2, 0, 300, write=True)
        assert c.discard(1) == 1
        assert c.flush() == 300

    def test_span_accounting(self):
        c = SectorCache(1 << 20, 2048)
        r = c.access(1, 1000, 3000, write=False)  # spans 2 sectors
        assert r.miss_bytes == 3000

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SectorCache(100, 2048)


class TestAnalyticResidency:
    def test_small_buffer_hits_after_write(self):
        a = AnalyticResidency(1 << 20)
        buf = Buffer.new("b", 1 << 16)
        spilled = a.write(buf, 1 << 16)
        assert spilled == 0
        hit, miss, spilled = a.read(buf, 1 << 16)
        assert miss == 0 and hit == 1 << 16 and spilled == 0

    def test_oversized_buffer_streams(self):
        a = AnalyticResidency(1 << 20)
        buf = Buffer.new("big", 1 << 22)
        assert a.write(buf, 1 << 22) == 1 << 22  # all spilled
        hit, miss, spilled = a.read(buf, 1 << 22)
        assert hit == 0 and miss == 1 << 22 and spilled == 0

    def test_lru_between_buffers(self):
        a = AnalyticResidency(1000)
        b1, b2 = Buffer.new("x", 800), Buffer.new("y", 800)
        a.write(b1, 800)
        a.write(b2, 800)  # evicts b1 entirely
        hit, _, _ = a.read(b1, 800)
        assert hit == 0

    def test_discard_drops_dirty(self):
        a = AnalyticResidency(1 << 20)
        buf = Buffer.new("t", 1024)
        a.write(buf, 1024)
        a.discard(buf.buffer_id)
        assert a.flush({}) == 0


class TestMemorySystem:
    def test_blocked_reuse_counts(self):
        ms = MemorySystem(A100)
        buf = ms.allocate("bricks", 1 << 20)
        ms.begin_task()
        ms.process(Access(buf, 0, 65536, write=False))
        first = ms.counters.dram_read_txns
        assert first == 65536 // 32
        ms.begin_task()
        ms.process(Access(buf, 0, 65536, write=False))
        assert ms.counters.dram_read_txns == first  # L2 hit second time

    def test_write_through_l1(self):
        ms = MemorySystem(A100)
        buf = ms.allocate("b", 4096)
        ms.process(Access(buf, 0, 4096, write=True))
        assert ms.counters.l2_txns == 4096 // 32

    def test_pinned_weights_single_dram_fetch(self):
        ms = MemorySystem(A100)
        w = ms.allocate("w", 8192)
        ms.pin(w)
        for _ in range(5):
            ms.process(Access(w, 0, 8192, write=False))
        assert ms.counters.dram_read_txns == 8192 // 32
        assert ms.counters.l2_txns == 5 * 8192 // 32
        ms.unpin(w)
        ms.process(Access(w, 0, 8192, write=False))
        assert ms.counters.dram_read_txns > 8192 // 32

    def test_on_chip_counts_l1_only(self):
        ms = MemorySystem(A100)
        buf = ms.allocate("scratch", 4096, transient=True)
        ms.process(Access(buf, 0, 4096, write=True, on_chip=True))
        assert ms.counters.l1_txns == 4096 // 32
        assert ms.counters.l2_txns == 0 and ms.counters.dram_txns == 0

    def test_assume_l2_no_dram(self):
        ms = MemorySystem(A100)
        buf = ms.allocate("m", 4096)
        ms.process(Access(buf, 0, 4096, write=False, assume_l2=True))
        assert ms.counters.dram_txns == 0
        assert ms.counters.l2_txns == 4096 // 32

    def test_transient_flush_skipped(self):
        ms = MemorySystem(A100)
        t = ms.allocate("t", 4096, transient=True)
        p = ms.allocate("p", 4096)
        ms.process(Access(t, 0, 4096, write=True))
        ms.process(Access(p, 0, 4096, write=True))
        ms.flush()
        assert ms.counters.dram_write_txns == 4096 // 32  # only persistent

    def test_strided_read_l1_overfetch(self):
        ms = MemorySystem(A100)
        buf = ms.allocate("act", 1 << 20)
        # 64 rows of 50 bytes, stride 256: each row touches 2-3 lines.
        a = Access(buf, 3, 50, write=False, reps=((64, 256),))
        ms.process(a)
        assert ms.counters.l1_txns >= 64 * 2

    def test_dense_big_write_streams(self):
        ms = MemorySystem(A100)
        big = ms.allocate("big", 2 * A100.l2_bytes)
        ms.process(Access(big, 0, big.nbytes, write=True, dense=True))
        assert ms.counters.dram_write_txns == big.nbytes // 32


class TestTiming:
    def test_makespan_greedy(self):
        spec = GPUSpec(num_sms=2)
        assert schedule_makespan(spec, [1.0, 1.0, 1.0]) == 2.0
        assert schedule_makespan(spec, [3.0, 1.0, 1.0]) == 3.0

    def test_breakdown_identities(self):
        from repro.gpusim.memory import MemoryCounters

        spec = A100
        tasks = [Task("t", flops=1e6) for _ in range(10)]
        mem = MemoryCounters(l1_txns=100, l2_txns=80, dram_read_txns=50, dram_write_txns=20)
        atomics = AtomicCounters(compulsory=100, conflict=30)
        bd = compute_breakdown(spec, tasks, mem, atomics, sync_count=2)
        assert bd.total == pytest.approx(bd.idle + bd.dram)
        assert bd.total == pytest.approx(
            bd.other + bd.compute + bd.atomics_compulsory + bd.atomics_conflict
        )
        assert bd.idle >= 0 and bd.other >= 0

    def test_task_time_calls(self):
        assert A100.task_time(0, calls=3) == pytest.approx(3 * A100.call_overhead_s)


class TestDevice:
    def test_submit_and_finish(self):
        dev = Device(A100)
        buf = dev.allocate("x", 4096)
        t = Task("t", flops=1000)
        t.read(buf, 0, 4096)
        t.write(buf, 0, 4096)
        t.atomics_compulsory = 2
        dev.submit(t)
        dev.synchronize()
        m = dev.finish()
        assert m.num_tasks == 1
        assert m.atomics.compulsory == 2
        assert m.total_time > 0

    def test_atomic_microbenchmark_matches_paper(self):
        _, per_op = cas_microbenchmark_time(A100)
        assert per_op * 1e9 == pytest.approx(87.45, rel=1e-6)


class TestLineArithmetic:
    """Direct unit tests for the 32 B line/transaction helpers, including the
    unaligned and zero-length edge cases every counter rests on."""

    def test_zero_and_negative_length(self):
        assert _lines(0, 0, 32) == 0
        assert _lines(100, -4, 32) == 0
        assert _txns(0, 32) == 0
        assert _txns(-4, 32) == 0

    def test_aligned_exact(self):
        assert _lines(0, 32, 32) == 1
        assert _lines(64, 64, 32) == 2
        assert _txns(32, 32) == 1
        assert _txns(64, 32) == 2

    def test_unaligned_straddle(self):
        # 2 bytes crossing a line boundary touch 2 lines but 1 transaction's
        # worth of data -- the alignment-overfetch asymmetry.
        assert _lines(31, 2, 32) == 2
        assert _txns(2, 32) == 1

    def test_single_byte(self):
        assert _lines(0, 1, 32) == 1
        assert _lines(31, 1, 32) == 1
        assert _lines(32, 1, 32) == 1
        assert _txns(1, 32) == 1

    def test_unaligned_within_one_line(self):
        assert _lines(5, 20, 32) == 1

    def test_txns_is_ceil_div(self):
        for nbytes in (1, 31, 32, 33, 63, 64, 65, 1000):
            assert _txns(nbytes, 32) == -(-nbytes // 32)

    def test_lines_bounds_txns(self):
        # Lines touched >= transactions needed, and never by more than one.
        for offset in range(0, 40):
            for nbytes in range(1, 100):
                lines = _lines(offset, nbytes, 32)
                txns = _txns(nbytes, 32)
                assert txns <= lines <= txns + 1


class TestAccessValidation:
    def test_bounds(self):
        buf = Buffer.new("b", 100)
        with pytest.raises(ValueError):
            Access(buf, 90, 20)

    def test_reps_span_bounds(self):
        buf = Buffer.new("b", 1000)
        with pytest.raises(ValueError):
            Access(buf, 0, 100, reps=((5, 300),))  # span 1300 > 1000
        a = Access(buf, 0, 100, reps=((4, 300),))
        assert a.segments == 4 and a.total_bytes == 400 and a.span == 1000


class TestBatchRows:
    """The batch emitters build rows without the constructor; they must be
    exactly the rows it would build, and refuse what it would refuse."""

    buf = Buffer.new("rows", 4096)

    @st.composite
    def runs(draw, size=4096):
        """(offsets, nbytes), with the offsets on either side of both buffer
        edges drawn often."""
        nbytes = draw(st.integers(1, 512))
        edges = st.sampled_from([-1, 0, size - nbytes, size - nbytes + 1])
        offsets = draw(st.lists(st.one_of(st.integers(-64, size + 64), edges), max_size=12))
        return offsets, nbytes

    @staticmethod
    def _emit(kind, task, buf, offsets, nbytes):
        if kind == "read_rows":
            task.read_rows(buf, offsets, nbytes, [i % 2 == 1 for i in range(len(offsets))])
        else:
            getattr(task, kind)(buf, offsets, nbytes)

    @pytest.mark.parametrize("kind", ["read_batch", "write_batch", "read_rows"])
    @given(run=runs())
    def test_rows_match_constructor_or_run_is_refused(self, kind, run):
        offsets, nbytes = run
        task = Task("t")
        task.read(self.buf, 0, 8)
        prior = list(task.accesses)
        try:
            expect = [Access(self.buf, off, nbytes, write=kind == "write_batch",
                             assume_l2=kind == "read_rows" and i % 2 == 1)
                      for i, off in enumerate(offsets)]
        except ValueError:
            with pytest.raises(ValueError):
                self._emit(kind, task, self.buf, offsets, nbytes)
            assert task.accesses == prior          # nothing appended
            return
        self._emit(kind, task, self.buf, offsets, nbytes)
        assert task.accesses == prior + expect
        assert all(type(a) is Access for a in task.accesses)

    @pytest.mark.parametrize("kind", ["read", "write"])
    @given(run=runs(), strided=st.booleans())
    def test_single_rows_match_constructor_or_are_refused(self, kind, run, strided):
        """``Task.read`` / ``write`` build a contiguous in-range row without
        the constructor; every row must still equal its, and a row it refuses
        must raise and append nothing."""
        offsets, nbytes = run
        reps = ((2, nbytes),) if strided else ()
        for offset in offsets:
            task = Task("t")
            try:
                expect = [Access(self.buf, offset, nbytes, write=kind == "write", reps=reps)]
            except ValueError:
                with pytest.raises(ValueError):
                    getattr(task, kind)(self.buf, offset, nbytes, reps)
                assert task.accesses == []
                continue
            getattr(task, kind)(self.buf, offset, nbytes, reps)
            assert task.accesses == expect and type(task.accesses[0]) is Access

    def test_rows_are_immutable(self):
        task = Task("t")
        task.read_batch(self.buf, [0, 64], 32)
        row = task.accesses[0]
        for name in Access._fields:
            with pytest.raises(AttributeError):
                setattr(row, name, getattr(row, name))
        with pytest.raises(AttributeError):
            row.extra = 1
        assert dataclasses.is_dataclass(Task) and not hasattr(task, "__dict__")
