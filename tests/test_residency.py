"""AnalyticResidency dirty-byte conservation and sim-path equivalence.

Mirrors ``test_cache_counters.py`` for the *analytic* residency model: every
byte that acquires a write-back obligation must leave through exactly one of
spilled (LRU overflow), flushed (end-of-run write-back), or discarded
(transient data dropped on-device) -- or still be dirty-resident.

Also pins three accounting fixes:

* ``read`` must plumb the dirty bytes its insertions spill into the DRAM
  write counter (previously the spill return of ``_insert`` was dropped);
* ``total()`` is a running sum, kept consistent through every operation
  (previously an O(n) recomputation per eviction-loop iteration);
* blocked reads and writes charge the same offset-aware ``_lines`` for a
  full-range transfer (previously reads used alignment-blind ``_txns``).

The equivalence classes at the bottom assert the scalar oracle and the
vectorized batch path produce bit-identical counters.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpusim.device import Device
from repro.gpusim.memory import AnalyticResidency, MemorySystem, _lines, _txns
from repro.gpusim.spec import A100
from repro.gpusim.trace import Buffer, Task

CAP = 4096


def make_buffer(name: str, nbytes: int, transient: bool = False) -> Buffer:
    return Buffer.new(name, nbytes, transient)


def conserved(ar: AnalyticResidency) -> bool:
    s = ar.stats()
    return s["written_dirty_bytes"] == (
        s["spilled_dirty_bytes"] + s["flushed_dirty_bytes"]
        + s["discarded_dirty_bytes"] + s["dirty_resident_bytes"])


class TestDirtyByteConservation:
    def test_write_then_flush(self):
        ar = AnalyticResidency(CAP)
        buf = make_buffer("a", 1024)
        ar.write(buf, 1024)
        assert ar.dirty_resident() == 1024
        assert ar.flush({}) == 1024
        assert ar.dirty_resident() == 0
        assert conserved(ar)

    def test_transient_flush_discards(self):
        ar = AnalyticResidency(CAP)
        buf = make_buffer("t", 1024, transient=True)
        ar.write(buf, 1024)
        assert ar.flush({buf.buffer_id: buf}) == 0
        assert ar.discarded_dirty_bytes == 1024
        assert conserved(ar)

    def test_streaming_write_spills_everything(self):
        ar = AnalyticResidency(CAP)
        big = make_buffer("big", 2 * CAP)
        assert ar.write(big, 2 * CAP) == 2 * CAP
        assert ar.spilled_dirty_bytes == 2 * CAP
        assert ar.total() == 0  # streaming writes keep nothing resident
        assert conserved(ar)

    def test_eviction_spills_dirty(self):
        ar = AnalyticResidency(CAP)
        a = make_buffer("a", CAP)
        b = make_buffer("b", CAP)
        ar.write(a, CAP)
        spilled = ar.write(b, CAP)  # b's insert evicts dirty a
        assert spilled == CAP
        assert conserved(ar)

    def test_discard_accounts_dirty(self):
        ar = AnalyticResidency(CAP)
        buf = make_buffer("a", 512)
        ar.write(buf, 512)
        ar.discard(buf.buffer_id)
        assert ar.discarded_dirty_bytes == 512
        assert ar.total() == 0
        assert conserved(ar)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(
        st.sampled_from(["read", "write", "discard", "flush"]),
        st.integers(0, 3),          # which buffer
        st.integers(1, CAP // 2),   # touched bytes
    ), min_size=1, max_size=60))
    def test_random_sequences_conserve(self, ops):
        ar = AnalyticResidency(CAP)
        # A mix of fitting, oversized, and transient buffers.
        bufs = [make_buffer("f0", CAP // 2), make_buffer("f1", CAP),
                make_buffer("big", 3 * CAP), make_buffer("t", CAP // 4, transient=True)]
        by_id = {b.buffer_id: b for b in bufs}
        for op, which, nbytes in ops:
            buf = bufs[which]
            if op == "read":
                hit, miss, spilled = ar.read(buf, min(nbytes, buf.nbytes))
                assert hit + miss == min(nbytes, buf.nbytes)
                assert spilled >= 0
            elif op == "write":
                ar.write(buf, min(nbytes, buf.nbytes))
            elif op == "discard":
                ar.discard(buf.buffer_id)
            else:
                ar.flush(by_id)
            # The ledger balances and the running resident total matches an
            # O(n) recount after *every* operation.
            assert conserved(ar)
            assert ar.total() == sum(e[0] for e in ar._entries.values())
            assert ar.total() <= ar.capacity or len(ar._entries) == 1


class TestReadSpillPlumbing:
    """Regression: dirty bytes evicted by a *read* insertion must surface."""

    def test_read_returns_spilled_dirty(self):
        ar = AnalyticResidency(CAP)
        dirty = make_buffer("dirty", CAP)
        clean = make_buffer("clean", CAP)
        ar.write(dirty, CAP)
        hit, miss, spilled = ar.read(clean, CAP)
        assert (hit, miss) == (0, CAP)
        assert spilled == CAP          # previously silently dropped
        assert conserved(ar)

    def test_dense_read_spill_reaches_dram_write_counter(self):
        ms = MemorySystem(A100)
        cap = ms.analytic.capacity
        dirty = ms.allocate("dirty", cap)
        clean = ms.allocate("clean", cap)
        task = Task(label="t")
        task.write(dirty, 0, cap, dense=True)
        task.read(clean, 0, cap, dense=True)
        for a in task.accesses:
            ms.process(a)
        # The read's insertion evicted `dirty`; its write-back must be in
        # the DRAM write counter already (not deferred to flush).
        assert ms.counters.dram_write_txns >= _txns(cap, ms.line)


class TestOffsetAwareCharging:
    """Regression: blocked reads and writes charge the same offset-aware
    line count for the same byte range."""

    def test_full_miss_read_matches_write_charge(self):
        offset, nbytes = 16, 96   # straddles an extra 32 B line
        expect = _lines(offset, nbytes, A100.transaction_bytes)
        assert expect == _txns(nbytes, A100.transaction_bytes) + 1

        ms_w = MemorySystem(A100)
        buf_w = ms_w.allocate("b", 4096)
        task = Task(label="w")
        task.write(buf_w, offset, nbytes)
        ms_w.process(task.accesses[0])

        ms_r = MemorySystem(A100)
        buf_r = ms_r.allocate("b", 4096)
        task = Task(label="r")
        task.read(buf_r, offset, nbytes)
        ms_r.process(task.accesses[0])

        assert ms_w.counters.l2_txns == expect
        assert ms_r.counters.l2_txns == expect          # full L1 miss
        assert ms_r.counters.dram_read_txns == expect   # full L2 miss


def _outcome(graph_fn, strategy):
    """Every counter, the modelled time and the cache models' ledgers of
    one profile-mode run."""
    from repro.core.engine import BrickDLEngine

    engine = BrickDLEngine(graph_fn(), strategy_override=strategy)
    plan = engine.compile()
    device = Device(engine.spec)
    m = engine.run(inputs=None, functional=False, device=device, plan=plan).metrics
    return ((m.memory.l1_txns, m.memory.l2_txns, m.memory.dram_read_txns,
             m.memory.dram_write_txns, m.num_tasks, m.total_flops,
             m.atomics.compulsory, m.atomics.conflict, m.time.total),
            device.memory.stats())


def _per_access(self, accesses):
    """The whole-run scalar oracle: every access through the per-access
    reference walk."""
    for access in accesses:
        self.process(access)


def chain_graph():
    from repro.graph.builder import GraphBuilder
    from repro.graph.tensorspec import TensorSpec

    b = GraphBuilder("chain", TensorSpec(1, 16, (32, 32)))
    for i in range(4):
        b.conv(16, 3, padding=1, bias=False, name=f"conv{i}")
    return b.finish()


def branchy_graph():
    from repro.models import zoo

    return zoo.build("mobilenet_v1", reduced=True)


def resnet_graph():
    """Fallback convs (dense strided ``reps`` rows) next to merged ones."""
    from repro.models import zoo

    return zoo.build("resnet50", reduced=True)


def vgg_graph():
    """Bricks wider than one L2 sector."""
    from repro.models import zoo

    return zoo.build("vgg16", reduced=True)


class TestSimPathEquivalence:
    """``MemorySystem.process_batch`` is counter- and ledger-identical to
    walking every access through ``MemorySystem.process``.  The program only
    ever runs the batched path; the whole-run scalar oracle is this class
    swapping it out (the distributed runner is analytic and has no memory
    system, so the three device-backed executors are the complete surface).
    Besides the counters and the modelled time it compares
    ``MemorySystem.stats()``: hit, miss, evicted, flushed and discarded bytes
    and resident sectors of both LRU levels, and the analytic ledger."""

    @staticmethod
    def _both_paths(graph_fn, strategy, monkeypatch):
        from repro.core.plan import Strategy
        from repro.gpusim.memory import MemorySystem

        s = Strategy(strategy) if strategy else None
        vector = _outcome(graph_fn, s)
        monkeypatch.setattr(MemorySystem, "process_batch", _per_access)
        scalar = _outcome(graph_fn, s)
        return scalar, vector

    @pytest.mark.parametrize("strategy", ["padded", "memoized", "wavefront"])
    def test_chain_all_executors(self, strategy, monkeypatch):
        scalar, vector = self._both_paths(chain_graph, strategy, monkeypatch)
        assert scalar == vector

    def test_model_zoo_planned(self, monkeypatch):
        scalar, vector = self._both_paths(branchy_graph, None, monkeypatch)
        assert scalar == vector

    @pytest.mark.parametrize("strategy", ["padded", "memoized"])
    def test_model_zoo_forced_strategy(self, strategy, monkeypatch):
        scalar, vector = self._both_paths(branchy_graph, strategy, monkeypatch)
        assert scalar == vector

    @pytest.mark.parametrize("strategy", [None, "padded", "memoized"])
    def test_resnet50_fallback_and_merged(self, strategy, monkeypatch):
        scalar, vector = self._both_paths(resnet_graph, strategy, monkeypatch)
        assert scalar == vector

    def test_vgg16_padded_multi_sector_bricks(self, monkeypatch):
        scalar, vector = self._both_paths(vgg_graph, "padded", monkeypatch)
        assert scalar == vector
