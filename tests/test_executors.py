"""Padded- and memoized-brick executor tests: numerical equivalence with the
reference executor, protocol invariants, and emitted-metric sanity."""

import dataclasses

import numpy as np
import pytest

from repro.core.bricked import bricked_nbytes
from repro.core.bricktask import Recency, member_deps
from repro.core.handles import BrickedHandle
from repro.core.memoized import MemoizedBrickExecutor, _COMPLETE
from repro.core.padded import PaddedBrickExecutor
from repro.core.reference import ReferenceExecutor
from repro.core.wavefront import WavefrontBrickExecutor
from repro.graph.builder import GraphBuilder
from repro.graph.regions import Interval
from repro.graph.tensorspec import TensorSpec
from repro.graph.traversal import subgraph_view
from repro.gpusim.device import Device
from repro.gpusim.spec import A100

from testlib import dense_entries, gather_dense, input_for, per_brick_values


def build_subgraph_fixture(make_graph, member_names, brick=(4, 4), seed=0, x=None, spec=A100):
    """Run the reference on the full graph; set up a merged executor over the
    named members with entries fed from reference activations, on a device
    of ``spec`` that holds the entry and weight buffers."""
    g = make_graph()
    g.init_weights()
    x = input_for(g, seed) if x is None else x
    refs = ReferenceExecutor(g).run_all(x)
    ids = [g.node(n).node_id for n in member_names]
    view = subgraph_view(g, ids)
    device = Device(spec)
    entries = {}
    for eid in view.entry_ids:
        node = g.node(eid)
        buf = device.allocate(node.name, bricked_nbytes(node.spec, brick))
        entries[eid] = BrickedHandle.create(node.spec, brick, buf)
    weight_buffers = {}
    for nid in ids:
        node = g.node(nid)
        nbytes = sum(w.nbytes for w in node.weights.values())
        if nbytes:
            weight_buffers[nid] = device.allocate(f"{node.name}/w", nbytes)
    return g, view, device, entries, weight_buffers, refs


def two_conv():
    b = GraphBuilder("g", TensorSpec(1, 3, (24, 24)))
    b.conv(6, 3, padding=1, name="conv1")
    b.relu(name="relu1")
    b.conv(6, 3, padding=1, name="conv2")
    return b.finish()


def branchy():
    b = GraphBuilder("g", TensorSpec(1, 4, (16, 16)))
    root = b.conv(4, 3, padding=1, name="root")
    left = b.conv(4, 3, padding=1, src=root, name="left")
    right = b.conv(4, 1, src=root, name="right")
    out = b.add(left, right, name="join")
    b.relu(src=out, name="out")
    return b.finish()


def strided_pool():
    b = GraphBuilder("g", TensorSpec(1, 3, (24, 24)))
    b.conv(4, 3, stride=2, padding=1, name="conv")
    b.batchnorm(name="bn")
    b.maxpool(2, name="pool")
    return b.finish()


CASES = [
    (two_conv, ("conv1", "relu1", "conv2"), "conv2"),
    (branchy, ("root", "left", "right", "join", "out"), "out"),
    (strided_pool, ("conv", "bn", "pool"), "pool"),
]


@pytest.mark.parametrize("make_graph,members,out_name", CASES)
class TestEquivalence:
    def test_padded_matches_reference(self, make_graph, members, out_name):
        g, view, device, entries, wb, refs = build_subgraph_fixture(make_graph, members)
        exits = per_brick_values(view, (4, 4), PaddedBrickExecutor.strategy, dense_entries(g, view, refs))
        out_id = g.node(out_name).node_id
        np.testing.assert_allclose(exits[out_id], refs[out_name], atol=1e-4, rtol=1e-4)

    def test_memoized_matches_reference(self, make_graph, members, out_name):
        g, view, device, entries, wb, refs = build_subgraph_fixture(make_graph, members)
        exits = per_brick_values(view, (4, 4), MemoizedBrickExecutor.strategy, dense_entries(g, view, refs))
        out_id = g.node(out_name).node_id
        np.testing.assert_allclose(exits[out_id], refs[out_name], atol=1e-4, rtol=1e-4)


EXECUTORS = [PaddedBrickExecutor, MemoizedBrickExecutor, WavefrontBrickExecutor]


def clamped_entry():
    b = GraphBuilder("g", TensorSpec(2, 3, (6, 6)))
    b.conv(4, 3, padding=1, name="conv")
    b.relu(name="out")
    return b.finish()


def padded_maxpools():
    b = GraphBuilder("g", TensorSpec(2, 3, (7, 7)))
    b.maxpool(3, stride=1, padding=1, name="pool1")
    b.maxpool(3, stride=1, padding=1, name="out")
    return b.finish()


@pytest.mark.parametrize("executor_cls", EXECUTORS, ids=lambda cls: cls.__name__)
class TestDataPathEdgeCases:
    """Batch 2 against the reference on the corners of the per-axis copy:
    whose brick size the slices use, and what a halo reads beyond the map."""

    def _run(self, executor_cls, make_graph, members, brick, entry_brick, x=None):
        g, view, device, entries, wb, refs = build_subgraph_fixture(
            make_graph, members, brick=entry_brick, x=x)
        exits = per_brick_values(view, brick, executor_cls.strategy, dense_entries(g, view, refs))
        return exits[g.node("out").node_id], refs["out"]

    def test_entry_on_its_own_grid(self, executor_cls):
        """The entry's producer bricked it with brick 8 (one overhanging
        brick over the 6x6 map); the consumer's bricks are 4.  Counting reads
        the entry's grid, values gather from its dense array: the consumer's
        patches must not depend on the entry's bricks."""
        out, ref = self._run(executor_cls, clamped_entry, ("conv", "out"), (4, 4), (8, 8))
        np.testing.assert_allclose(out, ref, atol=1e-5, rtol=1e-5)

    def test_max_pool_halo_never_reads_the_zero_mask(self, executor_cls):
        """7x7 under brick 4: row / column 7 of the boundary bricks is zero
        mask, and a padded 3x3 max-pool reads across it.  With an
        all-negative input a single leaked zero would win the max."""
        x = -1.0 - np.abs(np.random.default_rng(3).standard_normal((2, 3, 7, 7))).astype(np.float32)
        out, ref = self._run(executor_cls, padded_maxpools, ("pool1", "out"), (4, 4), (4, 4), x)
        assert (ref < 0).all()
        np.testing.assert_array_equal(out, ref)


def test_void_need_gathers_an_all_fill_patch_of_the_right_shape():
    """A need that is empty along one axis only (the void rows of a kernel <
    stride transposed conv) is the empty set: the gather hands back a patch
    with that axis of length 0, whatever the other axis asks for."""
    x = np.arange(2 * 6 * 6, dtype=np.float32).reshape(1, 2, 6, 6)
    patch = gather_dense(x[0], (Interval(3, 3), Interval(-1, 5)), -np.inf)
    assert patch.shape == (2, 0, 6) and patch.dtype == np.float32


class TestMemoizedProtocol:
    """Each property at one, three and 108 workers (one worker serializes the
    recursion; three contend on shared halo bricks; 108 leave most idle)."""

    def _runs(self):
        for workers in (1, 3, 108):
            g, view, device, entries, wb, refs = build_subgraph_fixture(
                two_conv, ("conv1", "relu1", "conv2"), spec=dataclasses.replace(A100, num_sms=workers))
            ex = MemoizedBrickExecutor(view, (4, 4), device, entries, wb)
            ex.run()
            yield ex

    def test_all_bricks_complete(self):
        for ex in self._runs():
            assert len(ex.tags) == sum(h.grid.num_bricks * h.spec.batch for h in ex.memo.values())
            assert all(s == _COMPLETE for s in ex.tags), "incomplete bricks left"

    def test_exactly_once_compute(self):
        """Total submitted tasks == total bricks across member nodes."""
        for ex in self._runs():
            total_bricks = sum(
                h.grid.num_bricks * h.spec.batch for h in ex.memo.values()
            )
            assert len(ex.device.tasks) == total_bricks

    def test_compulsory_atomics_two_per_brick(self):
        for ex in self._runs():
            metrics = ex.device.finish()
            assert metrics.atomics.compulsory == 2 * len(ex.device.tasks)

    def test_visits_at_least_deps(self):
        for ex in self._runs():
            assert ex.total_visits >= len(ex.device.tasks)


def test_one_brick_task_under_tag_and_barrier_arguments():
    """Schedules differ in when a brick runs and what orders it, not in the
    brick: the same (node, brick, sample) emitted with the memoized
    scheduler's arguments and with the wavefront's bare ones has the same
    access rows and releases; only the acquired dependency bricks, the
    certified-L2 flags, the worker lane and the CAS pair differ."""
    g, view, device, entries, wb, _ = build_subgraph_fixture(two_conv, ("conv1", "relu1", "conv2"))
    tasks = MemoizedBrickExecutor(view, (4, 4), device, entries, wb)
    nid, gpos = g.node("conv2").node_id, (1, 1)
    deps = member_deps(tasks.geom, nid, gpos)
    assert len(deps) == 9 and {d[0] for d in deps} == {g.node("relu1").node_id}

    recent = Recency(capacity=64)
    tasks.emit(nid, gpos, 0, acquired=deps, recent=recent, worker=5)  # the filter sees its bricks
    tagged = tasks.emit(nid, gpos, 0, acquired=deps, recent=recent, worker=5)
    barrier = tasks.emit(nid, gpos, 0)

    def rows(task, flag):
        return [(a.buffer, a.offset, a.nbytes, a.write, a.reps, a.dense, a.on_chip)
                + ((a.assume_l2,) if flag else ()) for a in task.accesses]

    assert rows(tagged, False) == rows(barrier, False)
    assert tagged.releases == barrier.releases and tagged.flops == barrier.flops
    assert (tagged.label, tagged.brick, tagged.batch_index) == (barrier.label, gpos, 0)
    assert rows(tagged, True) != rows(barrier, True)
    assert not any(a.assume_l2 for a in barrier.accesses)
    assert sum(a.assume_l2 for a in tagged.accesses) == len(deps)
    brick_acquires = [t for t in tagged.acquires if t[0] == "brick"]
    assert len(brick_acquires) == len(deps) and tagged.acquires[len(deps):] == barrier.acquires
    assert (tagged.worker, tagged.atomics_compulsory) == (5, 2)
    assert barrier.atomics_compulsory == 0


class TestPaddedMetrics:
    def test_one_task_per_exit_brick(self):
        g, view, device, entries, wb, refs = build_subgraph_fixture(two_conv, ("conv1", "relu1", "conv2"))
        ex = PaddedBrickExecutor(subgraph=view, brick_shape=(4, 4), device=device,
                                 entries=entries, weight_buffers=wb)
        exits = ex.run()
        out_id = g.node("conv2").node_id
        assert len(device.tasks) == exits[out_id].grid.num_bricks

    def test_no_atomics(self):
        g, view, device, entries, wb, refs = build_subgraph_fixture(two_conv, ("conv1", "relu1", "conv2"))
        PaddedBrickExecutor(subgraph=view, brick_shape=(4, 4), device=device,
                            entries=entries, weight_buffers=wb).run()
        assert device.finish().atomics.total == 0

    def test_halo_shows_as_l1_overfetch(self):
        """Padded reads more L1 bytes than memoized for the same subgraph."""
        g1, v1, d1, e1, w1, _ = build_subgraph_fixture(two_conv, ("conv1", "relu1", "conv2"))
        PaddedBrickExecutor(subgraph=v1, brick_shape=(4, 4), device=d1,
                            entries=e1, weight_buffers=w1).run()
        g2, v2, d2, e2, w2, _ = build_subgraph_fixture(two_conv, ("conv1", "relu1", "conv2"))
        MemoizedBrickExecutor(v2, (4, 4), d2, e2, w2).run()
        assert d1.finish().memory.l1_txns > 0
        assert d2.finish().memory.l1_txns > 0
