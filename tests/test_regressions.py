"""Regression tests for the per-input offset and coalescing-window fixes.

The offset bug: executors computed the receptive-field offsets once per
input but handed only the *last* input's offsets to ``apply_node_local``,
silently misaligning any multi-input op whose inputs carry different halos.
The built-in pointwise ops never trigger it (IdentityMap offsets are all
zero), so these tests introduce an op with deliberately lopsided
receptive fields.

The window bug: the memoized executor's consumer-coalescing window was
``108 * num_sms`` -- A100's SM count baked in as if it were a per-SM
factor.  The window is one ~27-brick halo neighborhood per SM.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.bricked import bricked_nbytes
from repro.core.handles import BrickedHandle
from repro.core.memoized import HALO_NEIGHBORHOOD_BRICKS, MemoizedBrickExecutor
from repro.core.padded import PaddedBrickExecutor
from repro.core.reference import ReferenceExecutor
from repro.core.wavefront import WavefrontBrickExecutor
from repro.graph.builder import GraphBuilder
from repro.graph.ops import Add, Concat
from repro.graph.regions import Interval, RFMap
from repro.graph.tensorspec import TensorSpec
from repro.graph.traversal import subgraph_view
from repro.gpusim.device import Device
from repro.gpusim.spec import A100, GPUSpec
from repro.kernels import apply_node_local

from testlib import dense_entries, input_for, per_brick_values


@dataclass(frozen=True)
class LopsidedMap(RFMap):
    """Identity-shaped map that over-reads an asymmetric halo."""

    lo_halo: int = 0
    hi_halo: int = 0

    def in_interval(self, out: Interval) -> Interval:
        if out.is_empty():
            return Interval(0, 0)
        return Interval(out.lo - self.lo_halo, out.hi + self.hi_halo)

    def out_extent(self, in_extent: int) -> int:
        return in_extent

    def local_out_offset(self, out_lo: int, in_lo: int) -> int:
        return out_lo - in_lo


@dataclass(frozen=True)
class HaloAdd(Add):
    """Add whose first input over-reads 2 elements low, second 2 high.

    Both patches end up the same shape, so a misalignment does not crash --
    it silently shifts the first operand, which is exactly the failure mode
    the per-input offset plumbing exists to prevent.
    """

    def rf_maps(self, inputs, input_index=0):
        lo, hi = (2, 0) if input_index == 0 else (0, 2)
        return tuple(LopsidedMap(lo, hi) for _ in inputs[input_index].spatial)


class TestApplyNodeLocalOffsets:
    def _patches(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 10, 10)).astype(np.float32)
        b = rng.standard_normal((3, 10, 10)).astype(np.float32)
        # Output window [2, 8) x [2, 8); input 0 gathered [0, 8) (low halo),
        # input 1 gathered [2, 10) (high halo).
        patch_a = a[:, 0:8, 0:8]
        patch_b = b[:, 2:10, 2:10]
        expected = a[:, 2:8, 2:8] + b[:, 2:8, 2:8]
        return patch_a, patch_b, expected

    def test_per_input_offsets_align_each_patch(self):
        patch_a, patch_b, expected = self._patches()
        out = apply_node_local(Add(), [patch_a[None], patch_b[None]], {}, (6, 6),
                               [(2, 2), (0, 0)])[0]
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_single_offset_convention_misaligns(self):
        """The historical calling convention (one offset tuple for all
        inputs) cannot express differing halos: it shifts input 0."""
        patch_a, patch_b, expected = self._patches()
        legacy = apply_node_local(Add(), [patch_a[None], patch_b[None]], {}, (6, 6), (0, 0))[0]
        assert not np.allclose(legacy, expected)

    def test_uniform_offsets_unchanged(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 5, 5)).astype(np.float32)
        b = rng.standard_normal((2, 5, 5)).astype(np.float32)
        out = apply_node_local(Add(), [a[None], b[None]], {}, (5, 5), (0, 0))[0]
        np.testing.assert_allclose(out, a + b, rtol=1e-6)

    def test_concat_aligns_per_input(self):
        patch_a, patch_b, _ = self._patches()
        out = apply_node_local(Concat(), [patch_a[None], patch_b[None]], {}, (6, 6),
                               [(2, 2), (0, 0)])[0]
        assert out.shape == (6, 6, 6)
        np.testing.assert_allclose(out[:3], patch_a[:, 2:8, 2:8], rtol=1e-6)
        np.testing.assert_allclose(out[3:], patch_b[:, 0:6, 0:6], rtol=1e-6)

    def test_offset_count_must_match_inputs(self):
        patch_a, patch_b, _ = self._patches()
        with pytest.raises(Exception):
            apply_node_local(Add(), [patch_a[None], patch_b[None]], {}, (6, 6), [(2, 2)])


def lopsided_graph():
    b = GraphBuilder("lopsided", TensorSpec(1, 4, (16, 16)))
    root = b.conv(4, 3, padding=1, name="root")
    left = b.conv(4, 3, padding=1, src=root, name="left")
    right = b.conv(4, 1, src=root, name="right")
    out = b.add(left, right, name="join")
    b.relu(src=out, name="out")
    g = b.finish()
    g.node("join").op = HaloAdd()
    return g


def _memoized_fixture(g, members, brick=(4, 4), spec=A100):
    g.init_weights()
    refs = ReferenceExecutor(g).run_all(input_for(g))
    ids = [g.node(n).node_id for n in members]
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
    return view, device, entries, weight_buffers, refs


class TestExecutorPerInputOffsets:
    def test_memoized_aligns_differing_halos(self):
        """End-to-end: a merged subgraph containing the lopsided two-input
        op still matches the reference executor brick-for-brick."""
        g = lopsided_graph()
        members = ("root", "left", "right", "join", "out")
        view, device, entries, wb, refs = _memoized_fixture(g, members)
        exits = per_brick_values(view, (4, 4), MemoizedBrickExecutor.strategy, dense_entries(g, view, refs))
        out_id = g.node("out").node_id
        np.testing.assert_allclose(exits[out_id], refs["out"], atol=1e-4, rtol=1e-4)


    @pytest.mark.parametrize("executor_cls", [
        PaddedBrickExecutor, MemoizedBrickExecutor, WavefrontBrickExecutor],
        ids=lambda cls: cls.__name__)
    def test_every_executor_aligns_a_skip_add_at_batch_2(self, executor_cls):
        """A chain whose two-input op reads a member (halo low) and an entry
        (halo high): each patch keeps its own local offsets on the way from
        the geometry rows to the kernel, ragged 10x10 map included."""
        b = GraphBuilder("skip", TensorSpec(2, 4, (10, 10)))
        x = b.current
        body = b.conv(4, 3, padding=1, name="body")
        b.relu(src=b.add(body, x, name="join"), name="out")
        g = b.finish()
        g.node("join").op = HaloAdd()
        view, device, entries, wb, refs = _memoized_fixture(g, ("body", "join", "out"))
        exits = per_brick_values(view, (4, 4), executor_cls.strategy, dense_entries(g, view, refs))
        np.testing.assert_allclose(exits[g.node("out").node_id], refs["out"], atol=1e-5, rtol=1e-5)


class TestCoalescingWindow:
    def test_halo_neighborhood_constant(self):
        assert HALO_NEIGHBORHOOD_BRICKS == 27

    def test_window_scales_with_device_sms(self):
        """On a non-A100 spec the window follows that device's SM count;
        a tiny L2 makes the wave term the binding one."""
        g = lopsided_graph()
        members = ("root", "left", "right", "join", "out")
        spec = GPUSpec(name="tiny", num_sms=16, l2_bytes=4096)
        view, device, entries, wb, _ = _memoized_fixture(g, members, spec=spec)
        ex = MemoizedBrickExecutor(view, (4, 4), device, entries, wb)
        depth = view.depth
        wave = int(HALO_NEIGHBORHOOD_BRICKS * spec.num_sms * min(1.0, 3.0 / depth))
        assert ex._recent_capacity >= wave
        # The old hard-coded window (108 * num_sms) is far larger: make sure
        # it is gone on devices that are not an A100.
        assert ex._recent_capacity < 108 * spec.num_sms
