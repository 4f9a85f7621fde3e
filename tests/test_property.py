"""Property-based tests (hypothesis) on the core data structures and the
merged-execution correctness invariant."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.graph.builder import GraphBuilder
from repro.graph.regions import Interval, Region, StencilMap, TransposedMap
from repro.graph.tensorspec import TensorSpec
from repro.gpusim.cache import SectorCache

from testlib import gather_dense

SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


intervals = st.tuples(st.integers(-20, 20), st.integers(0, 25)).map(
    lambda t: Interval(t[0], t[0] + t[1])
)


class TestIntervalAlgebra:
    @given(intervals, intervals)
    def test_intersection_commutes(self, a, b):
        x, y = a.intersect(b), b.intersect(a)
        assert x.is_empty() == y.is_empty()
        if not x.is_empty():
            assert x == y

    @given(intervals, intervals)
    def test_hull_contains_both(self, a, b):
        h = a.hull(b)
        assert h.contains(a) and h.contains(b)

    @given(intervals, st.integers(1, 30))
    def test_clip_within_bounds(self, iv, extent):
        c = iv.clip(extent)
        assert c.lo >= 0 and c.hi <= extent


regions = st.tuples(intervals, intervals).map(Region)
offsets = st.tuples(st.integers(-15, 15), st.integers(-15, 15))
extents = st.tuples(st.integers(1, 30), st.integers(1, 30))


class TestRegionAlgebra:
    @given(regions, regions)
    def test_intersection_commutes(self, a, b):
        x, y = a.intersect(b), b.intersect(a)
        assert x.is_empty() == y.is_empty()
        if not x.is_empty():
            assert x == y

    @given(regions)
    def test_intersection_idempotent(self, r):
        assert r.intersect(r) == r

    @given(regions, regions)
    def test_intersection_contained_in_both(self, a, b):
        x = a.intersect(b)
        assert a.contains(x) and b.contains(x)

    @given(regions, regions)
    def test_hull_contains_both(self, a, b):
        h = a.hull(b)
        assert h.contains(a) and h.contains(b)

    @given(regions, offsets)
    def test_shift_round_trip(self, r, o):
        assert r.shift(o).shift(tuple(-x for x in o)) == r

    @given(regions, offsets)
    def test_shift_preserves_shape(self, r, o):
        assert r.shift(o).shape == r.shape

    @given(regions, extents)
    def test_clip_is_intersection_with_box(self, r, e):
        clipped = r.clip(e)
        boxed = r.intersect(Region.from_extents(e))
        assert clipped.is_empty() == boxed.is_empty()
        if not clipped.is_empty():
            assert clipped == boxed

    @given(regions)
    def test_size_is_product_of_shape(self, r):
        assert r.size == int(np.prod(r.shape))
        assert r.is_empty() == (r.size == 0)

    @given(regions)
    def test_empty_propagates_through_intersection(self, r):
        empty = Region((Interval(0, 0), Interval(0, 0)))
        assert r.intersect(empty).is_empty()
        # ...but not through hull, which ignores the empty operand.
        assert r.hull(empty).is_empty() == r.is_empty()

    @given(regions, regions, regions)
    def test_intersection_associative(self, a, b, c):
        x = a.intersect(b).intersect(c)
        y = a.intersect(b.intersect(c))
        assert x.is_empty() == y.is_empty()
        if not x.is_empty():
            assert x == y


stencils = st.builds(
    StencilMap,
    stride=st.integers(1, 3),
    padding=st.integers(0, 3),
    k_eff=st.integers(1, 7),
)


class TestStencilProperties:
    @given(stencils, st.integers(0, 10), st.integers(1, 12))
    def test_in_interval_monotone(self, m, lo, length):
        small = m.in_interval(Interval(lo, lo + length))
        big = m.in_interval(Interval(lo, lo + length + 3))
        assert big.contains(small)

    @given(stencils, st.integers(0, 10), st.integers(1, 12))
    def test_alpha_beta_consistent(self, m, lo, length):
        """The paper's alpha*X + beta form equals the interval-map length."""
        alpha, beta = m.alpha_beta()
        iv = m.in_interval(Interval(lo, lo + length))
        assert iv.length == alpha * length + beta

    @given(stencils, st.integers(20, 64))
    def test_forward_backward_cover(self, m, extent):
        """The input needed for the whole output is within the padded input."""
        try:
            out = m.out_extent(extent)
        except Exception:
            return
        need = m.in_interval(Interval(0, out))
        assert need.lo >= -m.padding
        assert need.hi <= extent + m.padding


class TestTransposedProperties:
    @given(st.integers(1, 3), st.integers(0, 2), st.integers(2, 5),
           st.integers(2, 8), st.integers(1, 6))
    def test_every_output_covered(self, stride, padding, kernel, in_extent, length):
        if padding >= kernel or stride > kernel:
            # stride > kernel leaves genuine zero gaps in the output: those
            # positions have no producers by construction.
            return
        m = TransposedMap(stride=stride, padding=padding, kernel=kernel)
        try:
            out_extent = m.out_extent(in_extent)
        except Exception:
            return  # degenerate geometry (empty output) is rejected upstream
        lo = min(max(0, out_extent - length), out_extent - 1)
        out = Interval(lo, min(out_extent, lo + length))
        inp = m.in_interval(out)
        for o in out:
            assert any(
                0 <= o - (i * stride - padding) < kernel for i in inp
            ), f"output {o} uncovered"


class TestBrickRoundtrip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-3, 10), st.integers(-3, 10), st.integers(1, 8), st.integers(1, 8))
    def test_gather_matches_dense_slice(self, lo0, lo1, len0, len1):
        rng = np.random.default_rng(lo0 * 100 + lo1 + 500)
        x = rng.standard_normal((1, 3, 11, 13)).astype(np.float32)
        region = Region.from_bounds([lo0, lo1], [lo0 + len0, lo1 + len1])
        patch = gather_dense(x[0], region)
        ref = np.zeros((3, len0, len1), np.float32)
        valid = region.clip((11, 13))
        if not valid.is_empty():
            ref[(slice(None), *valid.slices(origin=[lo0, lo1]))] = x[(0, slice(None), *valid.slices())]
        np.testing.assert_array_equal(patch, ref)


class TestCacheInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 60), st.booleans()),
                    min_size=1, max_size=80))
    def test_capacity_never_exceeded(self, accesses):
        c = SectorCache(8 * 256, 256)
        for buf, sector, write in accesses:
            c.access(buf, sector * 256, 256, write)
            assert len(c) <= c.capacity_sectors

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7)), min_size=1, max_size=40))
    def test_working_set_within_capacity_always_hits_after_touch(self, accesses):
        c = SectorCache(16 * 256, 256)  # 16 sectors >= 2 bufs x 8 sectors
        touched = set()
        for buf, sector in accesses:
            r = c.access(buf, sector * 256, 256, write=False)
            if (buf, sector) in touched:
                assert r.hit_bytes == 256
            touched.add((buf, sector))


@st.composite
def random_conv_graph(draw):
    """A random small single-chain graph of mergeable ops."""
    size = draw(st.sampled_from([16, 20, 24]))
    ops = draw(st.lists(st.sampled_from(["conv", "relu", "bn", "pool", "conv_s2"]),
                        min_size=1, max_size=5))
    b = GraphBuilder("rand", TensorSpec(1, 3, (size, size)))
    for i, kind in enumerate(ops):
        try:
            if kind == "conv":
                b.conv(4, 3, padding=1, name=f"op{i}")
            elif kind == "relu":
                b.relu(name=f"op{i}")
            elif kind == "bn":
                b.batchnorm(name=f"op{i}")
            elif kind == "pool":
                b.maxpool(2, name=f"op{i}")
            elif kind == "conv_s2":
                b.conv(4, 3, stride=2, padding=1, name=f"op{i}")
        except Exception:
            break
    return b.finish()


class TestMergedEqualsNaive:
    @SLOW
    @given(random_conv_graph(), st.sampled_from([Strategy.PADDED, Strategy.MEMOIZED]))
    def test_random_graphs(self, graph, strategy):
        graph.init_weights()
        x = np.random.default_rng(0).standard_normal(graph.input_nodes[0].spec.shape).astype(np.float32)
        ref = ReferenceExecutor(graph).run(x)
        res = BrickDLEngine(graph, strategy_override=strategy, brick_override=4,
                            layer_schedule=(len(graph),)).run(x)
        for name, expected in ref.items():
            np.testing.assert_allclose(res.outputs[name], expected, atol=1e-3, rtol=1e-3)
