"""Unit tests for the interval/region algebra (repro.graph.regions)."""

import pytest

from repro.errors import ShapeError
from repro.graph.regions import (
    GlobalMap,
    IdentityMap,
    Interval,
    Region,
    StencilMap,
    TransposedMap,
)


class TestInterval:
    def test_length_and_empty(self):
        assert Interval(2, 5).length == 3
        assert Interval(5, 5).is_empty()
        assert Interval(6, 4).length == 0

    def test_shift(self):
        assert Interval(1, 4).shift(3) == Interval(4, 7)

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)
        assert Interval(0, 3).intersect(Interval(5, 8)).is_empty()

    def test_hull(self):
        assert Interval(0, 2).hull(Interval(5, 8)) == Interval(0, 8)
        assert Interval(3, 3).hull(Interval(1, 2)) == Interval(1, 2)

    def test_clip(self):
        assert Interval(-3, 12).clip(10) == Interval(0, 10)

    def test_contains(self):
        assert Interval(0, 10).contains(Interval(2, 5))
        assert not Interval(0, 10).contains(Interval(8, 12))
        assert Interval(0, 1).contains(Interval(5, 5))  # empty is contained

    def test_expand(self):
        assert Interval(4, 6).expand(1, 2) == Interval(3, 8)

    def test_iter(self):
        assert list(Interval(2, 5)) == [2, 3, 4]


class TestRegion:
    def test_from_extents(self):
        r = Region.from_extents((4, 6))
        assert r.shape == (4, 6)
        assert r.size == 24

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            Region.from_bounds([0], [1, 2])
        with pytest.raises(ShapeError):
            Region.from_extents((4,)).intersect(Region.from_extents((4, 4)))

    def test_intersect_hull(self):
        a = Region.from_bounds([0, 0], [4, 4])
        b = Region.from_bounds([2, 2], [6, 6])
        assert a.intersect(b) == Region.from_bounds([2, 2], [4, 4])
        assert a.hull(b) == Region.from_bounds([0, 0], [6, 6])

    def test_empty_propagation(self):
        a = Region.from_bounds([0, 5], [4, 5])
        assert a.is_empty()
        b = Region.from_extents((3, 3))
        assert a.hull(b) == b

    def test_slices(self):
        r = Region.from_bounds([2, 3], [5, 7])
        assert r.slices() == (slice(2, 5), slice(3, 7))
        assert r.slices(origin=(2, 3)) == (slice(0, 3), slice(0, 4))

    def test_clip_and_shift(self):
        r = Region.from_bounds([-2, 8], [3, 12]).clip((10, 10))
        assert r == Region.from_bounds([0, 8], [3, 10])
        assert r.shift((1, -1)) == Region.from_bounds([1, 7], [4, 9])


class TestStencilMap:
    def test_conv3_same(self):
        m = StencilMap(stride=1, padding=1, k_eff=3)
        assert m.in_interval(Interval(0, 8)) == Interval(-1, 9)
        assert m.out_extent(8) == 8
        assert m.alpha_beta() == (1, 2)

    def test_strided(self):
        m = StencilMap(stride=2, padding=1, k_eff=3)
        assert m.in_interval(Interval(0, 4)) == Interval(-1, 8)
        assert m.out_extent(8) == 4

    def test_dilated(self):
        # 3-tap kernel with dilation 2 -> k_eff 5.
        m = StencilMap(stride=1, padding=2, k_eff=5)
        assert m.in_interval(Interval(0, 8)) == Interval(-2, 10)
        assert m.out_extent(8) == 8

    def test_identity(self):
        m = IdentityMap()
        assert m.in_interval(Interval(3, 7)) == Interval(3, 7)
        assert m.out_extent(11) == 11

    def test_invalid_params(self):
        with pytest.raises(ShapeError):
            StencilMap(stride=0)
        with pytest.raises(ShapeError):
            StencilMap(k_eff=0)

    def test_local_out_offset_aligned(self):
        m = StencilMap(stride=2, padding=1, k_eff=3)
        iv = m.in_interval(Interval(4, 8))
        assert m.local_out_offset(4, iv.lo) == 0

    def test_local_out_offset_misaligned_raises(self):
        m = StencilMap(stride=2, padding=0, k_eff=3)
        with pytest.raises(ShapeError):
            m.local_out_offset(0, 1)

    def test_out_extent_too_small(self):
        with pytest.raises(ShapeError):
            StencilMap(stride=1, padding=0, k_eff=5).out_extent(3)


class TestTransposedMap:
    def test_forward_extent(self):
        m = TransposedMap(stride=2, padding=1, kernel=4)
        assert m.out_extent(5) == (5 - 1) * 2 + 4 - 2

    def test_in_interval_roundtrip(self):
        # Every output position must be derivable from the input interval.
        m = TransposedMap(stride=2, padding=1, kernel=4)
        out = Interval(3, 9)
        inp = m.in_interval(out)
        for o in out:
            producers = [i for i in inp if 0 <= o - (i * 2 - 1) < 4]
            assert producers, f"output {o} has no producer in {inp}"

    def test_local_out_offset(self):
        m = TransposedMap(stride=2, padding=1, kernel=4)
        out = Interval(4, 8)
        inp = m.in_interval(out)
        off = m.local_out_offset(out.lo, inp.lo)
        assert off >= 0


class TestGlobalMap:
    def test_requires_everything(self):
        m = GlobalMap(extent=17)
        assert m.in_interval(Interval(0, 1)) == Interval(0, 17)
        assert m.out_extent(17) == 1
        assert m.alpha_beta() is None

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            GlobalMap(extent=8).out_extent(9)
