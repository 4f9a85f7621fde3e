"""Interval / region algebra for receptive fields and halos.

BrickDL's merged execution needs one central geometric fact per operator:
*which input region is required to produce a given output region?*  Section
3.2 of the paper states the contract -- an input block of size ``X_i`` along
dimension ``i`` yields an output block of size ``alpha_i * X_i + beta_i`` --
and section 3.2.1 derives the per-layer halo padding (``p_x = (X-1)/2`` for an
``X x Y`` kernel) by composing this map in reverse over a subgraph.

This module implements that algebra over half-open integer intervals:

* :class:`Interval` -- ``[lo, hi)`` with intersection/hull/shift helpers,
* :class:`Region` -- an n-dimensional box (one interval per spatial dim),
* receptive-field maps (:class:`StencilMap`, :class:`TransposedMap`,
  :class:`GlobalMap`) that answer ``required input interval for this output
  interval``.

The static halo analysis composes these maps in reverse over a subgraph
(Fig. 4 of the paper) in :meth:`repro.core.geometry.SubgraphGeometry.traverse`.

Everything is exact integer arithmetic; boundary clipping against the actual
feature-map extent is performed by callers (executors materialize implicit
zero padding for out-of-range parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import ShapeError

__all__ = [
    "Interval",
    "Region",
    "RFMap",
    "StencilMap",
    "IdentityMap",
    "TransposedMap",
    "GlobalMap",
]


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open integer interval ``[lo, hi)``.

    Empty intervals (``hi <= lo``) are permitted and normalized by
    :meth:`is_empty`-aware operations; ``length`` of an empty interval is 0.
    """

    lo: int
    hi: int

    @property
    def length(self) -> int:
        return max(0, self.hi - self.lo)

    def is_empty(self) -> bool:
        return self.hi <= self.lo

    def shift(self, offset: int) -> "Interval":
        return Interval(self.lo + offset, self.hi + offset)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (union hull)."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def clip(self, extent: int) -> "Interval":
        """Intersect with the valid index range ``[0, extent)``."""
        return Interval(max(self.lo, 0), min(self.hi, extent))

    def contains(self, other: "Interval") -> bool:
        if other.is_empty():
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def expand(self, lo_by: int, hi_by: int) -> "Interval":
        return Interval(self.lo - lo_by, self.hi + hi_by)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi))


class Region(tuple):
    """An n-dimensional box: a tuple of :class:`Interval`, one per dim.

    ``Region`` subclasses ``tuple`` so it is hashable and iterates over its
    per-dimension intervals; all box operations are elementwise.
    """

    __slots__ = ()

    def __new__(cls, intervals: Iterable[Interval]) -> "Region":
        ivs = tuple(intervals)
        for iv in ivs:
            if iv.__class__ is not Interval and not isinstance(iv, Interval):
                raise TypeError(f"Region expects Interval elements, got {type(iv).__name__}")
        return super().__new__(cls, ivs)

    @classmethod
    def trusted(cls, intervals: tuple[Interval, ...]) -> "Region":
        """Wrap a tuple of :class:`Interval` the algebra itself produced,
        skipping the per-element validation of the public constructor."""
        return tuple.__new__(cls, intervals)

    @classmethod
    def from_bounds(cls, los: Sequence[int], his: Sequence[int]) -> "Region":
        if len(los) != len(his):
            raise ShapeError("Region bounds must have equal rank")
        return cls(Interval(int(a), int(b)) for a, b in zip(los, his))

    @classmethod
    def from_extents(cls, extents: Sequence[int]) -> "Region":
        """The full box ``[0, e)`` in every dimension."""
        return cls(Interval(0, int(e)) for e in extents)

    @property
    def ndim(self) -> int:
        return len(self)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(iv.length for iv in self)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def is_empty(self) -> bool:
        return any(iv.is_empty() for iv in self)

    def intersect(self, other: "Region") -> "Region":
        self._check_rank(other)
        return Region.trusted(tuple(a.intersect(b) for a, b in zip(self, other)))

    def hull(self, other: "Region") -> "Region":
        self._check_rank(other)
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Region.trusted(tuple(a.hull(b) for a, b in zip(self, other)))

    def clip(self, extents: Sequence[int]) -> "Region":
        self._check_len(extents)
        return Region.trusted(tuple(iv.clip(int(e)) for iv, e in zip(self, extents)))

    def shift(self, offsets: Sequence[int]) -> "Region":
        self._check_len(offsets)
        return Region.trusted(tuple(iv.shift(int(o)) for iv, o in zip(self, offsets)))

    def contains(self, other: "Region") -> bool:
        self._check_rank(other)
        # An empty region is the empty set regardless of which dimension is
        # empty, so it is contained in everything (the per-interval check
        # alone would miss emptiness carried by a *different* dimension).
        if other.is_empty():
            return True
        return all(a.contains(b) for a, b in zip(self, other))

    def slices(self, origin: Sequence[int] | None = None) -> tuple[slice, ...]:
        """Numpy slices for this region, optionally relative to ``origin``."""
        if origin is None:
            origin = (0,) * self.ndim
        self._check_len(origin)
        return tuple(slice(iv.lo - int(o), iv.hi - int(o)) for iv, o in zip(self, origin))

    def _check_rank(self, other: "Region") -> None:
        if len(self) != len(other):
            raise ShapeError(f"Region rank mismatch: {len(self)} vs {len(other)}")

    def _check_len(self, seq: Sequence) -> None:
        if len(self) != len(seq):
            raise ShapeError(f"Region rank mismatch: {len(self)} vs {len(seq)}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"[{iv.lo},{iv.hi})" for iv in self)
        return f"Region({body})"


class RFMap:
    """Receptive-field map of one operator along one spatial dimension.

    Subclasses answer three questions used throughout the library:

    * :meth:`in_interval` -- the input interval required to produce a given
      output interval (the reverse map used by halo analysis and both merged
      executors),
    * :meth:`out_extent` -- forward shape inference along this dimension,
    * :meth:`alpha_beta` -- the paper's ``alpha * X + beta`` linear form for
      the *input* size required by an output block of size ``X`` (section
      3.2); operations without such a linear form (global ops) return None.
    """

    def in_interval(self, out: Interval) -> Interval:
        raise NotImplementedError

    def out_extent(self, in_extent: int) -> int:
        raise NotImplementedError

    def alpha_beta(self) -> tuple[int, int] | None:
        return None

    def local_out_offset(self, out_lo: int, in_lo: int) -> int:
        """Where absolute output position ``out_lo`` lands in the local output
        of a padding-free kernel applied to a patch starting at absolute input
        position ``in_lo``.

        Executors gather a patch covering :meth:`in_interval` (possibly
        zero-filled beyond the feature map), run the padding-free kernel on
        it, and slice the result starting at this offset.
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class StencilMap(RFMap):
    """Standard convolution/pooling-style map.

    For stride ``s``, symmetric zero padding ``p`` and *effective* kernel
    extent ``k_eff = (k - 1) * dilation + 1``, output interval ``[lo, hi)``
    requires input ``[lo*s - p, (hi-1)*s - p + k_eff)``.
    """

    stride: int = 1
    padding: int = 0
    k_eff: int = 1

    def __post_init__(self) -> None:
        if self.stride < 1 or self.k_eff < 1 or self.padding < 0:
            raise ShapeError(f"invalid StencilMap params: {self}")

    def in_interval(self, out: Interval) -> Interval:
        if out.is_empty():
            return Interval(0, 0)
        lo = out.lo * self.stride - self.padding
        hi = (out.hi - 1) * self.stride - self.padding + self.k_eff
        return Interval(lo, hi)

    def out_extent(self, in_extent: int) -> int:
        n = (in_extent + 2 * self.padding - self.k_eff) // self.stride + 1
        if n < 1:
            raise ShapeError(
                f"StencilMap produces empty output: in_extent={in_extent}, "
                f"k_eff={self.k_eff}, stride={self.stride}, padding={self.padding}"
            )
        return n

    def alpha_beta(self) -> tuple[int, int]:
        # input size for output block of size X: (X-1)*s + k_eff = s*X + (k_eff - s)
        return (self.stride, self.k_eff - self.stride)

    def local_out_offset(self, out_lo: int, in_lo: int) -> int:
        # Local output j of a padding-free stencil over a patch at absolute
        # position ``in_lo`` corresponds to absolute output (in_lo + p)/s + j
        # -- valid whenever the patch was produced by in_interval().
        numer = in_lo + self.padding
        if numer % self.stride:
            # Patch start not stride-aligned: callers must pass in_interval()
            # results, which are aligned by construction.
            raise ShapeError(
                f"patch start {in_lo} is not aligned for stride {self.stride} (padding {self.padding})"
            )
        return out_lo - numer // self.stride


class IdentityMap(StencilMap):
    """Elementwise map: output point i depends exactly on input point i."""

    def __init__(self) -> None:
        super().__init__(stride=1, padding=0, k_eff=1)


@dataclass(frozen=True, slots=True)
class TransposedMap(RFMap):
    """Transposed (fractionally strided) convolution map.

    Forward extent: ``out = (in - 1) * s + k - 2p + output_padding``.
    Output position ``o`` draws from input positions ``i`` with
    ``o = i*s + m - p`` for kernel tap ``m in [0, k)``, hence
    ``i in [ceil((o + p - k + 1)/s), floor((o + p)/s)]`` (positions in the
    output-padding tail may have no producers and are zero).
    """

    stride: int = 1
    padding: int = 0
    kernel: int = 1
    output_padding: int = 0

    def __post_init__(self) -> None:
        if self.stride < 1 or self.kernel < 1 or self.padding < 0 or self.output_padding < 0:
            raise ShapeError(f"invalid TransposedMap params: {self}")

    def in_interval(self, out: Interval) -> Interval:
        if out.is_empty():
            return Interval(0, 0)
        lo = math.ceil((out.lo + self.padding - self.kernel + 1) / self.stride)
        hi = math.floor((out.hi - 1 + self.padding) / self.stride) + 1
        return Interval(lo, hi)

    def out_extent(self, in_extent: int) -> int:
        n = (in_extent - 1) * self.stride + self.kernel - 2 * self.padding + self.output_padding
        if n < 1:
            raise ShapeError(f"TransposedMap produces empty output for extent {in_extent}")
        return n

    def alpha_beta(self) -> tuple[int, int] | None:
        # The exact input size is ceil-divided; report the conservative hull
        # linearization only for stride 1 where it is exact.
        if self.stride == 1:
            return (1, self.kernel - 1)
        return None

    def local_out_offset(self, out_lo: int, in_lo: int) -> int:
        # A padding-free transposed conv over a patch at absolute input
        # position ``in_lo`` produces local output j at absolute position
        # in_lo * s - p + j  (taps m in [0, k) land at i*s + m - p).
        return out_lo - (in_lo * self.stride - self.padding)


@dataclass(frozen=True, slots=True)
class GlobalMap(RFMap):
    """A map that requires the *entire* input extent (global pooling, softmax
    over the spatial dims, batch norm statistics in training -- anything that
    breaks the local ``alpha X + beta`` contract and therefore terminates a
    BrickDL subgraph, section 3.3.1)."""

    extent: int
    out_size: int = 1

    def in_interval(self, out: Interval) -> Interval:
        if out.is_empty():
            return Interval(0, 0)
        return Interval(0, self.extent)

    def out_extent(self, in_extent: int) -> int:
        if in_extent != self.extent:
            raise ShapeError(f"GlobalMap bound to extent {self.extent}, got {in_extent}")
        return self.out_size

    def alpha_beta(self) -> None:
        return None

    def local_out_offset(self, out_lo: int, in_lo: int) -> int:
        # The patch is the whole input, so the local output is the whole output.
        return out_lo
