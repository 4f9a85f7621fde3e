"""Static effect analysis: schedule-independent proofs and traffic bounds.

This pass abstractly interprets a compiled :class:`~repro.core.plan.ExecutionPlan`
*without a device*, mirroring exactly the access streams the executors emit.
It derives them per axis **row**, not per brick: section 3.2 states the
receptive-field contract per dimension,
:class:`~repro.core.geometry.SubgraphGeometry` tabulates it as one row per
(node, axis, grid index), a task is the product of one row per axis, and every
quantity needed over a grid of tasks is separable -- a *product over axes* of
per-row values (element, overlapped-brick and dense-segment counts, so a sum
over bricks is a product over axes of per-row sums), a function of a few such
products (``_txns``, ``task_time``: rows are grouped by the lengths that matter
and each class tuple is visited once, with multiplicity), or a *conjunction
over axes* (need containment, writer existence, wave order: decided per row,
counted in closed form, with only violating bricks enumerated for the sample
messages).  Three things are not per-axis: a padded brick on a ``void``
closure row is taken one by one through ``closure_rows``; a memoized demand
set, a union of consumer brick boxes that need not be a box, is an N-D boolean
mask contracted with the per-axis row vectors; and ``collect_sets`` enumerates
byte spans brick by brick, only when asked.  From the rows the pass:

* (a) reconstructs the static happens-before structure each strategy's schedule
  induces -- the padded subgraph barrier, the memoized brick-token (CAS) edges,
  the wavefront per-wave barriers, and the fallback per-group barriers -- and
  proves **race freedom over all interleavings**: every write/write and
  write/read overlap of effect regions is ordered by an epoch (barrier) or an
  acquired token edge;
* (b) proves **exactly-once write coverage**: the union of write effects equals
  the declared output region of every materialized node, with pairwise-disjoint
  writers;
* (c) computes **static DRAM (and informational L2) traffic lower/upper bounds**
  per subgraph whose run-level totals must bracket the measured run manifests.

Soundness of the DRAM bounds rests on two invariants of
:mod:`repro.gpusim.memory`:

* pinned weight buffers charge exactly ``ceil(nbytes/32)`` DRAM read
  transactions on first touch per pin cycle (the engine pins every member's
  weights for the duration of its subgraph), which makes the weight term of the
  read bound *exact*, hence a valid lower bound;
* every dirty byte of a persistent buffer is written back exactly once
  (spill or flush), and ``sum(ceil(a_i/L)) >= ceil(sum(a_i)/L)``, which makes
  ``ceil(persistent_written_bytes/32)`` a valid write lower bound.  Transient
  buffers may be discarded without write-back, so they contribute only to the
  upper bound.

Dense activation reads go through the analytic residency model, whose
proportional-hit rule can serve chunked first-pass reads of a cold buffer with
*fewer* miss transactions than ``ceil(nbytes/32)`` -- so graph-input bytes are
deliberately **not** part of the read lower bound.

The analysis runs per batch-sample 0 and scales traffic by the batch size:
brick offsets are ``(batch * num_bricks + physical) * brick_nbytes`` with
``physical < num_bricks``, so distinct samples touch disjoint bytes and repeat
the identical effect pattern -- races and coverage are batch-invariant.

:class:`EffectMutation` seeds model-level corruptions (dropped dependency edge,
shrunken halo, skipped writer brick) used by the test suite to show the proofs
reject broken schedules with specific ``effects.*`` diagnostics.  It acts on
the same rows the production path reads (a trimmed need, a removed edge, one
cleared mask cell), so there is no second derivation for mutants.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Container, Iterable, Iterator, Sequence

import numpy as np

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.core.bricked import BrickGrid, bricked_nbytes
from repro.core.geometry import ClosureRow, SubgraphGeometry
from repro.core.perfmodel import DEFAULT_CONFIG, PerfModelConfig
from repro.core.plan import ExecutionPlan, Strategy, SubgraphPlan
from repro.graph.regions import Interval, Region
from repro.gpusim.spec import A100, GPUSpec

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graph.ir import Graph
    from repro.graph.tensorspec import TensorSpec
    from repro.graph.traversal import SubgraphView
    from repro.metrics.manifest import RunManifest

__all__ = [
    "EffectMutation",
    "EffectSet",
    "SubgraphEffects",
    "EffectReport",
    "analyze_effects",
    "check_manifest_bracket",
    "candidate_time_lower_bound",
    "effect_prune",
]

_PASS = "effects"
# Cap per-code diagnostics per subgraph so mutant plans with thousands of
# violating bricks stay readable; the count is always reported.
_MAX_DIAGS = 5
# Flat slack added to the run-level upper bounds: flush/eviction events round
# partial lines up once per event beyond the per-access ``+1`` already charged.
_UB_SLACK = 256


def _txns(nbytes: int, line: int) -> int:
    """Transactions (32-byte lines on the A100) covering ``nbytes``."""
    return -(-nbytes // line) if nbytes > 0 else 0


def _diag(
    report: AnalysisReport,
    code: str,
    severity: Severity,
    message: str,
    *,
    node_id: int | None = None,
    subgraph_index: int | None = None,
    detail: str | None = None,
) -> None:
    report.add(Diagnostic(_PASS, code, severity, message, node_id=node_id,
                          subgraph_index=subgraph_index, detail=detail))


# ---------------------------------------------------------------------------
# Effect sets (byte-interval summaries for the soundness property test)
# ---------------------------------------------------------------------------


class EffectSet:
    """A coalesced set of half-open byte intervals over one buffer.

    Dense strided region accesses are stored as their contiguous hull (a
    superset -- sound for the containment property the sanitizer test
    checks); brick and weight accesses are stored exactly.
    """

    __slots__ = ("_raw", "_norm")

    def __init__(self) -> None:
        self._raw: list[tuple[int, int]] = []
        self._norm: list[tuple[int, int]] | None = None

    def add(self, lo: int, hi: int) -> None:
        if hi > lo:
            self._raw.append((lo, hi))
            self._norm = None

    def intervals(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._normalized())

    def covers(self, lo: int, hi: int) -> bool:
        """True when ``[lo, hi)`` is fully contained in the set."""
        if hi <= lo:
            return True
        import bisect

        norm = self._normalized()
        i = bisect.bisect_right(norm, (lo, float("inf"))) - 1
        return i >= 0 and norm[i][0] <= lo and hi <= norm[i][1]

    def _normalized(self) -> list[tuple[int, int]]:
        if self._norm is None:
            merged: list[tuple[int, int]] = []
            for lo, hi in sorted(self._raw):
                if merged and lo <= merged[-1][1]:
                    if hi > merged[-1][1]:
                        merged[-1] = (merged[-1][0], hi)
                else:
                    merged.append((lo, hi))
            self._norm = merged
        return self._norm

    def __len__(self) -> int:
        return len(self._normalized())


# ---------------------------------------------------------------------------
# Public currency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectMutation:
    """Seeded model corruptions for the static rejection tests.

    ``drop_dep_edge=(consumer, producer)`` makes the *model* schedule forget
    that edge (no reads, no token acquires, no wave-placement dependency);
    ``shrink_halo=k`` trims every derived need/required region by ``k``
    elements per side; ``skip_writer=(node, flat_brick)`` omits that brick's
    writer task while its consumers still read it.  Each must be rejected by
    the analysis with a specific ``effects.*`` diagnostic.
    """

    drop_dep_edge: tuple[int, int] | None = None
    shrink_halo: int = 0
    skip_writer: tuple[int, int] | None = None


@dataclass
class SubgraphEffects:
    """Static summary of one plan entry."""

    index: int
    strategy: str
    num_tasks: int = 0
    sync_count: int = 0
    flops: float = 0.0
    task_time_sum: float = 0.0
    task_time_max: float = 0.0
    dram_read_lb: int = 0   # exact pinned weight first-touch transactions
    dram_read_ub: int = 0
    dram_write_ub: int = 0
    race_free: bool = True
    write_exact: bool = True
    read_covered: bool = True

    @property
    def proven(self) -> bool:
        return self.race_free and self.write_exact and self.read_covered


@dataclass
class EffectReport(AnalysisReport):
    """An :class:`AnalysisReport` extended with the derived summaries."""

    subgraphs: list[SubgraphEffects] = field(default_factory=list)
    dram_read_lb: int = 0
    dram_read_ub: int = 0
    dram_write_lb: int = 0
    dram_write_ub: int = 0
    l2_lb: int = 0
    l2_ub: int = 0
    sync_count: int = 0
    num_tasks: int = 0
    total_flops: float = 0.0
    task_time_sum: float = 0.0
    task_time_max: float = 0.0
    effect_sets: dict[str, EffectSet] = field(default_factory=dict)

    @property
    def dram_lb(self) -> int:
        return self.dram_read_lb + self.dram_write_lb

    @property
    def dram_ub(self) -> int:
        return self.dram_read_ub + self.dram_write_ub

    @property
    def proven(self) -> bool:
        return self.ok and all(s.proven for s in self.subgraphs)

    def bounds_summary(self) -> str:
        return (f"DRAM read [{self.dram_read_lb}, {self.dram_read_ub}] txns, "
                f"write [{self.dram_write_lb}, {self.dram_write_ub}] txns, "
                f"L2 [{self.l2_lb}, {self.l2_ub}] txns, "
                f"{self.num_tasks} tasks, {self.sync_count} syncs")


# ---------------------------------------------------------------------------
# Traffic accounting
# ---------------------------------------------------------------------------


@dataclass
class _Traffic:
    """Per-subgraph transaction bound accumulator (32-byte lines)."""

    line: int
    read_ub: int = 0
    write_ub: int = 0
    weight_txns: int = 0
    weight_l2: int = 0
    write_bytes: int = 0
    l2_write_lines: int = 0

    def access(self, seg_nbytes: int, segs: int, *, write: bool, mult: int = 1) -> None:
        """``segs`` contiguous segments of ``seg_nbytes`` each, ``mult`` times."""
        if seg_nbytes <= 0 or segs <= 0 or mult <= 0:
            return
        # Upper bound per segment: every contiguous segment misses at most
        # ceil(seg/line)+1 lines (one extra for straddling the first line).
        lines = segs * (_txns(seg_nbytes, self.line) + 1) * mult
        if write:
            self.write_ub += lines
            self.write_bytes += seg_nbytes * segs * mult
            self.l2_write_lines += segs * _txns(seg_nbytes, self.line) * mult
        else:
            self.read_ub += lines

    def weight(self, nbytes: int, passes: int) -> None:
        """One node's weights, read by ``passes`` tasks of one pin cycle."""
        # Pinned first touch: exactly ceil(nbytes/line) DRAM reads per pin
        # cycle -- contributes identically to the lower and upper bound.
        # Every read of a pinned buffer (first or not) passes through L2.
        self.weight_txns += _txns(nbytes, self.line)
        self.weight_l2 += passes * (_txns(nbytes, self.line) + 1)


def _brick_nbytes(spec: "TensorSpec", grid: BrickGrid) -> int:
    """Bytes of one (contiguous) brick of an activation stored on ``grid``."""
    return spec.channels * math.prod(grid.brick_shape) * spec.itemsize


def _shrink(iv: Interval, k: int) -> Interval:
    """Trim ``k`` elements per side (never inverting)."""
    return Interval(iv.lo + k, max(iv.lo + k, iv.hi - k))


def _dense_layout(spec: "TensorSpec") -> tuple[int, list[int]]:
    """(channel plane bytes, per-dim strides) of a row-major activation."""
    item = spec.itemsize
    spatial = spec.spatial
    nd = len(spatial)
    plane = math.prod(spatial) * item
    strides = [item] * nd
    for d in range(nd - 2, -1, -1):
        strides[d] = strides[d + 1] * spatial[d + 1]
    return plane, strides


# ---------------------------------------------------------------------------
# Task grids: a boolean cell mask and one row per axis index
# ---------------------------------------------------------------------------
#
# The tasks a schedule runs over one node form a grid, and what a task touches
# is the product of one row per axis.  These helpers sum, count, propagate and
# test over the cells of an N-D boolean ``mask`` from the rows alone; their
# ``Axes`` arguments hold, per axis, one value per grid index.

Axes = Sequence[Sequence[Any]]
Needs = Sequence[Sequence[Interval]]
Ranges = Sequence[Sequence[range]]


def _outer(flags: Axes) -> np.ndarray:
    """The cells whose flag is set on every axis."""
    return functools.reduce(np.logical_and.outer,
                            [np.asarray(axis, dtype=bool) for axis in flags])


def _contract(mask: np.ndarray, values: Axes) -> int:
    """Sum over the cells of ``mask`` of the product of one value per axis
    (int64: every such sum is bounded by a run's traffic or element total)."""
    out = mask
    for axis in reversed(values):
        out = out @ np.asarray(axis, dtype=np.int64)
    return int(out)


def _classes(mask: np.ndarray, keys: Axes) -> Iterator[tuple[tuple[Any, ...], int]]:
    """The distinct one-key-per-axis tuples over the cells of ``mask``, each
    with the number of cells carrying it."""
    distinct = [list(dict.fromkeys(axis)) for axis in keys]
    ids = np.zeros((), dtype=np.int64)
    for axis, found in zip(keys, distinct):
        index = {key: i for i, key in enumerate(found)}
        ids = np.add.outer(ids * len(found), np.array([index[key] for key in axis]))
    counts = np.bincount(ids[mask], minlength=math.prod(map(len, distinct)))
    for combo, count in zip(itertools.product(*distinct), counts.tolist()):
        if count:
            yield combo, count


def _ranges(grid: BrickGrid, needs: Needs) -> list[list[range]]:
    """Per row, the brick indices of ``grid`` its need overlaps: the bricks a
    cell reads are the product of its rows' ranges."""
    return [[grid.axis_bricks(a, iv.lo, iv.hi) for iv in axis] for a, axis in enumerate(needs)]


def _dilate(mask: np.ndarray, ranges: Ranges, shape: tuple[int, ...]) -> np.ndarray:
    """Union over the cells of ``mask`` of their brick boxes, on a grid of
    ``shape``.  A union of products of ranges separates axis by axis; the
    result need not be a box (two consumers whose ranges do not nest)."""
    out = mask
    for a, axis in enumerate(ranges):
        lead = (slice(None),) * a
        grown = np.zeros(out.shape[:a] + (shape[a],) + out.shape[a + 1:], dtype=bool)
        for i, r in enumerate(axis):
            grown[lead + (slice(r.start, r.stop),)] |= out[lead + (slice(i, i + 1),)]
        out = grown
    return out


def _box_max(values: np.ndarray, ranges: Ranges) -> np.ndarray:
    """Per cell, the maximum of ``values`` over its brick box (-1 if empty)."""
    out = values
    for a, axis in enumerate(ranges):
        lead = (slice(None),) * a
        out = np.stack([out[lead + (slice(r.start, r.stop),)].max(axis=a, initial=-1)
                        for r in axis], axis=a)
    return out


def _gaps(mask: np.ndarray, true: Needs, model: Needs | None,
          extents: Sequence[int]) -> np.ndarray | None:
    """The cells of ``mask`` whose required region (``true``, clipped to the
    producer's extents) is non-empty and not contained in the modeled one.
    Containment is a conjunction over axes, so it is decided per row."""
    if model is true:
        return None
    live = [[min(t.hi, e) > max(t.lo, 0) for t in axis] for axis, e in zip(true, extents)]
    if model is None:
        return mask & _outer(live)
    ok = [[m.clip(e).contains(t.clip(e)) for m, t in zip(ms, ts)]
          for ms, ts, e in zip(model, true, extents)]
    return mask & _outer(live) & ~_outer(ok)


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class _Violations:
    """Exact per-code violation counts and sample messages for one subgraph.

    Only the first ``_MAX_DIAGS`` messages of a code in schedule order (the
    sort key) are rendered, so a source hands over its total and no more than
    its own first ``_MAX_DIAGS`` messages."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[tuple[tuple[Any, ...], str]]] = {}

    def found(self, code: str, count: int,
              samples: Iterable[tuple[tuple[Any, ...], str]]) -> None:
        if count:
            self.counts[code] = self.counts.get(code, 0) + count
            self.samples.setdefault(code, []).extend(samples)

    def flush(self, report: EffectReport, subgraph_index: int) -> None:
        for code, count in sorted(self.counts.items()):
            for _, msg in sorted(self.samples[code])[:_MAX_DIAGS]:
                _diag(report, code, Severity.ERROR, msg, subgraph_index=subgraph_index)
            if count > _MAX_DIAGS:
                _diag(report, code, Severity.ERROR,
                      f"... and {count - _MAX_DIAGS} more {code} violations",
                      subgraph_index=subgraph_index)


@dataclass
class _Merged:
    """One merged subgraph under analysis."""

    view: "SubgraphView"
    geom: SubgraphGeometry
    grids: dict[int, BrickGrid]  # per member
    se: SubgraphEffects
    tr: _Traffic
    viol: _Violations
    batch: int


class _Analyzer:
    """Shared run state: boundary layouts, epochs, and run totals."""

    def __init__(self, plan: ExecutionPlan, spec: GPUSpec, mutation: EffectMutation,
                 collect: bool, report: EffectReport) -> None:
        self.graph: "Graph" = plan.graph
        self.spec = spec
        self.line = spec.transaction_bytes
        self.mutation = mutation
        self.collect = collect
        self.report = report
        # Boundary layout per produced node id: None = dense row-major, else
        # the brick grid it is stored on.  Mirrors the engine's ``boundary``
        # handle dict.
        self.fmt: dict[int, BrickGrid | None] = {}
        self.buf_name: dict[int, str] = {}
        # Epoch = number of device barriers before a task; two tasks in
        # different epochs are ordered by a synchronize().
        self.epoch = 0
        self.produced_epoch: dict[int, int] = {}
        self.persistent_written = 0
        self.write_bytes = 0
        self.outputs = {n.node_id for n in self.graph.output_nodes}
        for node in self.graph.input_nodes:
            self.fmt[node.node_id] = None
            self.buf_name[node.node_id] = f"{self.graph.name}/{node.name}"
            self.produced_epoch[node.node_id] = -1

    # -- small helpers -------------------------------------------------------
    def _span(self, name: str, lo: int, hi: int) -> None:
        if self.collect:
            self.report.effect_sets.setdefault(name, EffectSet()).add(lo, hi)

    def _tasks(self, se: SubgraphEffects, flops: float, calls: int, count: int = 1) -> None:
        """``count`` tasks of ``flops`` in ``calls`` kernel invocations each."""
        t = self.spec.task_time(flops, calls)
        se.task_time_sum += t * count
        se.task_time_max = max(se.task_time_max, t)
        se.num_tasks += count
        se.flops += flops * count

    def _weights(self, tr: _Traffic, nid: int, passes: int) -> None:
        """``passes`` tasks of one subgraph each read ``nid``'s weights."""
        node = self.graph.node(nid)
        nbytes = node.op.weight_bytes([self.graph.node(i).spec for i in node.inputs])
        if nbytes and passes:
            tr.weight(nbytes, passes)
            self._span(f"{self.graph.name}/{node.name}/w", 0, nbytes)

    def _full_access(self, tr: _Traffic, name: str, nbytes: int, *, write: bool) -> None:
        tr.access(nbytes, 1, write=write)
        self._span(name, 0, nbytes)

    def _dense_grid(self, tr: _Traffic, name: str, spec: "TensorSpec", mask: np.ndarray,
                    regions: Needs, *, write: bool, mult: int) -> None:
        """One strided region access on a row-major buffer per cell of
        ``mask`` (all channels, mirrored from ``DenseHandle._region_access``):
        contiguous runs along the last axis, one per channel and leading
        position, so the line count is a product over axes of per-row sums.
        Traffic is charged per batch sample (``mult``); effect spans are
        enumerated, cell by cell and for all samples, only when collecting."""
        item = spec.itemsize
        clipped = [[iv.clip(e) for iv in axis] for axis, e in zip(regions, spec.spatial)]
        *lead, last = [[iv.length for iv in axis] for axis in clipped]
        runs = spec.channels * mult
        lines = runs * _contract(
            mask, [*lead, [_txns(n * item, self.line) + 1 if n else 0 for n in last]])
        if write:
            tr.write_ub += lines
            tr.write_bytes += runs * item * _contract(mask, [*lead, last])
            tr.l2_write_lines += runs * _contract(
                mask, [*lead, [_txns(n * item, self.line) for n in last]])
        else:
            tr.read_ub += lines
        if self.collect:
            plane, strides = _dense_layout(spec)
            for cell in np.argwhere(mask).tolist():
                box = [axis[i] for axis, i in zip(clipped, cell)]
                if any(iv.is_empty() for iv in box):
                    continue
                rel = sum(iv.lo * s for iv, s in zip(box, strides))
                end = ((spec.channels - 1) * plane
                       + sum((iv.hi - 1) * s for iv, s in zip(box, strides)) + item)
                for n in range(spec.batch):
                    base = n * spec.channels * plane
                    self._span(name, base + rel, base + end)

    def _brick_spans(self, name: str, cells: np.ndarray, nbytes: int, nbatch: int) -> None:
        """Whole-brick effect spans of the ``cells`` of a grid, per sample."""
        if self.collect:
            for flat in np.flatnonzero(cells).tolist():
                for n in range(nbatch):
                    lo = (n * cells.size + flat) * nbytes
                    self._span(name, lo, lo + nbytes)

    def _brick_reads(self, sg: _Merged, name: str, spec: "TensorSpec", grid: BrickGrid,
                     mask: np.ndarray, ranges: Ranges) -> None:
        """Every cell of ``mask`` reads the whole bricks of its box."""
        nbytes = _brick_nbytes(spec, grid)
        sg.tr.access(nbytes, _contract(mask, [[len(r) for r in axis] for axis in ranges]),
                     write=False, mult=sg.batch)
        if self.collect:
            self._brick_spans(name, _dilate(mask, ranges, grid.grid_shape), nbytes, sg.batch)

    def _entry_reads(self, sg: _Merged, eid: int, mask: np.ndarray, needs: Needs) -> None:
        """Region reads against an entry in its current layout: strided
        row-major segments when dense, whole overlapping bricks when bricked."""
        spec = self.graph.node(eid).spec
        grid = self.fmt[eid]
        if grid is None:
            self._dense_grid(sg.tr, self.buf_name[eid], spec, mask, needs,
                             write=False, mult=sg.batch)
        else:
            self._brick_reads(sg, self.buf_name[eid], spec, grid, mask, _ranges(grid, needs))

    # -- layout conversions --------------------------------------------------
    def _convert_to_bricks(self, tr: _Traffic, se: SubgraphEffects, eid: int,
                           brick_shape: tuple[int, ...]) -> None:
        """Mirror ``BrickDLEngine._ensure_bricked``.  No barrier orders the
        conversion against its consumers: the executors acquire the new
        buffer's whole-buffer token at the read itself."""
        node = self.graph.node(eid)
        spec = node.spec
        old = self.fmt[eid]
        grid = BrickGrid(spec.spatial, tuple(min(b, e) for b, e in zip(brick_shape, spec.spatial)))
        self._full_access(tr, self.buf_name[eid], spec.nbytes if old is None
                          else bricked_nbytes(spec, old.brick_shape), write=False)
        name = f"{node.name}/bricked"
        tr.access(_brick_nbytes(spec, grid), grid.num_bricks, write=True, mult=spec.batch)
        self._span(name, 0, bricked_nbytes(spec, grid.brick_shape))
        self.fmt[eid] = grid
        self.buf_name[eid] = name
        self._tasks(se, 0.0, 1)

    def _convert_to_dense(self, tr: _Traffic, se: SubgraphEffects, eid: int) -> None:
        """Mirror ``BrickDLEngine._ensure_dense`` (no-op on dense handles)."""
        grid = self.fmt[eid]
        if grid is None:
            return
        node = self.graph.node(eid)
        spec = node.spec
        tr.access(_brick_nbytes(spec, grid), grid.num_bricks, write=False, mult=spec.batch)
        self._span(self.buf_name[eid], 0, bricked_nbytes(spec, grid.brick_shape))
        name = f"{node.name}/dense"
        self._full_access(tr, name, spec.nbytes, write=True)
        if eid in self.outputs:
            # Allocated non-transient: flushed (and charged) at run end.
            self.persistent_written += spec.nbytes
        self.fmt[eid] = None
        self.buf_name[eid] = name
        self._tasks(se, 0.0, 1)

    # -- the seeded model ----------------------------------------------------
    def _model_needs(self, true: Needs, dropped: bool) -> Needs | None:
        """The model's version of ``true`` need rows: ``None`` for a dropped
        edge, trimmed by ``shrink_halo``, else the very rows."""
        if dropped:
            return None
        k = self.mutation.shrink_halo
        return [[_shrink(iv, k) for iv in axis] for axis in true] if k else true

    def _skipped(self, nids: Container[int], grid: BrickGrid
                 ) -> tuple[int | None, tuple[int, ...] | None]:
        """``skip_writer`` as (node, cell of ``grid``) if it names one of
        ``nids`` and a brick of the grid, else ``(None, None)``."""
        skip = self.mutation.skip_writer
        if skip is None or skip[0] not in nids or not 0 <= skip[1] < grid.num_bricks:
            return None, None
        return skip[0], tuple(int(i) for i in np.unravel_index(skip[1], grid.grid_shape))

    def _read_coverage(self, viol: _Violations, mask: np.ndarray, true: Needs,
                       model: Needs | None, extents: Sequence[int], what: str,
                       key: tuple[Any, ...], origin: Sequence[int], tail: int) -> None:
        """Proof obligation (c): the model's read of every cell covers what
        the cell truly requires.  Samples name the first violating cells."""
        gaps = _gaps(mask, true, model, extents)
        if gaps is None or not gaps.any():
            return
        samples = []
        for cell in np.argwhere(gaps)[:_MAX_DIAGS].tolist():
            need = Region.trusted(tuple(axis[i] for axis, i in zip(true, cell)))
            read = None if model is None else Region.trusted(
                tuple(axis[i] for axis, i in zip(model, cell)))
            gpos = tuple(o + i for o, i in zip(origin, cell))
            samples.append(((*key, gpos, tail),
                            f"{what} read {read} does not cover required region {need}"))
        viol.found("effects.read-coverage", int(gaps.sum()), samples)

    # -- merged subgraphs ----------------------------------------------------
    def merged(self, sub: SubgraphPlan) -> SubgraphEffects:
        strategy = sub.strategy
        view = sub.subgraph
        if strategy is Strategy.WAVEFRONT:
            from repro.core.wavefront import is_chain_subgraph

            if not is_chain_subgraph(view):
                strategy = Strategy.MEMOIZED  # mirrors the engine fallback
        se = SubgraphEffects(index=sub.index, strategy=strategy.value)
        tr = _Traffic(self.line)
        viol = _Violations()
        graph = self.graph
        brick_shape = tuple(sub.brick_shape)
        epoch0 = self.epoch

        # Entry layouts + any to-bricks conversions.
        for i, eid in enumerate(view.entry_ids):
            grid = self.fmt[eid]
            if grid is not None and grid.brick_shape != brick_shape:
                self._convert_to_bricks(tr, se, eid, brick_shape)
            if self.produced_epoch[eid] >= epoch0:
                viol.found("effects.race", 1, [(
                    (0, i), f"entry {eid} produced in epoch {self.produced_epoch[eid]} "
                            f"but consumed in epoch {epoch0} without a barrier")])

        grids = {nid: BrickGrid(graph.node(nid).spec.spatial, brick_shape)
                 for nid in view.node_ids}
        sg = _Merged(view, SubgraphGeometry(view, brick_shape), grids, se, tr, viol,
                     graph.node(view.node_ids[0]).spec.batch)
        if strategy is Strategy.PADDED:
            suffix = "bricked"
            self._padded(sg)
        else:
            suffix = "wave" if strategy is Strategy.WAVEFRONT else "memo"
            self._bricked(sg, suffix, waves=strategy is Strategy.WAVEFRONT)
        self.epoch = epoch0 + se.sync_count

        for eid in view.exit_ids:
            self.fmt[eid] = grids[eid]
            self.buf_name[eid] = f"{graph.node(eid).name}/{suffix}"
            self.produced_epoch[eid] = self.epoch - 1

        viol.flush(self.report, sub.index)
        se.race_free = "effects.race" not in viol.counts
        se.write_exact = "effects.write-coverage" not in viol.counts
        se.read_covered = "effects.read-coverage" not in viol.counts
        self._close(se, tr)
        return se

    def _padded(self, sg: _Merged) -> None:
        """One task per exit brick computes the brick's whole halo closure
        (entries copied in, member patches recomputed in on-chip scratch),
        then one barrier.  Closure rows compose per axis, so an exit's bricks
        are accounted as one grid -- except a brick on a ``void`` row (see
        :meth:`SubgraphGeometry.closure_rows`) and a seeded skip cell, which
        are taken one by one."""
        graph = self.graph
        computed = dict.fromkeys(sg.view.node_ids, 0)  # member -> tasks computing it
        for order, exit_id in enumerate(sg.view.exit_ids):
            spec = graph.node(exit_id).spec
            grid = sg.grids[exit_id]
            table = sg.geom.closure_table(exit_id)
            single = ~_outer([[not row.void for row in axis] for axis in table])
            # A member's "brick" in the padded schedule is its scratch patch
            # inside the exit-brick task of the same flat index.
            skipped, cell = self._skipped(computed, grid)
            if cell is not None:
                single[cell] = True
            wrote = np.ones(grid.grid_shape, dtype=bool)
            tasks, covered = self._padded_grid(sg, order, exit_id, table, ~single,
                                               (0,) * grid.ndim, None, computed)
            for gpos in map(tuple, np.argwhere(single).tolist()):
                if gpos == cell and skipped == exit_id:
                    wrote[gpos] = False
                    continue
                rows = [[row] for row in sg.geom.closure_rows(exit_id, gpos)]
                one = self._padded_grid(sg, order, exit_id, rows,
                                        np.ones((1,) * grid.ndim, dtype=bool), gpos,
                                        skipped if gpos == cell else None, computed)
                tasks, covered = tasks + one[0], covered + one[1]
            nbytes = _brick_nbytes(spec, grid)
            sg.tr.access(nbytes, tasks, write=True, mult=sg.batch)
            self._brick_spans(f"{graph.node(exit_id).name}/bricked", wrote, nbytes, sg.batch)
            if tasks < grid.num_bricks:
                sg.viol.found("effects.write-coverage", 1, [(
                    (1, order), f"exit {exit_id}: {tasks}/{grid.num_bricks} bricks written")])
            elif covered != math.prod(spec.spatial):
                sg.viol.found("effects.write-coverage", 1, [(
                    (1, order), f"exit {exit_id}: write effects cover {covered} "
                                f"of {math.prod(spec.spatial)} elements")])
        for nid, passes in computed.items():
            self._weights(sg.tr, nid, passes)
        sg.se.sync_count = 1

    def _padded_grid(self, sg: _Merged, order: int, exit_id: int,
                     rows: Sequence[Sequence[ClosureRow]], mask: np.ndarray,
                     origin: tuple[int, ...], skipped: int | None,
                     computed: dict[int, int]) -> tuple[int, int]:
        """The exit-brick tasks on the cells of ``mask`` over closure ``rows``
        (cell ``i`` is brick ``origin + i``); ``skipped`` names a member whose
        patch write they omit.  Returns how many tasks there are and how many
        exit elements they write."""
        tasks = int(mask.sum())
        if not tasks:
            return 0, 0
        graph = self.graph
        required = rows[0][0].required  # keyed alike in every row
        drop = self.mutation.drop_dep_edge
        dropped = (drop[1] if drop is not None and drop[0] in required
                   and drop[1] != exit_id else None)
        model: dict[int, Needs] = {}
        for j, nid in enumerate(required):
            true = [[row.required[nid] for row in axis] for axis in rows]
            if nid == exit_id:
                model[nid] = true
                continue
            needs = self._model_needs(true, nid == dropped)
            # The task's effect regions (entries copied in, member patches
            # recomputed) must cover the true closure.
            self._read_coverage(sg.viol, mask, true, needs, graph.node(nid).spec.spatial,
                                f"node {exit_id}: modeled closure of node {nid}",
                                (1, order), origin, j)
            if needs is not None:
                model[nid] = needs

        # Entry reads + whole-buffer token acquires (model effects).
        for eid in sg.view.entry_ids:
            if eid in model:
                self._entry_reads(sg, eid, mask, model[eid])

        # Member compute (scratch traffic is on-chip: L1 only).  Tasks whose
        # members' clipped patch lengths agree on every axis cost the same.
        members = [nid for nid in sg.view.node_ids if nid in model]
        lengths = [[[iv.clip(e).length for iv in axis]
                    for axis, e in zip(model[nid], graph.node(nid).spec.spatial)]
                   for nid in members]
        keys = [list(zip(*(lens[a] for lens in lengths))) for a in range(len(rows))]
        for combo, count in _classes(mask, keys):
            flops = 0.0
            calls = 0
            for j, nid in enumerate(members):
                elems = math.prod(key[j] for key in combo)
                if not elems:
                    continue
                if nid == skipped:
                    sg.viol.found("effects.race", 1, [(
                        (1, order, origin, j),
                        f"task for exit brick {origin} skips the patch "
                        f"write of member {nid} that its consumers read")])
                    continue
                computed[nid] += count
                flops += sg.geom.flops(nid, graph.node(nid).spec.channels * elems)
                calls += 1
            self._tasks(sg.se, flops, max(calls, 1), count)
        return tasks, _contract(mask, [[row.out.length for row in axis] for axis in rows])

    def _bricked(self, sg: _Merged, suffix: str, *, waves: bool) -> None:
        """One task per (member, brick), every brick computed exactly once:
        demand-driven and ordered by brick tokens (memoized), or all bricks
        on per-wave barriers (``waves``); buffers are named ``*/suffix``."""
        graph = self.graph
        view = sg.view
        grids = sg.grids
        tables = {nid: sg.geom.table(nid) for nid in view.node_ids}

        # Per (member, input): the true need of every row, the model's (None
        # = dropped edge) and, for a member producer, the bricks it overlaps.
        true: dict[tuple[int, int], Needs] = {}
        model: dict[tuple[int, int], Needs | None] = {}
        ranges: dict[tuple[int, int], Ranges] = {}
        for nid, table in tables.items():
            for k, pred in enumerate(graph.node(nid).inputs):
                true[nid, k] = [[row.edges[k].need for row in axis] for axis in table]
                model[nid, k] = self._model_needs(
                    true[nid, k], self.mutation.drop_dep_edge == (nid, pred))
                if pred in grids:
                    ranges[nid, k] = _ranges(grids[pred], model[nid, k] or [
                        [Interval(0, 0)] * len(axis) for axis in table])

        # Demand closure from the exit goals -- exactly the brick set the
        # recursive executor computes (exactly once, via the 3-state tags):
        # consumers before producers, each handing its demand on through the
        # per-axis brick ranges of its rows.  The seeded skip removes a
        # writer; its consumers still read the brick.
        demand = {nid: np.full(grid.grid_shape, waves or nid in view.exit_ids)
                  for nid, grid in grids.items()}
        for nid in reversed(view.node_ids):
            if waves or not demand[nid].any():
                continue
            for k, pred in enumerate(graph.node(nid).inputs):
                if pred in grids:
                    demand[pred] |= _dilate(demand[nid], ranges[nid, k], grids[pred].grid_shape)
        writers = dict(demand)
        for nid, grid in grids.items():
            cell = self._skipped((nid,), grid)[1]
            if cell is not None:
                writers[nid] = demand[nid].copy()
                writers[nid][cell] = False

        # Wave placement by dependency longest path from the *model* needs
        # (exactly the executor's derivation; only the first member input
        # places, mirroring the chain executor): first-layer bricks stagger
        # along axis 0, every other brick lands one wave after the latest
        # brick of its box -- by induction a function of (node, gpos[0])
        # wherever no row's range is empty.
        wave: dict[int, np.ndarray] = {}
        for nid in view.node_ids if waves else ():
            inputs = graph.node(nid).inputs
            k = next((k for k, pred in enumerate(inputs) if pred in grids), None)
            if k is None:
                shape = grids[nid].grid_shape
                stagger = np.arange(shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
                wave[nid] = np.broadcast_to(stagger, shape)
            else:
                wave[nid] = _box_max(wave[inputs[k]], ranges[nid, k]) + 1

        for nid in view.node_ids:
            node = graph.node(nid)
            mask = writers[nid]
            tasks = int(mask.sum())
            sizes = [[row.length for row in axis] for axis in tables[nid]]
            if nid in view.exit_ids:
                # Exactly-once coverage of an exit: each brick has one writer
                # (structural: one task per (node, brick)) and the clipped
                # write effects tile the declared output region.
                covered, total = _contract(mask, sizes), math.prod(node.spec.spatial)
                if tasks < grids[nid].num_bricks:
                    sg.viol.found("effects.write-coverage", 1, [(
                        (nid,), f"exit {nid}: {grids[nid].num_bricks - tasks} of "
                                f"{grids[nid].num_bricks} bricks have no writer")])
                elif covered != total:
                    sg.viol.found("effects.write-coverage", 1, [(
                        (nid,), f"exit {nid}: write effects cover {covered} of {total} elements")])
            if not tasks:
                continue
            for k, pred in enumerate(node.inputs):
                pspec = graph.node(pred).spec
                needs = model[nid, k]
                self._read_coverage(sg.viol, mask, true[nid, k], needs, pspec.spatial,
                                    f"node {nid}: modeled need of input {pred}",
                                    (1, nid), (0,) * mask.ndim, k)
                if needs is None:
                    continue
                if pred not in grids:
                    self._entry_reads(sg, pred, mask, needs)
                    continue
                self._brick_reads(sg, f"{graph.node(pred).name}/{suffix}", pspec,
                                  grids[pred], mask, ranges[nid, k])
                self._read_order(sg, nid, k, mask, ranges[nid, k], demand[pred],
                                 writers[pred], wave.get(nid), wave.get(pred))
            self._weights(sg.tr, nid, tasks)
            nbytes = _brick_nbytes(node.spec, grids[nid])
            sg.tr.access(nbytes, tasks, write=True, mult=sg.batch)
            self._brick_spans(f"{node.name}/{suffix}", mask, nbytes, sg.batch)
            for lens, count in _classes(mask, sizes):
                self._tasks(sg.se, sg.geom.flops(nid, node.spec.channels * math.prod(lens)),
                            1, count)
        sg.se.sync_count = max(int(w.max()) for w in wave.values()) + 1 if waves else 1

    def _read_order(self, sg: _Merged, nid: int, k: int, mask: np.ndarray, ranges: Ranges,
                    demand: np.ndarray, writers: np.ndarray, wave: np.ndarray | None,
                    pred_wave: np.ndarray | None) -> None:
        """Proof obligation (a) for the member-brick reads of input ``k``.
        Memoized: the dependency scan and the acquire stamping derive from
        the same needs, so what is left to prove is writer existence (no
        dangling read).  Wavefront: no token edges -- the per-wave barrier is
        the whole protocol, so every dependency brick must also land on a
        strictly earlier wave.  Only violating bricks are enumerated."""
        pred = self.graph.node(nid).inputs[k]
        for cell in map(tuple, np.argwhere(demand & ~writers).tolist()):
            readers = mask & _outer([[i in r for r in axis] for i, axis in zip(cell, ranges)])
            sg.viol.found("effects.race", int(readers.sum()), [
                ((1, nid, tuple(gpos), k, cell),
                 f"node {nid} brick {tuple(gpos)} reads {pred} brick {cell} which no "
                 f"{'' if wave is not None else 'ordered '}task writes")
                for gpos in np.argwhere(readers)[:_MAX_DIAGS].tolist()])
        if wave is None or pred_wave is None:
            return
        late = mask & (_box_max(np.where(writers, pred_wave, -1), ranges) >= wave)
        for gpos in map(tuple, np.argwhere(late).tolist()):
            for dep in itertools.product(*(axis[i] for axis, i in zip(ranges, gpos))):
                if writers[dep] and pred_wave[dep] >= wave[gpos]:
                    sg.viol.found("effects.race", 1, [(
                        (1, nid, gpos, k, dep),
                        f"node {nid} brick {gpos} on wave {wave[gpos]} reads {pred} brick "
                        f"{dep} on wave {pred_wave[dep]} (no barrier between)")])

    # -- vendor-library fallback --------------------------------------------
    def fallback(self, sub: SubgraphPlan) -> SubgraphEffects:
        from repro.baselines.fusion import fuse_members
        from repro.baselines.tiled import adaptive_tile, group_flops_per_out_element, tile_axes

        graph = self.graph
        se = SubgraphEffects(index=sub.index, strategy=Strategy.CUDNN.value)
        tr = _Traffic(self.line)
        viol = _Violations()
        for group in fuse_members(graph, sub.subgraph.node_ids):
            out = group.output
            group_ids = {n.node_id for n in group.nodes}
            for gnode in group.nodes:
                for pred in gnode.inputs:
                    if pred not in group_ids:
                        self._convert_to_dense(tr, se, pred)
            out_name = f"{graph.name}/{out.name}"
            # Fallback outputs are persistent (flush-charged at run end).
            self.persistent_written += out.spec.nbytes
            fpe = group_flops_per_out_element(graph, group)
            if group.primary.op.is_global or not out.spec.spatial:
                for gnode in group.nodes:
                    for pred in gnode.inputs:
                        if pred not in group_ids:
                            self._full_access(tr, self.buf_name[pred],
                                              graph.node(pred).spec.nbytes, write=False)
                    self._weights(tr, gnode.node_id, 1)
                self._full_access(tr, out_name, out.spec.nbytes, write=True)
                self._tasks(se, fpe * out.spec.num_elements, 1)
            else:
                # One task per tile of a product grid: tile regions, their
                # halo-enlarged primary needs and their sizes are one row per
                # axis index, like bricks.
                tile = 16 if out.spec.spatial_ndim >= 3 else 32
                tiles = tile_axes(out.spec.spatial,
                                  adaptive_tile(out.spec.spatial, tile, self.spec.num_sms))
                mask = np.ones([len(axis) for axis in tiles], dtype=bool)
                primary = group.primary
                primary_specs = [graph.node(i).spec for i in primary.inputs]
                batch = out.spec.batch
                for input_index, pred in enumerate(primary.inputs):
                    maps = primary.op.rf_maps(primary_specs, input_index)
                    self._dense_grid(tr, self.buf_name[pred], graph.node(pred).spec, mask,
                                     [[m.in_interval(iv) for iv in axis]
                                      for m, axis in zip(maps, tiles)],
                                     write=False, mult=batch)
                for fnode in group.fused:
                    for pred in fnode.inputs:
                        if pred not in group_ids:
                            self._dense_grid(tr, self.buf_name[pred], graph.node(pred).spec,
                                             mask, tiles, write=False, mult=batch)
                for gnode in group.nodes:
                    self._weights(tr, gnode.node_id, mask.size)
                self._dense_grid(tr, out_name, out.spec, mask, tiles, write=True, mult=batch)
                sizes = [[iv.length for iv in axis] for axis in tiles]
                for lens, count in _classes(mask, sizes):
                    self._tasks(se, fpe * out.spec.channels * math.prod(lens), 1, count)
                # Exactly-once coverage: row-major clipped tiles partition the
                # output extents (disjoint by construction, verified by sum).
                covered = _contract(mask, sizes)
                if covered != math.prod(out.spec.spatial):
                    viol.found("effects.write-coverage", 1, [(
                        (out.node_id,), f"group {out.node_id}: tiles cover {covered} of "
                                        f"{math.prod(out.spec.spatial)} elements")])
            # One barrier per group orders it against the next (and the reads
            # of the producing conversions are token-acquired in-task).
            se.sync_count += 1
            self.epoch += 1
            for gnode in group.nodes:
                self.fmt[gnode.node_id] = None
                self.buf_name[gnode.node_id] = out_name
                self.produced_epoch[gnode.node_id] = self.epoch - 1

        viol.flush(self.report, sub.index)
        se.race_free = True  # per-group barriers + token-ordered conversions
        se.write_exact = "effects.write-coverage" not in viol.counts
        se.read_covered = True  # needs derived directly from rf_maps
        self._close(se, tr)
        return se

    # -- aggregation ---------------------------------------------------------
    def _close(self, se: SubgraphEffects, tr: _Traffic) -> None:
        se.dram_read_lb = tr.weight_txns
        se.dram_read_ub = tr.read_ub + tr.weight_txns
        se.dram_write_ub = tr.write_ub
        r = self.report
        r.subgraphs.append(se)
        r.dram_read_lb += tr.weight_txns
        r.dram_read_ub += se.dram_read_ub
        r.dram_write_ub += tr.write_ub
        r.l2_lb += tr.l2_write_lines
        r.l2_ub += tr.read_ub + tr.write_ub + tr.weight_l2
        r.sync_count += se.sync_count
        r.num_tasks += se.num_tasks
        r.total_flops += se.flops
        r.task_time_sum += se.task_time_sum
        r.task_time_max = max(r.task_time_max, se.task_time_max)
        self.write_bytes += tr.write_bytes

    def finish(self) -> None:
        """Graph outputs are densified (mirroring ``BrickDLEngine.run``): the
        tail conversions are tasks of the run, not of any subgraph.  Run-level
        slack then closes the upper bounds."""
        r = self.report
        tail, tr = SubgraphEffects(index=len(r.subgraphs), strategy="tail"), _Traffic(self.line)
        for node in self.graph.output_nodes:
            self._convert_to_dense(tr, tail, node.node_id)
        r.num_tasks += tail.num_tasks
        r.task_time_sum += tail.task_time_sum
        r.task_time_max = max(r.task_time_max, tail.task_time_max)
        r.dram_read_ub += tr.read_ub
        r.dram_write_ub += tr.write_ub
        r.l2_lb += tr.l2_write_lines
        r.l2_ub += tr.read_ub + tr.write_ub
        # Write-back fragmentation: dirty bytes leave in eviction/flush chunks
        # whose per-event round-up is bounded by one extra line per written
        # line plus flat slack.
        r.dram_write_ub += _txns(self.write_bytes + tr.write_bytes, self.line) + _UB_SLACK
        r.dram_read_ub += _UB_SLACK
        r.l2_ub += 2 * _UB_SLACK
        r.dram_write_lb = _txns(self.persistent_written, self.line)


# ---------------------------------------------------------------------------
# Distributed schedule proof
# ---------------------------------------------------------------------------


def _check_distributed(plan: ExecutionPlan, report: EffectReport, num_ranks: int) -> None:
    """Prove the exchange-then-compute halo schedule of
    :class:`repro.distributed.engine.DistributedRunner`: rank row-slabs are
    disjoint and covering (exactly-once writes), and every entry row a rank
    needs beyond its slab is delivered by the pre-compute exchange (each
    subgraph's single ``exchange_step`` is the happens-before barrier)."""
    from repro.distributed.engine import _partition_rows

    graph = plan.graph
    if num_ranks < 2:
        return
    for node in graph.nodes:
        if node.is_input:
            continue
        if node.op.is_global or not node.op.is_local:
            _diag(report, "effects.distributed-skip", Severity.INFO,
                  f"distributed schedule inapplicable: {node.name} is global/non-local")
            return
    min_rows = min((n.spec.spatial[0] for n in graph.nodes if n.spec.spatial),
                   default=0)
    if num_ranks > min_rows:
        _diag(report, "effects.distributed-skip", Severity.INFO,
              f"distributed schedule inapplicable: {num_ranks} ranks > "
              f"{min_rows} rows in the narrowest activation")
        return

    from repro.core.halo import required_regions

    ok = True
    for sub in plan.subgraphs:
        view = sub.subgraph
        for exit_id in view.exit_ids:
            espec = graph.node(exit_id).spec
            rows = _partition_rows(espec.spatial[0], num_ranks)
            if [r[0] for r in rows[1:]] != [r[1] for r in rows[:-1]] or \
                    rows[0][0] != 0 or rows[-1][1] != espec.spatial[0]:
                _diag(report, "effects.distributed-coverage", Severity.ERROR,
                      f"rank row slabs of exit {exit_id} are not a disjoint cover",
                      subgraph_index=sub.index, node_id=exit_id)
                ok = False
                continue
            for rank, (olo, ohi) in enumerate(rows):
                out_region = Region.from_bounds(
                    [olo] + [0] * (len(espec.spatial) - 1),
                    [ohi] + list(espec.spatial[1:]))
                required = required_regions(view, exit_id, out_region)
                for eid in view.entry_ids:
                    if eid not in required:
                        continue
                    spec = graph.node(eid).spec
                    need = required[eid].clip(spec.spatial)
                    if need.is_empty():
                        continue
                    erows = _partition_rows(spec.spatial[0], num_ranks)
                    elo, ehi = erows[rank]
                    # Halo rows outside the owned slab must be owned by
                    # *some* neighbor chain -- the runner's message walk
                    # gathers them before the compute phase.
                    if need[0].lo < 0 or need[0].hi > spec.spatial[0]:
                        _diag(report, "effects.distributed-coverage", Severity.ERROR,
                              f"rank {rank} of exit {exit_id} needs rows "
                              f"{need[0]} outside entry {eid}",
                              subgraph_index=sub.index, node_id=eid)
                        ok = False
    if ok:
        _diag(report, "effects.distributed", Severity.INFO,
              f"distributed halo schedule proven for {num_ranks} ranks: "
              f"disjoint covering row slabs, all halo needs gathered before compute")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze_effects(
    plan: ExecutionPlan,
    spec: GPUSpec = A100,
    config: PerfModelConfig = DEFAULT_CONFIG,
    *,
    mutation: EffectMutation | None = None,
    collect_sets: bool = False,
    check_distributed: bool = True,
    num_ranks: int = 2,
) -> EffectReport:
    """Statically analyze a compiled plan: race freedom, exactly-once write
    coverage, and DRAM/L2 traffic bounds.  Pure geometry -- no Device."""
    del config  # the analysis depends only on the plan and the GPU geometry
    report = EffectReport()
    graph = plan.graph
    seen: dict[int, int] = {}
    for sub in plan.subgraphs:
        for eid in sub.subgraph.entry_ids:
            # A non-convex or misordered plan: no layout models the entry yet.
            if eid not in seen and not graph.node(eid).is_input:
                _diag(report, "effects.unproduced-entry", Severity.ERROR,
                      f"subgraph {sub.index} reads entry {eid} ({graph.node(eid).name}), "
                      f"which no earlier subgraph produces",
                      node_id=eid, subgraph_index=sub.index)
        for nid in sub.subgraph.node_ids:
            if nid in seen:
                _diag(report, "effects.plan-coverage", Severity.ERROR,
                      f"node {nid} appears in subgraphs {seen[nid]} and {sub.index}",
                      node_id=nid, subgraph_index=sub.index)
            seen[nid] = sub.index
    for node in graph.nodes:
        if not node.is_input and node.node_id not in seen:
            _diag(report, "effects.plan-coverage", Severity.ERROR,
                  f"node {node.node_id} ({node.name}) is not covered by the plan",
                  node_id=node.node_id)
    if not report.ok:
        return report

    analyzer = _Analyzer(plan, spec, mutation or EffectMutation(), collect_sets, report)
    for sub in plan.subgraphs:
        if sub.strategy is Strategy.CUDNN:
            se = analyzer.fallback(sub)
        else:
            se = analyzer.merged(sub)
        if se.proven:
            _diag(report, "effects.proven", Severity.INFO,
                  f"subgraph {sub.index} [{se.strategy}]: race-free, exactly-once "
                  f"coverage; DRAM read [{se.dram_read_lb}, {se.dram_read_ub}] "
                  f"write ub {se.dram_write_ub} txns over {se.num_tasks} tasks",
                  subgraph_index=sub.index)
    analyzer.finish()
    if check_distributed:
        _check_distributed(plan, report, num_ranks)
    _diag(report, "effects.bounds", Severity.INFO,
          f"{graph.name}: {report.bounds_summary()}")
    return report


def check_manifest_bracket(report: EffectReport, manifest: "RunManifest") -> AnalysisReport:
    """Assert the static DRAM bounds bracket a measured run manifest."""
    out = AnalysisReport()
    mem = manifest.metrics.get("memory", {})
    checks = (
        ("dram_read_txns", report.dram_read_lb, report.dram_read_ub),
        ("dram_write_txns", report.dram_write_lb, report.dram_write_ub),
        ("dram_txns", report.dram_lb, report.dram_ub),
    )
    ok = True
    for key, lb, ub in checks:
        measured = mem.get(key)
        if measured is None:
            continue
        if not lb <= measured <= ub:
            ok = False
            _diag(out, "effects.bracket", Severity.ERROR,
                  f"{key}: measured {measured} outside static bounds [{lb}, {ub}]")
    if ok:
        _diag(out, "effects.bracket-ok", Severity.INFO,
              f"measured DRAM traffic within static bounds "
              f"({mem.get('dram_read_txns')} r / {mem.get('dram_write_txns')} w; "
              f"read [{report.dram_read_lb}, {report.dram_read_ub}], "
              f"write [{report.dram_write_lb}, {report.dram_write_ub}])")
    return out


def candidate_time_lower_bound(
    sub: SubgraphPlan,
    strategy: Strategy,
    brick: int,
    spec: GPUSpec = A100,
    config: PerfModelConfig = DEFAULT_CONFIG,
) -> float | None:
    """A provable lower bound on the simulated time of one tuning candidate
    (``None`` = inapplicable), derived without running the simulator.

    The simulator's total is at least ``max(dram_time, busy) + overhead``
    with ``dram_time = dram_txns / R_txn``, ``busy`` at least the ideal
    makespan ``max(sum(durations)/num_sms, max(duration))``, and ``overhead``
    at least ``sync_count * sync_time``; every term below lower-bounds its
    measured counterpart, so pruning candidates whose bound already exceeds
    the best measured time can never change the winner.
    """
    from repro.core.engine import BrickDLEngine
    from repro.core.wavefront import is_chain_subgraph
    from repro.graph.traversal import materialize_subgraph

    if strategy is Strategy.WAVEFRONT and not is_chain_subgraph(sub.subgraph):
        return None
    model = materialize_subgraph(sub.subgraph, name=f"effects/sub{sub.index}")
    engine = BrickDLEngine(
        model, spec=spec, config=config,
        strategy_override=strategy, brick_override=brick,
        layer_schedule=(len(sub.subgraph),),
    )
    plan = engine.compile()
    rep = analyze_effects(plan, spec, config, check_distributed=False)
    if not rep.ok:  # pragma: no cover - defensive: never prune on a broken model
        return None
    dram_time = rep.dram_lb / spec.txn_rate
    busy = max(rep.task_time_sum / max(1, spec.num_sms), rep.task_time_max)
    return max(dram_time, busy) + rep.sync_count * spec.sync_time_s


def effect_prune(
    sub: SubgraphPlan,
    strategy: Strategy,
    brick: int,
    spec: GPUSpec,
    config: PerfModelConfig,
    best_time: float | None,
) -> bool:
    """``tune_plan``'s pruning test (``prune=True``): skip a candidate when its
    static time lower bound already meets or exceeds the best measured time
    (the tuner replaces only on strictly better, so the winner is preserved)."""
    if best_time is None:
        return False
    lb = candidate_time_lower_bound(sub, strategy, brick, spec, config)
    return lb is not None and lb >= best_time
