"""Static effect analysis: schedule-independent proofs and traffic bounds.

This pass abstractly interprets a compiled :class:`~repro.core.plan.ExecutionPlan`
*without a device*: for every (subgraph, node, brick) it derives the read/write
**region effect sets** from :class:`~repro.core.geometry.SubgraphGeometry` and the
:mod:`repro.graph.regions` algebra, mirroring exactly the access streams the
executors emit.  From those summaries it:

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
reject broken schedules with specific ``effects.*`` diagnostics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.core.bricked import BrickGrid, bricked_nbytes
from repro.core.geometry import SubgraphGeometry
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

    @property
    def active(self) -> bool:
        return (self.drop_dep_edge is not None or self.shrink_halo > 0
                or self.skip_writer is not None)


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

    def weight(self, nbytes: int, *, first_touch: bool) -> None:
        # Pinned first touch: exactly ceil(nbytes/line) DRAM reads per pin
        # cycle -- contributes identically to the lower and upper bound.
        # Every read of a pinned buffer (first or not) passes through L2.
        if first_touch:
            self.weight_txns += _txns(nbytes, self.line)
        self.weight_l2 += _txns(nbytes, self.line) + 1


def _layout_nbytes(spec: "TensorSpec", layout: tuple[int, ...] | None) -> int:
    """Backing-buffer size of an activation in the given layout."""
    return spec.nbytes if layout is None else bricked_nbytes(spec, layout)


def _flat_index(gpos: tuple[int, ...], grid_shape: tuple[int, ...]) -> int:
    idx = 0
    for p, g in zip(gpos, grid_shape):
        idx = idx * g + p
    return idx


def _all_gpos(grid: BrickGrid) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(*(range(g) for g in grid.grid_shape))


def _shrink(region: Region, k: int) -> Region:
    """Trim ``k`` elements per side of every interval (never inverting)."""
    return Region(
        Interval(iv.lo + k, max(iv.lo + k, iv.hi - k)) for iv in region
    )


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
# The analyzer
# ---------------------------------------------------------------------------


class _Violations:
    """Capped per-code violation collector for one subgraph."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[str]] = {}

    def add(self, code: str, message: str) -> None:
        n = self.counts.get(code, 0)
        self.counts[code] = n + 1
        if n < _MAX_DIAGS:
            self.samples.setdefault(code, []).append(message)

    def flush(self, report: EffectReport, subgraph_index: int) -> None:
        for code, count in sorted(self.counts.items()):
            for msg in self.samples[code]:
                _diag(report, code, Severity.ERROR, msg, subgraph_index=subgraph_index)
            if count > _MAX_DIAGS:
                _diag(report, code, Severity.ERROR,
                      f"... and {count - _MAX_DIAGS} more {code} violations",
                      subgraph_index=subgraph_index)


class _Analyzer:
    """Shared run state: boundary layouts, epochs, and run totals."""

    def __init__(self, plan: ExecutionPlan, spec: GPUSpec, mutation: EffectMutation,
                 collect: bool, report: EffectReport) -> None:
        self.plan = plan
        self.graph: "Graph" = plan.graph
        self.spec = spec
        self.line = spec.transaction_bytes
        self.mutation = mutation
        self.collect = collect
        self.report = report
        # Boundary layout per produced node id: None = dense row-major,
        # tuple = bricked with that brick shape.  Mirrors the engine's
        # ``boundary`` handle dict.
        self.fmt: dict[int, tuple[int, ...] | None] = {}
        self.buf_name: dict[int, str] = {}
        # Epoch = number of device barriers before a task; two tasks in
        # different epochs are ordered by a synchronize().
        self.epoch = 0
        self.seq = 0
        self.produced_epoch: dict[int, int] = {}
        self.persistent_written = 0
        self.outputs = {n.node_id for n in self.graph.output_nodes}
        self.tail = _Traffic(self.line)
        # Shape-only, so derived once per node rather than once per brick.
        self._weight_nbytes: dict[int, int] = {}
        for node in self.graph.input_nodes:
            self.fmt[node.node_id] = None
            self.buf_name[node.node_id] = f"{self.graph.name}/{node.name}"
            self.produced_epoch[node.node_id] = -1

    # -- small helpers -------------------------------------------------------
    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _span(self, name: str, lo: int, hi: int) -> None:
        if self.collect:
            self.report.effect_sets.setdefault(name, EffectSet()).add(lo, hi)

    def _task_time(self, se: SubgraphEffects, flops: float, calls: int) -> None:
        t = self.spec.task_time(flops, calls)
        se.task_time_sum += t
        se.task_time_max = max(se.task_time_max, t)
        se.num_tasks += 1
        se.flops += flops

    def _dense_access(self, tr: _Traffic, name: str, spec: "TensorSpec",
                      region: Region, *, write: bool, mult: int = 1) -> None:
        """A strided region read/write on a row-major buffer (all channels,
        mirrored from ``DenseHandle._region_access``); traffic is charged
        per batch sample (``mult``), effect spans recorded for all samples."""
        clipped = region.clip(spec.spatial)
        if clipped.is_empty():
            return
        plane, strides = _dense_layout(spec)
        seg = clipped[-1].length * spec.itemsize
        segs = spec.channels * math.prod(iv.length for iv in clipped[:-1])
        tr.access(seg, segs, write=write, mult=mult)
        if self.collect:
            rel = sum(iv.lo * s for iv, s in zip(clipped, strides))
            end = ((spec.channels - 1) * plane
                   + sum((iv.hi - 1) * s for iv, s in zip(clipped, strides))
                   + spec.itemsize)
            for n in range(spec.batch):
                base = n * spec.channels * plane
                self._span(name, base + rel, base + end)

    def _brick_access(self, tr: _Traffic, name: str, offsets: Sequence[int],
                      nbytes: int, batch_stride: int, nbatch: int, *,
                      write: bool) -> None:
        """Whole-brick accesses at per-sample-0 ``offsets``, repeated (and
        charged) for every batch sample."""
        if not offsets:
            return
        tr.access(nbytes, len(offsets), write=write, mult=nbatch)
        if self.collect:
            for n in range(nbatch):
                base = n * batch_stride
                for off in offsets:
                    self._span(name, base + off, base + off + nbytes)

    def _full_access(self, tr: _Traffic, name: str, nbytes: int, *, write: bool) -> None:
        tr.access(nbytes, 1, write=write)
        self._span(name, 0, nbytes)

    def _weight_read(self, tr: _Traffic, weights_used: set[int], nid: int) -> None:
        nbytes = self._weight_nbytes.get(nid)
        if nbytes is None:
            node = self.graph.node(nid)
            input_specs = [self.graph.node(i).spec for i in node.inputs]
            nbytes = self._weight_nbytes[nid] = node.op.weight_bytes(input_specs)
        if nbytes:
            tr.weight(nbytes, first_touch=nid not in weights_used)
            if nid not in weights_used:
                weights_used.add(nid)
                self._span(f"{self.graph.name}/{self.graph.node(nid).name}/w", 0, nbytes)

    # -- entry layout & conversions -----------------------------------------
    def _convert_to_bricks(self, tr: _Traffic, se: SubgraphEffects, eid: int,
                           brick_shape: tuple[int, ...]) -> int:
        """Mirror ``BrickDLEngine._ensure_bricked``; returns the conversion
        task's sequence number (its whole-buffer token orders consumers)."""
        node = self.graph.node(eid)
        spec = node.spec
        shape = tuple(min(b, e) for b, e in zip(brick_shape, spec.spatial))
        self._full_access(tr, self.buf_name[eid],
                          _layout_nbytes(spec, self.fmt[eid]), write=False)
        grid = BrickGrid(spec.spatial, shape)
        per_brick = spec.channels * math.prod(shape) * spec.itemsize
        offsets = [i * per_brick for i in range(grid.num_bricks)]
        name = f"{node.name}/bricked"
        self._brick_access(tr, name, offsets, per_brick,
                           grid.num_bricks * per_brick, spec.batch, write=True)
        self.fmt[eid] = shape
        self.buf_name[eid] = name
        self._task_time(se, 0.0, 1)
        return self._next_seq()

    def _convert_to_dense(self, tr: _Traffic, se: SubgraphEffects | None, eid: int) -> None:
        """Mirror ``BrickDLEngine._ensure_dense`` (no-op on dense handles)."""
        layout = self.fmt[eid]
        if layout is None:
            return
        node = self.graph.node(eid)
        spec = node.spec
        grid = BrickGrid(spec.spatial, layout)
        per_brick = spec.channels * math.prod(layout) * spec.itemsize
        offsets = [i * per_brick for i in range(grid.num_bricks)]
        self._brick_access(tr, self.buf_name[eid], offsets, per_brick,
                           grid.num_bricks * per_brick, spec.batch, write=False)
        name = f"{node.name}/dense"
        self._full_access(tr, name, spec.nbytes, write=True)
        if eid in self.outputs:
            # Allocated non-transient: flushed (and charged) at run end.
            self.persistent_written += spec.nbytes
        self.fmt[eid] = None
        self.buf_name[eid] = name
        self._next_seq()
        if se is not None:
            self._task_time(se, 0.0, 1)

    def _entry_read(self, tr: _Traffic, name: str, spec: "TensorSpec",
                    layout: tuple[int, ...] | None, region: Region,
                    nbatch: int) -> None:
        """A region read against an entry in its current layout: strided
        row-major segments when dense, whole overlapping bricks when bricked."""
        if layout is None:
            self._dense_access(tr, name, spec, region, write=False, mult=nbatch)
            return
        grid = BrickGrid(spec.spatial, layout)
        per_brick = spec.channels * math.prod(layout) * spec.itemsize
        offsets = [_flat_index(g, grid.grid_shape) * per_brick
                   for g in grid.overlap_plan(region)]
        self._brick_access(tr, name, offsets, per_brick,
                           grid.num_bricks * per_brick, nbatch, write=False)

    # -- mutation-aware geometry ---------------------------------------------
    def _model_required(self, geom: SubgraphGeometry, exit_id: int,
                        out_region: Region) -> dict[int, Region]:
        req = geom.required(exit_id, out_region)
        m = self.mutation
        if not m.active:
            return req
        req = dict(req)
        if m.shrink_halo:
            req = {nid: (r if nid == exit_id else _shrink(r, m.shrink_halo))
                   for nid, r in req.items()}
        if m.drop_dep_edge is not None:
            consumer, producer = m.drop_dep_edge
            if consumer in req and producer != exit_id:
                req.pop(producer, None)
        return req

    def _model_needs(self, geom: SubgraphGeometry, nid: int,
                     region: Region) -> list[Region | None]:
        """Per-input model need regions; ``None`` marks a dropped edge."""
        needs, _ = geom.needs(nid, region)
        m = self.mutation
        out: list[Region | None] = []
        for input_index, pred in enumerate(self.graph.node(nid).inputs):
            if m.drop_dep_edge is not None and m.drop_dep_edge == (nid, pred):
                out.append(None)
                continue
            need = needs[input_index]
            if m.shrink_halo:
                need = _shrink(need, m.shrink_halo)
            out.append(need)
        return out

    def _skipped(self, nid: int, gpos: tuple[int, ...], grid_shape: tuple[int, ...]) -> bool:
        skip = self.mutation.skip_writer
        return skip is not None and skip == (nid, _flat_index(gpos, grid_shape))

    # -- per-strategy builders ----------------------------------------------
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
        batch = graph.node(view.node_ids[0]).spec.batch
        epoch0 = self.epoch

        # Entry layouts + any to-bricks conversions (ordered against the
        # consuming tasks by the conversion buffer's whole-buffer token).
        entry_layout: dict[int, tuple[int, ...] | None] = {}
        conv_seq: dict[int, int] = {}
        for eid in view.entry_ids:
            layout = self.fmt[eid]
            if layout is None or layout == brick_shape:
                entry_layout[eid] = layout
            else:
                conv_seq[eid] = self._convert_to_bricks(tr, se, eid, brick_shape)
                entry_layout[eid] = self.fmt[eid]
            if self.produced_epoch[eid] >= epoch0:
                viol.add("effects.race",
                         f"entry {eid} produced in epoch {self.produced_epoch[eid]} "
                         f"but consumed in epoch {epoch0} without a barrier")

        geom = SubgraphGeometry(view, brick_shape)
        geom_true = SubgraphGeometry(view, brick_shape) if self.mutation.active else geom

        if strategy is Strategy.PADDED:
            self._padded(sub, se, tr, viol, geom, geom_true, entry_layout,
                         conv_seq, batch, epoch0)
            exit_name = "bricked"
        elif strategy is Strategy.WAVEFRONT:
            self._wavefront(sub, se, tr, viol, geom, geom_true, entry_layout,
                            conv_seq, batch, epoch0)
            exit_name = "wave"
        else:
            self._memoized(sub, se, tr, viol, geom, geom_true, entry_layout,
                           conv_seq, batch, epoch0)
            exit_name = "memo"

        for eid in view.exit_ids:
            self.fmt[eid] = brick_shape
            self.buf_name[eid] = f"{graph.node(eid).name}/{exit_name}"
            self.produced_epoch[eid] = self.epoch - 1

        viol.flush(self.report, sub.index)
        se.race_free = not any(c in ("effects.race", "effects.multi-writer",
                                     "effects.unordered-entry") for c in viol.counts)
        se.write_exact = "effects.write-coverage" not in viol.counts
        se.read_covered = "effects.read-coverage" not in viol.counts
        self._close(sub, se, tr)
        return se

    def _check_entry_order(self, viol: _Violations, conv_seq: Mapping[int, int],
                           acquired: Iterable[int], read: Iterable[int]) -> None:
        """Entry reads ordered against a same-epoch layout conversion only
        via the conversion buffer's token (prior-epoch producers are ordered
        by the inter-subgraph barrier, checked at subgraph entry)."""
        acq = set(acquired)
        for eid in read:
            if eid in conv_seq and eid not in acq:
                viol.add("effects.unordered-entry",
                         f"read of entry {eid} is not ordered against its "
                         f"same-epoch layout conversion (missing token acquire)")

    def _read_coverage(self, viol: _Violations, nid: int,
                       model: Region | None, true: Region,
                       pred_spec: "TensorSpec", what: str) -> None:
        true_c = true.clip(pred_spec.spatial)
        if true_c.is_empty():
            return
        if model is None or not model.clip(pred_spec.spatial).contains(true_c):
            viol.add("effects.read-coverage",
                     f"node {nid}: modeled {what} read {model} does not cover "
                     f"required region {true}")

    def _padded(self, sub: SubgraphPlan, se: SubgraphEffects, tr: _Traffic,
                viol: _Violations, geom: SubgraphGeometry, geom_true: SubgraphGeometry,
                entry_layout: Mapping[int, tuple[int, ...] | None],
                conv_seq: Mapping[int, int], batch: int, epoch0: int) -> None:
        graph = self.graph
        view = sub.subgraph
        brick_shape = tuple(sub.brick_shape)
        weights_used: set[int] = set()
        entry_ids = list(view.entry_ids)
        for exit_id in [e.node_id for e in view.exits]:
            espec = graph.node(exit_id).spec
            grid = BrickGrid(espec.spatial, brick_shape)
            per_brick = espec.channels * math.prod(brick_shape) * espec.itemsize
            name = f"{graph.node(exit_id).name}/bricked"
            written = 0
            covered_elems = 0
            for gpos in _all_gpos(grid):
                if self._skipped(exit_id, gpos, grid.grid_shape):
                    continue
                out_region = grid.brick_region(gpos, clipped=True)
                model_req = self._model_required(geom, exit_id, out_region)
                true_req = geom_true.required(exit_id, out_region)
                # Read coverage: the task's effect regions (entries copied in,
                # member patches recomputed) must cover the true closure.
                for nid, true_region in true_req.items():
                    if nid == exit_id:
                        continue
                    self._read_coverage(viol, exit_id, model_req.get(nid), true_region,
                                        graph.node(nid).spec, f"closure of node {nid}")
                # Entry reads + whole-buffer token acquires (model effects).
                read_entries = [eid for eid in entry_ids if eid in model_req]
                for eid in read_entries:
                    self._entry_read(tr, self.buf_name[eid], graph.node(eid).spec,
                                     entry_layout[eid], model_req[eid], batch)
                self._check_entry_order(viol, conv_seq, read_entries, read_entries)
                # Member compute (scratch traffic is on-chip: L1 only).
                flops = 0.0
                calls = 0
                for nid in view.node_ids:
                    if nid not in model_req:
                        continue
                    nspec = graph.node(nid).spec
                    region = model_req[nid].clip(nspec.spatial)
                    if region.is_empty():
                        continue
                    if nid != exit_id and self._skipped(nid, gpos, grid.grid_shape):
                        # A member's "brick" in the padded schedule is its
                        # scratch patch inside this exit-brick task: skipping
                        # the patch write leaves its consumers reading
                        # unwritten scratch.
                        viol.add("effects.race",
                                 f"task for exit brick {gpos} skips the patch "
                                 f"write of member {nid} that its consumers read")
                        continue
                    self._weight_read(tr, weights_used, nid)
                    flops += geom.flops(nid, nspec.channels * region.size)
                    calls += 1
                self._brick_access(
                    tr, name, [_flat_index(gpos, grid.grid_shape) * per_brick],
                    per_brick, grid.num_bricks * per_brick, batch, write=True)
                self._task_time(se, flops, max(calls, 1))
                self._next_seq()
                written += 1
                covered_elems += out_region.size
            if written < grid.num_bricks:
                viol.add("effects.write-coverage",
                         f"exit {exit_id}: {written}/{grid.num_bricks} bricks written")
            elif covered_elems != math.prod(espec.spatial):
                viol.add("effects.write-coverage",
                         f"exit {exit_id}: write effects cover {covered_elems} "
                         f"of {math.prod(espec.spatial)} elements")
        se.sync_count = 1
        self.epoch = epoch0 + 1

    def _memoized(self, sub: SubgraphPlan, se: SubgraphEffects, tr: _Traffic,
                  viol: _Violations, geom: SubgraphGeometry, geom_true: SubgraphGeometry,
                  entry_layout: Mapping[int, tuple[int, ...] | None],
                  conv_seq: Mapping[int, int], batch: int, epoch0: int) -> None:
        graph = self.graph
        view = sub.subgraph
        brick_shape = tuple(sub.brick_shape)
        members = set(view.node_ids)
        grids = {nid: BrickGrid(graph.node(nid).spec.spatial, brick_shape)
                 for nid in view.node_ids}
        weights_used: set[int] = set()

        # Demand closure from the exit goals -- exactly the brick set the
        # recursive executor computes (exactly once, via the 3-state tags).
        # Each demanded brick keeps its region, model needs and per-input
        # member dependency bricks for the emission loop below.
        demanded: dict[tuple[int, tuple[int, ...]],
                       tuple[Region, list[Region | None],
                             list[Sequence[tuple[int, ...]]]]] = {}
        stack: list[tuple[int, tuple[int, ...]]] = []
        for eid in view.exit_ids:
            stack.extend((eid, g) for g in _all_gpos(grids[eid]))
        while stack:
            key = stack.pop()
            if key in demanded:
                continue
            nid, gpos = key
            region = grids[nid].brick_region(gpos, clipped=True)
            needs = self._model_needs(geom, nid, region)
            dep_bricks: list[Sequence[tuple[int, ...]]] = [
                grids[pred].overlap_plan(need)
                if pred in members and need is not None else ()
                for need, pred in zip(needs, graph.node(nid).inputs)]
            demanded[key] = (region, needs, dep_bricks)
            for pred, bricks in zip(graph.node(nid).inputs, dep_bricks):
                stack.extend((pred, dp) for dp in bricks)

        writers = {key for key in demanded
                   if not self._skipped(key[0], key[1], grids[key[0]].grid_shape)}

        for nid, gpos in sorted(demanded):
            if (nid, gpos) not in writers:
                continue  # seeded skip: consumers below still read this brick
            node = graph.node(nid)
            region, model_needs, dep_bricks = demanded[(nid, gpos)]
            true_needs, _ = geom_true.needs(nid, region)
            read_entries: list[int] = []
            for input_index, pred in enumerate(node.inputs):
                pspec = graph.node(pred).spec
                self._read_coverage(viol, nid, model_needs[input_index],
                                    true_needs[input_index], pspec,
                                    f"need of input {pred}")
                need = model_needs[input_index]
                if need is None:
                    continue
                if pred in members:
                    # Token-ordered brick reads: the dependency scan and the
                    # acquire stamping derive from the same needs, so the
                    # proof obligation is writer existence (dangling reads).
                    per_brick = pspec.channels * math.prod(brick_shape) * pspec.itemsize
                    offsets = []
                    for dp in dep_bricks[input_index]:
                        if (pred, dp) not in writers:
                            viol.add("effects.race",
                                     f"node {nid} brick {gpos} reads {pred} brick "
                                     f"{dp} which no ordered task writes")
                        offsets.append(_flat_index(dp, grids[pred].grid_shape) * per_brick)
                    self._brick_access(tr, f"{graph.node(pred).name}/memo", offsets,
                                       per_brick, grids[pred].num_bricks * per_brick,
                                       batch, write=False)
                else:
                    self._entry_read(tr, self.buf_name[pred], pspec,
                                     entry_layout[pred], need, batch)
                    read_entries.append(pred)
            self._check_entry_order(viol, conv_seq, read_entries, read_entries)
            self._weight_read(tr, weights_used, nid)
            per_brick = node.spec.channels * math.prod(brick_shape) * node.spec.itemsize
            self._brick_access(
                tr, f"{node.name}/memo",
                [_flat_index(gpos, grids[nid].grid_shape) * per_brick],
                per_brick, grids[nid].num_bricks * per_brick, batch, write=True)
            self._task_time(se, geom.flops(nid, node.spec.channels * region.size), 1)
            self._next_seq()

        self._exit_write_coverage(viol, view, grids, writers)
        se.sync_count = 1
        self.epoch = epoch0 + 1

    def _wavefront(self, sub: SubgraphPlan, se: SubgraphEffects, tr: _Traffic,
                   viol: _Violations, geom: SubgraphGeometry, geom_true: SubgraphGeometry,
                   entry_layout: Mapping[int, tuple[int, ...] | None],
                   conv_seq: Mapping[int, int], batch: int, epoch0: int) -> None:
        graph = self.graph
        view = sub.subgraph
        brick_shape = tuple(sub.brick_shape)
        members = set(view.node_ids)
        grids = {nid: BrickGrid(graph.node(nid).spec.spatial, brick_shape)
                 for nid in view.node_ids}
        weights_used: set[int] = set()

        # Wave placement by dependency longest path, from the *model* needs
        # (exactly the executor's derivation; only the first member input
        # places, mirroring the chain executor).
        wave_of: dict[tuple[int, tuple[int, ...]], int] = {}
        max_wave = 0
        for nid in view.node_ids:
            node = graph.node(nid)
            member_pred = next((i for i in node.inputs if i in members), None)
            idx = node.inputs.index(member_pred) if member_pred is not None else -1
            for gpos in _all_gpos(grids[nid]):
                if member_pred is None:
                    w = gpos[0]
                else:
                    region = grids[nid].brick_region(gpos, clipped=True)
                    need = self._model_needs(geom, nid, region)[idx]
                    dep_waves = ([] if need is None else
                                 [wave_of[(member_pred, dp)]
                                  for dp in grids[member_pred].overlap_plan(need)])
                    w = max(dep_waves) + 1 if dep_waves else 0
                wave_of[(nid, gpos)] = w
                max_wave = max(max_wave, w)

        writers = {key for key in wave_of
                   if not self._skipped(key[0], key[1], grids[key[0]].grid_shape)}

        for nid in view.node_ids:
            node = graph.node(nid)
            for gpos in _all_gpos(grids[nid]):
                if (nid, gpos) not in writers:
                    continue
                w = wave_of[(nid, gpos)]
                region = grids[nid].brick_region(gpos, clipped=True)
                model_needs = self._model_needs(geom, nid, region)
                true_needs, _ = geom_true.needs(nid, region)
                read_entries: list[int] = []
                for input_index, pred in enumerate(node.inputs):
                    pspec = graph.node(pred).spec
                    self._read_coverage(viol, nid, model_needs[input_index],
                                        true_needs[input_index], pspec,
                                        f"need of input {pred}")
                    need = model_needs[input_index]
                    if need is None:
                        continue
                    if pred in members:
                        # No token edges: the per-wave barrier is the whole
                        # protocol, so every dependency brick must land on a
                        # strictly earlier wave (and be written at all).
                        per_brick = (pspec.channels * math.prod(brick_shape)
                                     * pspec.itemsize)
                        offsets = []
                        for dp in grids[pred].overlap_plan(need):
                            if (pred, dp) not in writers:
                                viol.add("effects.race",
                                         f"node {nid} brick {gpos} reads {pred} "
                                         f"brick {dp} which no task writes")
                            elif wave_of[(pred, dp)] >= w:
                                viol.add("effects.race",
                                         f"node {nid} brick {gpos} on wave {w} reads "
                                         f"{pred} brick {dp} on wave "
                                         f"{wave_of[(pred, dp)]} (no barrier between)")
                            offsets.append(_flat_index(dp, grids[pred].grid_shape)
                                           * per_brick)
                        self._brick_access(tr, f"{graph.node(pred).name}/wave",
                                           offsets, per_brick,
                                           grids[pred].num_bricks * per_brick,
                                           batch, write=False)
                    else:
                        self._entry_read(tr, self.buf_name[pred], pspec,
                                         entry_layout[pred], need, batch)
                        read_entries.append(pred)
                self._check_entry_order(viol, conv_seq, read_entries, read_entries)
                self._weight_read(tr, weights_used, nid)
                per_brick = node.spec.channels * math.prod(brick_shape) * node.spec.itemsize
                self._brick_access(
                    tr, f"{node.name}/wave",
                    [_flat_index(gpos, grids[nid].grid_shape) * per_brick],
                    per_brick, grids[nid].num_bricks * per_brick, batch, write=True)
                self._task_time(se, geom.flops(nid, node.spec.channels * region.size), 1)
                self._next_seq()

        self._exit_write_coverage(viol, view, grids, writers)
        se.sync_count = max_wave + 1
        self.epoch = epoch0 + max_wave + 1

    def _exit_write_coverage(self, viol: _Violations, view: "SubgraphView",
                             grids: Mapping[int, BrickGrid],
                             writers: set[tuple[int, tuple[int, ...]]]) -> None:
        """Exactly-once coverage of every materialized member: each brick has
        one writer (structural: one task per (node, brick)) and the clipped
        write effects tile the declared output region."""
        graph = self.graph
        for nid in view.node_ids:
            grid = grids[nid]
            spec = graph.node(nid).spec
            missing = grid.num_bricks - sum(1 for g in _all_gpos(grid)
                                            if (nid, g) in writers)
            if nid in view.exit_ids and missing:
                viol.add("effects.write-coverage",
                         f"exit {nid}: {missing} of {grid.num_bricks} bricks "
                         f"have no writer")
                continue
            covered = sum(grid.brick_region(g, clipped=True).size
                          for g in _all_gpos(grid) if (nid, g) in writers)
            if nid in view.exit_ids and covered != math.prod(spec.spatial):
                viol.add("effects.write-coverage",
                         f"exit {nid}: write effects cover {covered} of "
                         f"{math.prod(spec.spatial)} elements")

    # -- vendor-library fallback --------------------------------------------
    def fallback(self, sub: SubgraphPlan) -> SubgraphEffects:
        from repro.baselines.fusion import FusionGroup
        from repro.baselines.tiled import adaptive_tiles, group_flops_per_out_element

        graph = self.graph
        view = sub.subgraph
        se = SubgraphEffects(index=sub.index, strategy=Strategy.CUDNN.value)
        tr = _Traffic(self.line)
        viol = _Violations()
        members = set(view.node_ids)

        # Mirror of BrickDLEngine._fallback_groups (conv+pointwise fusion).
        groups: list[FusionGroup] = []
        absorbed: set[int] = set()
        for nid in view.node_ids:
            if nid in absorbed:
                continue
            group = FusionGroup(primary=graph.node(nid))
            current = group.primary
            while True:
                consumers = list(graph.consumers(current.node_id))
                if len(consumers) != 1 or consumers[0] not in members:
                    break
                nxt = graph.node(consumers[0])
                if not nxt.op.is_pointwise:
                    break
                if any(i >= group.primary.node_id
                       for i in nxt.inputs if i != current.node_id):
                    break
                group.fused.append(nxt)
                absorbed.add(nxt.node_id)
                current = nxt
            groups.append(group)

        weights_used: set[int] = set()
        for group in groups:
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
                                              _layout_nbytes(graph.node(pred).spec, None),
                                              write=False)
                    self._weight_read(tr, weights_used, gnode.node_id)
                self._full_access(tr, out_name, out.spec.nbytes, write=True)
                self._task_time(se, fpe * out.spec.num_elements, 1)
                self._next_seq()
            else:
                tile = 16 if out.spec.spatial_ndim >= 3 else 32
                tiles = list(adaptive_tiles(out.spec.spatial, tile, self.spec.num_sms))
                primary = group.primary
                primary_specs = [graph.node(i).spec for i in primary.inputs]
                batch = out.spec.batch
                covered = 0
                for region in tiles:
                    for input_index, pred in enumerate(primary.inputs):
                        maps = primary.op.rf_maps(primary_specs, input_index)
                        need = Region(m.in_interval(iv) for m, iv in zip(maps, region))
                        self._dense_access(tr, self.buf_name[pred],
                                           graph.node(pred).spec, need,
                                           write=False, mult=batch)
                    for fnode in group.fused:
                        for pred in fnode.inputs:
                            if pred not in group_ids:
                                self._dense_access(tr, self.buf_name[pred],
                                                   graph.node(pred).spec, region,
                                                   write=False, mult=batch)
                    for gnode in group.nodes:
                        self._weight_read(tr, weights_used, gnode.node_id)
                    self._dense_access(tr, out_name, out.spec, region,
                                       write=True, mult=batch)
                    self._task_time(se, fpe * out.spec.channels * region.size, 1)
                    self._next_seq()
                    covered += region.size
                # Exactly-once coverage: row-major clipped tiles partition the
                # output extents (disjoint by construction, verified by sum).
                if covered != math.prod(out.spec.spatial):
                    viol.add("effects.write-coverage",
                             f"group {out.node_id}: tiles cover {covered} of "
                             f"{math.prod(out.spec.spatial)} elements")
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
        self._close(sub, se, tr)
        return se

    # -- aggregation ---------------------------------------------------------
    def _close(self, sub: SubgraphPlan, se: SubgraphEffects, tr: _Traffic) -> None:
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
        self._write_bytes = getattr(self, "_write_bytes", 0) + tr.write_bytes

    def finish(self) -> None:
        """Graph outputs are densified (mirroring ``BrickDLEngine.run``),
        then run-level slack closes the upper bounds."""
        r = self.report
        for node in self.graph.output_nodes:
            self._convert_to_dense(self.tail, None, node.node_id)
        r.dram_read_ub += self.tail.read_ub
        r.dram_write_ub += self.tail.write_ub
        r.l2_lb += self.tail.l2_write_lines
        r.l2_ub += self.tail.read_ub + self.tail.write_ub
        write_bytes = getattr(self, "_write_bytes", 0) + self.tail.write_bytes
        # Write-back fragmentation: dirty bytes leave in eviction/flush chunks
        # whose per-event round-up is bounded by one extra line per written
        # line plus flat slack.
        r.dram_write_ub += _txns(write_bytes, self.line) + _UB_SLACK
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
    """The default ``tune_plan`` pruning hook: skip a candidate when its
    static time lower bound already meets or exceeds the best measured time
    (the tuner replaces only on strictly better, so the winner is preserved)."""
    if best_time is None:
        return False
    lb = candidate_time_lower_bound(sub, strategy, brick, spec, config)
    return lb is not None and lb >= best_time
