"""Access-trace primitives: buffers, byte-range accesses, and tasks.

Executors describe their memory behavior as streams of byte-range accesses
against named buffers; the memory system converts those streams into
transaction counts.  A :class:`Task` is one fine-grained kernel invocation
(a brick or tile computation) with its accesses, flop count and atomic
activity -- the unit the SM scheduler places on the device.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Buffer", "Access", "BatchSpan", "Task", "buffer_token", "brick_token"]

_buffer_ids = itertools.count()


def buffer_token(buffer: "Buffer") -> tuple:
    """Synchronization token covering a whole buffer (kernel-launch edges:
    a producing kernel completed before the consuming kernel launched)."""
    return ("buf", buffer.buffer_id)


def brick_token(buffer: "Buffer", offset: int) -> tuple:
    """Synchronization token for one brick (the memoized 0->1->2 CAS
    protocol: release on completion, acquire on a tag-checked read)."""
    return ("brick", buffer.buffer_id, offset)


@dataclass(frozen=True)
class Buffer:
    """A device memory allocation.

    ``transient`` buffers hold data that dies on-device (scratch bricks,
    intermediate activations inside a merged subgraph): they are discarded
    without DRAM write-back, modeling BrickDL's reuse of L2-resident
    intermediates (the "point of synchronization is L2", section 3.2.2).
    Persistent buffers (weights, subgraph inputs/outputs) write back.
    """

    buffer_id: int
    name: str
    nbytes: int
    transient: bool = False

    @staticmethod
    def new(name: str, nbytes: int, transient: bool = False) -> "Buffer":
        return Buffer(next(_buffer_ids), name, int(nbytes), transient)


@dataclass(frozen=True)
class Access:
    """A byte-range load or store, possibly strided.

    ``reps`` describes nested repetition of the innermost contiguous segment
    (row-major region reads): each ``(count, stride)`` pair repeats the
    pattern ``count`` times at ``stride`` byte spacing, outermost first.  A
    plain contiguous access has ``reps == ()``.  E.g. reading a ``(C, h, w)``
    sub-box of a row-major ``(C, H, W)`` tensor is one access with segment
    ``w * itemsize`` and ``reps = ((C, H*W*item), (h, W*item))``.

    ``dense`` marks dense-activation traffic (row-major tensors; modeled with
    the analytic per-buffer residency model); unset means blocked/brick
    traffic (modeled with the sector LRU).  ``on_chip`` marks thread-block
    private traffic that never leaves the SM (padded-brick intermediate
    patches): it counts L1 transactions only.

    ``assume_l2`` marks reads the *executor* already knows are L2-resident:
    the memoized protocol synchronizes a brick's consumers around its
    completion, so they read it while it is still cached; a serialized
    simulation would otherwise charge those temporally-coalesced reads as
    capacity misses (see the memoized executor's coalescing window).
    """

    buffer: Buffer
    offset: int
    nbytes: int
    write: bool = False
    reps: tuple[tuple[int, int], ...] = ()
    dense: bool = False
    on_chip: bool = False
    assume_l2: bool = False
    # Derived geometry, precomputed once at construction: the memory system
    # reads these on every access, so recomputing them per use was a
    # measurable share of the per-task hot path.
    segments: int = field(init=False, repr=False, compare=False)
    total_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.offset < 0 or self.nbytes < 0:
            raise ValueError(f"negative access geometry: {self}")
        if any(c < 1 or s < 0 for c, s in self.reps):
            raise ValueError(f"invalid reps: {self.reps}")
        n = 1
        for c, _ in self.reps:
            n *= c
        object.__setattr__(self, "segments", n)
        object.__setattr__(self, "total_bytes", n * self.nbytes)
        if self.offset + self.span > self.buffer.nbytes:
            raise ValueError(
                f"access [{self.offset}, {self.offset + self.span}) exceeds "
                f"buffer {self.buffer.name!r} of {self.buffer.nbytes} bytes"
            )

    def __getattr__(self, name: str):
        # Hand-built accesses (replayed or corrupted traces constructed via
        # ``__new__``, as the sanitizer tests do) bypass ``__post_init__``;
        # derive the cached geometry lazily so they still flow through the
        # memory system.  Normal construction never reaches here.
        if name == "segments":
            n = 1
            for c, _ in self.reps:
                n *= c
            object.__setattr__(self, "segments", n)
            return n
        if name == "total_bytes":
            total = self.segments * self.nbytes
            object.__setattr__(self, "total_bytes", total)
            return total
        raise AttributeError(name)

    @property
    def span(self) -> int:
        """Extent from offset to the end of the last segment."""
        end = self.nbytes
        for c, s in self.reps:
            end += (c - 1) * s
        return end

    def byte_intervals(self, max_segments: int = 65536) -> tuple[list[tuple[int, int]], bool]:
        """The ``(start, end)`` byte ranges this access touches, merged.

        Returns ``(intervals, exact)``.  A contiguous access produces one
        interval; a strided access produces one per innermost segment with
        overlapping/adjacent segments merged.  Accesses wider than
        ``max_segments`` fall back to the conservative hull
        ``[offset, offset + span)`` with ``exact=False`` -- callers that
        need exactness (the sanitizers) treat hull intervals as approximate.
        """
        if not self.reps or self.nbytes == 0:
            return [(self.offset, self.offset + self.nbytes)], True
        if self.segments > max_segments:
            return [(self.offset, self.offset + self.span)], False
        starts = [self.offset]
        for count, stride in self.reps:
            starts = [s + i * stride for s in starts for i in range(count)]
        starts.sort()
        merged: list[tuple[int, int]] = []
        for s in starts:
            e = s + self.nbytes
            if merged and s <= merged[-1][1]:
                if e > merged[-1][1]:
                    merged[-1] = (merged[-1][0], e)
            else:
                merged.append((s, e))
        return merged, True


@dataclass(frozen=True)
class BatchSpan:
    """A uniform run of accesses inside ``Task.accesses``, in columnar form.

    Executors that emit many same-shaped accesses against one buffer (brick
    conversion sweeps, multi-brick region reads) record the run's geometry
    once as a numpy offset vector plus shared scalars.  The per-``Access``
    objects still exist in ``Task.accesses`` (the sanitizers and the scalar
    oracle consume them unchanged); the vectorized memory path instead reads
    the span and computes transaction counts with array arithmetic.

    ``start``/``count`` index into the owning task's access list; the rows
    ``accesses[start:start + count]`` are exactly the expansion of this span.
    """

    start: int
    count: int
    buffer: Buffer
    offsets: np.ndarray          # int64, one element per row
    nbytes: int                  # uniform contiguous bytes per row
    write: bool
    dense: bool
    on_chip: bool
    assume_l2: bool


@dataclass
class Task:
    """One fine-grained kernel invocation (brick/tile computation).

    ``atomics_compulsory`` / ``atomics_conflict`` follow the paper's 3C-style
    split (section 4.4): two compulsory CAS per memoized brick (acquire +
    release), conflicts when a dependent brick is found in-progress.
    ``visits`` counts memo-table lookups (recursion overhead, lands in the
    "Other" time).

    Structured identity (no label parsing needed downstream):

    * ``node_id`` -- the graph node this task computes (or converts);
    * ``subgraph_index`` / ``strategy`` -- the plan entry and execution
      strategy, stamped by the submitting scope (see ``Device.scope``);
    * ``worker`` -- the virtual worker / SM lane the task ran on (assigned
      by the device at submit time if the executor did not choose one);
    * ``start_s`` / ``end_s`` -- issue-order timeline position, assigned by
      the device from the ``spec.task_time`` model;
    * ``seq`` / ``l1_txns`` / ``l2_txns`` / ``dram_txns`` -- submission index
      and the counter delta this task produced in the memory hierarchy,
      stamped by the device at submit time: the submitted task *is* the
      run's task record (profiling, replay and tracing read it directly);
    * ``brick`` / ``batch_index`` -- for brick-granular tasks (the merged
      executors), the grid position and batch sample this task computes:
      the identity the trace-replay checker uses to assert the
      exactly-once and happens-before protocol properties.

    Synchronization edges (consumed by the execution sanitizer's
    happens-before race detector, :mod:`repro.sanitize`):

    * ``acquires`` -- tokens whose latest release this task synchronized
      with before reading (the consumer side of a memoized tag check, or
      the implicit kernel-launch ordering against an earlier conversion
      kernel's output buffer);
    * ``releases`` -- tokens this task publishes on completion (the
      producer side: the release CAS of a memoized brick, or a whole
      output buffer at a kernel boundary).
    """

    label: str
    flops: float = 0.0
    accesses: list[Access] = field(default_factory=list)
    atomics_compulsory: int = 0
    atomics_conflict: int = 0
    visits: int = 0
    calls: int = 1  # fine-grained kernel invocations inside this task
    node_id: int | None = None
    subgraph_index: int | None = None
    strategy: str | None = None
    worker: int | None = None
    start_s: float | None = None
    end_s: float | None = None
    brick: tuple[int, ...] | None = None
    batch_index: int | None = None
    acquires: list[tuple] = field(default_factory=list)
    releases: list[tuple] = field(default_factory=list)
    batch_spans: list[BatchSpan] = field(default_factory=list)
    # Distributed-trace provenance ``(trace_id, parent_span_id)``, stamped by
    # the device when a serve-layer trace context is active (see
    # ``Device.set_trace_context``); ``None`` on untraced runs.
    trace: tuple[str, str] | None = None
    seq: int | None = None
    l1_txns: int = 0
    l2_txns: int = 0
    dram_txns: int = 0

    def acquire(self, token: tuple) -> None:
        """Stamp an acquire edge: this task synchronized with ``token``'s
        latest release before reading the data it guards."""
        self.acquires.append(token)

    def release(self, token: tuple) -> None:
        """Stamp a release edge: this task publishes ``token`` on completion."""
        self.releases.append(token)

    @property
    def duration_s(self) -> float:
        if self.start_s is None or self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def read(self, buffer: Buffer, offset: int, nbytes: int, reps: tuple[tuple[int, int], ...] = (),
             dense: bool = False, on_chip: bool = False, assume_l2: bool = False) -> None:
        if nbytes > 0:
            self.accesses.append(Access(buffer, offset, nbytes, write=False, reps=reps,
                                        dense=dense, on_chip=on_chip, assume_l2=assume_l2))

    def write(self, buffer: Buffer, offset: int, nbytes: int, reps: tuple[tuple[int, int], ...] = (),
              dense: bool = False, on_chip: bool = False) -> None:
        if nbytes > 0:
            self.accesses.append(Access(buffer, offset, nbytes, write=True, reps=reps,
                                        dense=dense, on_chip=on_chip))

    def _append_rows(self, buffer: Buffer, offsets: list[int], nbytes: int,
                     write: bool, dense: bool, on_chip: bool, assume_l2) -> None:
        """Append one contiguous ``nbytes`` access per offset; ``assume_l2``
        yields one flag per row.  The run is bounds-checked once on its
        extreme offsets (uniform nbytes, reps=()), so the rows are constructed
        directly: ``__post_init__`` would only repeat the same comparisons."""
        lo = min(offsets)
        hi = max(offsets) + nbytes
        if lo < 0 or hi > buffer.nbytes:
            raise ValueError(
                f"batch access [{lo}, {hi}) exceeds buffer "
                f"{buffer.name!r} of {buffer.nbytes} bytes")
        append = self.accesses.append
        new = Access.__new__
        sa = object.__setattr__
        for off, l2 in zip(offsets, assume_l2):
            a = new(Access)
            sa(a, "buffer", buffer)
            sa(a, "offset", off)
            sa(a, "nbytes", nbytes)
            sa(a, "write", write)
            sa(a, "reps", ())
            sa(a, "dense", dense)
            sa(a, "on_chip", on_chip)
            sa(a, "assume_l2", l2)
            sa(a, "segments", 1)
            sa(a, "total_bytes", nbytes)
            append(a)

    def _emit_batch(self, buffer: Buffer, offsets, nbytes: int, write: bool,
                    dense: bool, on_chip: bool, assume_l2: bool) -> None:
        offs = np.ascontiguousarray(np.asarray(offsets, dtype=np.int64))
        if offs.size == 0 or nbytes <= 0:
            return
        start = len(self.accesses)
        self._append_rows(buffer, offs.tolist(), nbytes, write, dense, on_chip,
                          itertools.repeat(assume_l2))
        self.batch_spans.append(BatchSpan(
            start=start, count=offs.size, buffer=buffer,
            offsets=offs, nbytes=nbytes, write=write, dense=dense,
            on_chip=on_chip, assume_l2=assume_l2))

    def read_rows(self, buffer: Buffer, offsets: list[int], nbytes: int,
                  assume_l2: list[bool]) -> None:
        """One ``nbytes`` read per offset with a per-row ``assume_l2`` flag.

        Same rows as :meth:`read` in a loop (no :class:`BatchSpan`: a span is
        uniform and these flags are scheduler state that differs per row),
        validated once per run like :meth:`read_batch`."""
        if offsets and nbytes > 0:
            self._append_rows(buffer, offsets, nbytes, False, False, False, assume_l2)

    def read_batch(self, buffer: Buffer, offsets, nbytes: int,
                   dense: bool = False, on_chip: bool = False,
                   assume_l2: bool = False) -> None:
        """Emit one read per element of ``offsets`` (uniform ``nbytes`` each).

        Equivalent to calling :meth:`read` in a loop, but additionally
        records a :class:`BatchSpan` so the vectorized memory path can
        account the run with array arithmetic instead of per-access work.
        """
        self._emit_batch(buffer, offsets, nbytes, write=False, dense=dense,
                         on_chip=on_chip, assume_l2=assume_l2)

    def write_batch(self, buffer: Buffer, offsets, nbytes: int,
                    dense: bool = False, on_chip: bool = False) -> None:
        """Batched form of :meth:`write`; see :meth:`read_batch`."""
        self._emit_batch(buffer, offsets, nbytes, write=True, dense=dense,
                         on_chip=on_chip, assume_l2=False)

    @property
    def bytes_read(self) -> int:
        return sum(a.total_bytes for a in self.accesses if not a.write)

    @property
    def bytes_written(self) -> int:
        return sum(a.total_bytes for a in self.accesses if a.write)
