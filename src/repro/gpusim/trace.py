"""Access-trace primitives: buffers, byte-range accesses, and tasks.

Executors describe their memory behavior as streams of byte-range accesses
against named buffers; the memory system converts those streams into
transaction counts.  A :class:`Task` is one fine-grained kernel invocation
(a brick or tile computation) with its accesses, flop count and atomic
activity -- the unit the SM scheduler places on the device.

An access is a row: :class:`Access` is an immutable named tuple, a task's
stream is a plain list of them, and the memory system unpacks each row
directly.  ``Access(...)`` validates its geometry; the task's batch emitters
(:meth:`Task.read_batch`, :meth:`Task.write_batch`, :meth:`Task.read_rows`)
bounds-check a whole run of uniform rows once and build each row with
``tuple.__new__``, which skips the per-row check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

__all__ = ["Buffer", "Access", "Task", "buffer_token", "brick_token"]

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


class _AccessRow(NamedTuple):
    buffer: Buffer
    offset: int
    nbytes: int
    write: bool = False
    reps: tuple[tuple[int, int], ...] = ()
    dense: bool = False
    on_chip: bool = False
    assume_l2: bool = False


class Access(_AccessRow):
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

    Constructing one checks its geometry and raises ``ValueError``;
    ``tuple.__new__(Access, row)`` builds a row without the check (the
    batch emitters, after checking the run; hand-built corrupt traces).
    """

    __slots__ = ()

    def __new__(cls, buffer: Buffer, offset: int, nbytes: int, write: bool = False,
                reps: tuple[tuple[int, int], ...] = (), dense: bool = False,
                on_chip: bool = False, assume_l2: bool = False) -> "Access":
        self = tuple.__new__(cls, (buffer, offset, nbytes, write, reps, dense,
                                   on_chip, assume_l2))
        if offset < 0 or nbytes < 0:
            raise ValueError(f"negative access geometry: {self}")
        end = offset + nbytes
        for c, s in reps:
            if c < 1 or s < 0:
                raise ValueError(f"invalid reps: {reps}")
            end += (c - 1) * s
        if end > buffer.nbytes:
            raise ValueError(
                f"access [{offset}, {end}) exceeds "
                f"buffer {buffer.name!r} of {buffer.nbytes} bytes"
            )
        return self

    @property
    def segments(self) -> int:
        """Contiguous segments: the product of the ``reps`` counts."""
        return math.prod([c for c, _ in self.reps])

    @property
    def total_bytes(self) -> int:
        return self.segments * self.nbytes

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


def _run_fits(buffer: Buffer, offsets: Sequence[int], nbytes: int) -> bool:
    """Whether a run of ``nbytes`` rows at ``offsets`` has rows to emit;
    raises ``ValueError`` (before anything is emitted) if any row would
    leave the buffer.  Checking the extreme offsets checks every row."""
    if nbytes <= 0 or not offsets:
        return False
    lo = min(offsets)
    hi = max(offsets) + nbytes
    if lo < 0 or hi > buffer.nbytes:
        raise ValueError(
            f"batch access [{lo}, {hi}) exceeds buffer "
            f"{buffer.name!r} of {buffer.nbytes} bytes")
    return True


_row = tuple.__new__


@dataclass(slots=True)
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

    A task names no serve request: the serve tracer parents an entry's
    task spans on the batch's execute span (``Tracer.emit_task_spans``).

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
        """Append one row (none when ``nbytes`` is 0).  A contiguous row
        inside its buffer is built directly; anything else goes through the
        constructor, which checks it."""
        if nbytes > 0:
            row = (buffer, offset, nbytes, False, reps, dense, on_chip, assume_l2)
            self.accesses.append(Access(*row) if reps or offset < 0 or offset + nbytes > buffer.nbytes
                                 else _row(Access, row))

    def write(self, buffer: Buffer, offset: int, nbytes: int, reps: tuple[tuple[int, int], ...] = (),
              dense: bool = False, on_chip: bool = False) -> None:
        """The store twin of :meth:`read`."""
        if nbytes > 0:
            row = (buffer, offset, nbytes, True, reps, dense, on_chip, False)
            self.accesses.append(Access(*row) if reps or offset < 0 or offset + nbytes > buffer.nbytes
                                 else _row(Access, row))

    def read_batch(self, buffer: Buffer, offsets: Sequence[int], nbytes: int) -> None:
        """One contiguous ``nbytes`` read per offset: the rows :meth:`read`
        would emit in a loop, with the run bounds-checked once."""
        if _run_fits(buffer, offsets, nbytes):
            self.accesses.extend([_row(Access, (buffer, off, nbytes, False, (), False, False, False))
                                  for off in offsets])

    def write_batch(self, buffer: Buffer, offsets: Sequence[int], nbytes: int) -> None:
        """Batched form of :meth:`write`; see :meth:`read_batch`."""
        if _run_fits(buffer, offsets, nbytes):
            self.accesses.extend([_row(Access, (buffer, off, nbytes, True, (), False, False, False))
                                  for off in offsets])

    def read_rows(self, buffer: Buffer, offsets: Sequence[int], nbytes: int,
                  assume_l2: Sequence[bool]) -> None:
        """:meth:`read_batch` with a per-row ``assume_l2`` flag (scheduler
        state that differs from row to row)."""
        if _run_fits(buffer, offsets, nbytes):
            self.accesses.extend([_row(Access, (buffer, off, nbytes, False, (), False, False, l2))
                                  for off, l2 in zip(offsets, assume_l2)])

    @property
    def bytes_read(self) -> int:
        return sum(a.total_bytes for a in self.accesses if not a.write)

    @property
    def bytes_written(self) -> int:
        return sum(a.total_bytes for a in self.accesses if a.write)
