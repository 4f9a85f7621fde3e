"""Shadow memory: per-buffer interval tracking of written byte ranges.

The MSan-style half of the execution sanitizer.  Every buffer the device
allocates gets a shadow: a sorted list of disjoint, written byte intervals,
each carrying the provenance of the task that wrote it (sequence number,
worker lane, and the lane-clock epoch the race detector needs).  Reads are
checked for coverage -- a byte read that no task wrote is an uninitialized
read, the concrete symptom of a skipped halo write or a missing dependency
edge -- and all accesses are checked against the buffer's bounds and
lifetime (use-after-discard).

Initialization policy: buffers allocated *before the first submitted task*
and not marked transient are host-initialized (graph inputs and weights are
bound by the host before any kernel launches), so reads from them need no
device writer.  Everything allocated mid-run -- memo tensors, layout
conversions, scratch, fallback activations -- must be written by a task
before it is read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

__all__ = ["WriteRecord", "BufferShadow", "ShadowMemory"]


@dataclass(frozen=True)
class WriteRecord:
    """Provenance of one written interval."""

    seq: int          # device submission order of the writing task
    lane: int         # worker lane the writer ran on
    epoch: int        # writer's vector-clock component on its own lane
    label: str        # writer task label, for diagnostics


@dataclass
class BufferShadow:
    """Shadow state of one buffer."""

    buffer_id: int
    name: str
    nbytes: int
    preinitialized: bool
    discarded_by: str | None = None
    # Disjoint written intervals, sorted by start: parallel lists of
    # (start, end) bounds and the WriteRecord provenance of each.
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    writers: list[WriteRecord] = field(default_factory=list)

    # -- queries -------------------------------------------------------------
    def overlapping(self, lo: int, hi: int) -> list[tuple[int, int, WriteRecord]]:
        """Written intervals intersecting ``[lo, hi)``, clipped to it."""
        if hi <= lo or not self.starts:
            return []
        i = bisect_right(self.ends, lo)  # first interval with end > lo
        out = []
        while i < len(self.starts) and self.starts[i] < hi:
            out.append((max(lo, self.starts[i]), min(hi, self.ends[i]), self.writers[i]))
            i += 1
        return out

    def uncovered(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Sub-ranges of ``[lo, hi)`` that no write covers."""
        if self.preinitialized:
            return []
        gaps = []
        cursor = lo
        for s, e, _ in self.overlapping(lo, hi):
            if s > cursor:
                gaps.append((cursor, s))
            cursor = max(cursor, e)
        if cursor < hi:
            gaps.append((cursor, hi))
        return gaps

    # -- updates -------------------------------------------------------------
    def record_write(self, lo: int, hi: int, writer: WriteRecord) -> None:
        """Mark ``[lo, hi)`` written by ``writer``, replacing prior owners.

        Overlapped older intervals are trimmed (their non-overlapping tails
        survive with their original provenance).
        """
        if hi <= lo:
            return
        i = bisect_right(self.ends, lo)
        new_starts: list[int] = []
        new_ends: list[int] = []
        new_writers: list[WriteRecord] = []
        j = i
        while j < len(self.starts) and self.starts[j] < hi:
            s, e, w = self.starts[j], self.ends[j], self.writers[j]
            if s < lo:
                new_starts.append(s)
                new_ends.append(lo)
                new_writers.append(w)
            if e > hi:
                new_starts.append(hi)
                new_ends.append(e)
                new_writers.append(w)
            j += 1
        # Merge with an adjacent same-writer interval to keep lists short
        # (row-major writes arrive as many touching segments).
        new_starts.append(lo)
        new_ends.append(hi)
        new_writers.append(writer)
        self.starts[i:j] = []
        self.ends[i:j] = []
        self.writers[i:j] = []
        for s, e, w in sorted(zip(new_starts, new_ends, new_writers)):
            k = bisect_left(self.starts, s)
            if (k > 0 and self.ends[k - 1] == s and self.writers[k - 1] == w):
                self.ends[k - 1] = e
            else:
                self.starts.insert(k, s)
                self.ends.insert(k, e)
                self.writers.insert(k, w)

    @property
    def written_bytes(self) -> int:
        return sum(e - s for s, e in zip(self.starts, self.ends))


class ShadowMemory:
    """Shadow state across all buffers of one run."""

    def __init__(self) -> None:
        self._shadows: dict[int, BufferShadow] = {}
        self.saw_task = False  # flips once the first task is submitted

    def register(self, buffer, *, preinitialized: bool | None = None) -> BufferShadow:
        shadow = self._shadows.get(buffer.buffer_id)
        if shadow is not None:
            return shadow
        if preinitialized is None:
            # Host-initialized: persistent data bound before any kernel ran.
            preinitialized = not self.saw_task and not buffer.transient
        shadow = BufferShadow(buffer.buffer_id, buffer.name, buffer.nbytes,
                              preinitialized)
        self._shadows[buffer.buffer_id] = shadow
        return shadow

    def lookup(self, buffer) -> BufferShadow:
        shadow = self._shadows.get(buffer.buffer_id)
        if shadow is None:
            # Unseen buffer (registered outside the observed device): be
            # lenient and treat it as host-initialized.
            shadow = self.register(buffer, preinitialized=True)
        return shadow

    def discard(self, buffer, by: str) -> BufferShadow:
        shadow = self.lookup(buffer)
        shadow.discarded_by = by
        return shadow
