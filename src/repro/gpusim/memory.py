"""Memory-hierarchy simulation: access streams -> transaction counters.

Models the A100 path **global memory -> L2 -> DRAM** with the counters the
paper reads from Nsight Compute (Fig. 9):

* *Global (L1) transactions* -- every byte a kernel requests, counted in
  32 B aligned lines.  Padded bricks request halo bytes and keep their
  intermediate patches in thread-block-local storage (``on_chip`` accesses),
  so their L1 count rises mechanically -- the paper's "overfetch".
* *L2 transactions* -- requests that miss the per-task L1 (GPU L1s are
  write-through, so stores always reach L2).
* *DRAM transactions* -- L2 read misses plus write-backs of evicted or
  flushed dirty data.

Two residency models share the L2 capacity figure, matched to the two access
classes in the workloads:

* **Sector LRU** for blocked (brick) traffic: bricks are contiguous and
  re-read by spatial neighbors shortly after being written, so residency is
  tracked exactly, at sector granularity, in true access order.  This is
  what makes merged execution's temporal locality measurable.
* **Analytic per-buffer residency** for dense row-major traffic
  (``Access.dense``): tiled/slabbed kernels sweep whole activations whose
  strided segments are far finer than any tractable tracking granularity.
  Residency is kept per buffer with strict-LRU semantics: a buffer larger
  than the capacity gives *zero* re-read reuse (cyclic LRU thrash -- this is
  precisely why layer-by-layer execution streams through DRAM), a smaller
  buffer hits in proportion to its resident fraction.

The two models each see the full capacity (they never evict each other);
runs are dominated by one class at a time, and EXPERIMENTS.md notes the
approximation.  The per-task L1 is reset per task: each fine-grained kernel
invocation runs on a fresh thread block.

Accounting is per :class:`~repro.gpusim.trace.Access` row, in stream order.
:meth:`MemorySystem.process` is the per-access reference walk;
:meth:`MemorySystem.process_batch` runs the same chain over a task's whole
row list, unpacking each row once, summing the stateless charges in locals
and sending blocked rows straight to the sector walks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.gpusim.cache import SectorCache
from repro.gpusim.spec import GPUSpec
from repro.gpusim.trace import Access, Buffer

__all__ = ["MemoryCounters", "MemorySystem", "AnalyticResidency"]


def _lines(offset: int, nbytes: int, line: int) -> int:
    """32 B-aligned lines touched by a byte range (alignment overfetch)."""
    if nbytes <= 0:
        return 0
    return (offset + nbytes - 1) // line - offset // line + 1


def _txns(nbytes: int, line: int) -> int:
    return -(-int(nbytes) // line) if nbytes > 0 else 0


# Transaction-charging convention, applied uniformly on read and write paths:
# a *whole byte range* moving through a level is charged offset-aware
# (``_lines``: alignment overfetch included), while *modeled byte quantities*
# without a concrete range (partial-span cache misses, analytic-residency
# misses and spills, dirty write-backs) are charged ``_txns`` (ceil-div).
# The same byte range therefore costs the same transactions whether it is
# being loaded or stored.


@dataclass
class MemoryCounters:
    """Nsight-style transaction counters (32 B units)."""

    l1_txns: int = 0
    l2_txns: int = 0
    dram_read_txns: int = 0
    dram_write_txns: int = 0

    @property
    def dram_txns(self) -> int:
        return self.dram_read_txns + self.dram_write_txns

    @property
    def dram_bytes(self) -> int:
        return self.dram_txns * 32


class AnalyticResidency:
    """Per-buffer L2 residency for dense row-major activations.

    Tracks ``(resident_bytes, dirty_bytes)`` per buffer in LRU order.
    Strict-LRU semantics for re-reads: a buffer that does not fit the
    capacity yields no read reuse at all (cyclic thrash), a fitting buffer
    hits in proportion to its resident fraction.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[int, list[int]] = OrderedDict()  # id -> [resident, dirty]
        # Running sum of resident bytes, so eviction pressure is a single
        # comparison instead of an O(n) sum per loop iteration.
        self._resident = 0
        # Lifetime dirty-byte conservation ledger (mirrors SectorCache):
        # every byte that acquires a write-back obligation here leaves
        # through exactly one of spilled (LRU overflow), flushed (end-of-run
        # write-back), or discarded (transient data dropped on-device).
        self.written_dirty_bytes = 0
        self.spilled_dirty_bytes = 0
        self.flushed_dirty_bytes = 0
        self.discarded_dirty_bytes = 0

    def total(self) -> int:
        return self._resident

    def dirty_resident(self) -> int:
        return sum(e[1] for e in self._entries.values())

    def read(self, buffer: Buffer, touched: int) -> tuple[int, int, int]:
        """Returns ``(hit_bytes, miss_bytes, spilled_dirty_bytes)``.

        Misses become resident; insertions can evict other buffers, and the
        dirty bytes those evictions spill must reach the DRAM write counter
        (they are part of the conservation ledger, not silently droppable).
        """
        if buffer.nbytes > self.capacity:
            # Streaming: no reuse, and do not pollute residency.
            return 0, touched, 0
        entry = self._entries.get(buffer.buffer_id)
        resident = entry[0] if entry else 0
        hit = min(touched, touched * resident // max(buffer.nbytes, 1))
        miss = touched - hit
        spilled = self._insert(buffer, miss, dirty=0)
        return hit, miss, spilled

    def write(self, buffer: Buffer, written: int) -> int:
        """Returns dirty bytes immediately spilled to DRAM (overflow)."""
        if buffer.nbytes > self.capacity:
            # Larger-than-cache outputs stream their overflow to DRAM; keep
            # nothing resident (strict-LRU re-reads would miss anyway).
            self.written_dirty_bytes += written
            self.spilled_dirty_bytes += written
            return written
        return self._insert(buffer, written, dirty=written)

    def _insert(self, buffer: Buffer, nbytes: int, dirty: int) -> int:
        entry = self._entries.setdefault(buffer.buffer_id, [0, 0])
        grown = min(buffer.nbytes, entry[0] + nbytes)
        self._resident += grown - entry[0]
        entry[0] = grown
        if dirty:
            clamped = min(grown, entry[1] + dirty)
            self.written_dirty_bytes += clamped - entry[1]
            entry[1] = clamped
        self._entries.move_to_end(buffer.buffer_id)
        spilled = 0
        while self._resident > self.capacity and len(self._entries) > 1:
            _, (res, drt) = self._entries.popitem(last=False)
            self._resident -= res
            spilled += drt
        self.spilled_dirty_bytes += spilled
        return spilled

    def discard(self, buffer_id: int) -> None:
        entry = self._entries.pop(buffer_id, None)
        if entry is not None:
            self._resident -= entry[0]
            self.discarded_dirty_bytes += entry[1]

    def flush(self, keep_transient: dict[int, Buffer]) -> int:
        dirty = 0
        for bid, entry in self._entries.items():
            if entry[1]:
                buf = keep_transient.get(bid)
                if buf is None or not buf.transient:
                    dirty += entry[1]
                else:
                    # Transient dirty data dies on-device: dropped, not
                    # written back.
                    self.discarded_dirty_bytes += entry[1]
            entry[1] = 0
        self.flushed_dirty_bytes += dirty
        return dirty

    def stats(self) -> dict[str, int]:
        """Lifetime byte accounting, for the metrics registry."""
        return {
            "resident_bytes": self._resident,
            "dirty_resident_bytes": self.dirty_resident(),
            "written_dirty_bytes": self.written_dirty_bytes,
            "spilled_dirty_bytes": self.spilled_dirty_bytes,
            "flushed_dirty_bytes": self.flushed_dirty_bytes,
            "discarded_dirty_bytes": self.discarded_dirty_bytes,
        }


class MemorySystem:
    """Processes access streams and accumulates transaction counters."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self.line = spec.transaction_bytes
        self.l2 = SectorCache(spec.l2_bytes, spec.l2_sector_bytes)
        self.l1 = SectorCache(spec.l1_bytes, spec.l1_sector_bytes)
        self.analytic = AnalyticResidency(spec.l2_bytes)
        self.counters = MemoryCounters()
        self._buffers: dict[int, Buffer] = {}
        # Streaming fast-path threshold for contiguous blocked accesses: one
        # access this large sweeps the whole L2; count it arithmetically.
        self._stream_threshold = 4 * spec.l2_bytes
        # Pinned buffers (hot weights): resident in L2 after first touch,
        # accounted arithmetically instead of through the LRU.  Only sound
        # while the pinned working set is small relative to L2 -- the engine
        # pins one subgraph's weights at a time.
        self._pinned: set[int] = set()
        self._pinned_seen: set[int] = set()

    # -- allocation ---------------------------------------------------------
    def register(self, buffer: Buffer) -> Buffer:
        self._buffers[buffer.buffer_id] = buffer
        return buffer

    def allocate(self, name: str, nbytes: int, transient: bool = False) -> Buffer:
        return self.register(Buffer.new(name, nbytes, transient))

    def pin(self, buffer: Buffer) -> None:
        """Mark a buffer L2-resident-after-first-touch (hot weights)."""
        self._pinned.add(buffer.buffer_id)

    def unpin(self, buffer: Buffer) -> None:
        self._pinned.discard(buffer.buffer_id)
        self._pinned_seen.discard(buffer.buffer_id)

    # -- task lifecycle -------------------------------------------------------
    def begin_task(self) -> None:
        """Start a new thread block: L1 state does not carry over."""
        self.l1.clear()

    def process(self, access: Access) -> None:
        """The per-access reference walk: one row through the whole
        classification chain (on-chip, certified L2 hit, pinned, dense,
        blocked)."""
        buffer, offset, nbytes, write, reps, dense, on_chip, assume_l2 = access
        c = self.counters
        lines = _lines(offset, nbytes, self.line) * access.segments
        c.l1_txns += lines
        if on_chip:
            return  # thread-block private: never leaves the SM
        if assume_l2:
            # Executor-certified L2 hit (protocol-coalesced consumer read).
            c.l2_txns += lines
            return
        if buffer.buffer_id in self._pinned:
            c.l2_txns += lines
            if buffer.buffer_id not in self._pinned_seen:
                self._pinned_seen.add(buffer.buffer_id)
                c.dram_read_txns += _txns(buffer.nbytes, self.line)
            return
        if dense or reps:
            self._dense(buffer, write, access.total_bytes, lines)
        elif write:
            self._blocked_write(buffer.buffer_id, offset, nbytes, lines)
        else:
            self._blocked_read(buffer.buffer_id, offset, nbytes, lines)

    def process_batch(self, accesses: Sequence[Access]) -> None:
        """Account a whole task's access stream, in stream order.

        Counter-identical to :meth:`process` on each row: the same chain,
        with the row unpacked once, the stateless classes summed in locals
        and blocked rows sent straight to the sector walks."""
        c = self.counters
        line = self.line
        pinned = self._pinned
        seen = self._pinned_seen
        blocked_read = self._blocked_read
        blocked_write = self._blocked_write
        l1 = l2 = dram_read = 0
        for access in accesses:
            buffer, offset, nbytes, write, reps, dense, on_chip, assume_l2 = access
            lines = (offset + nbytes - 1) // line - offset // line + 1 if nbytes > 0 else 0
            if reps:
                lines *= access.segments
            l1 += lines
            if on_chip:
                continue
            if assume_l2:
                l2 += lines
                continue
            bid = buffer.buffer_id
            if bid in pinned:
                l2 += lines
                if bid not in seen:
                    seen.add(bid)
                    dram_read += _txns(buffer.nbytes, line)
                continue
            if dense or reps:
                self._dense(buffer, write, access.total_bytes, lines)
            elif write:
                blocked_write(bid, offset, nbytes, lines)
            else:
                blocked_read(bid, offset, nbytes, lines)
        c.l1_txns += l1
        c.l2_txns += l2
        c.dram_read_txns += dram_read

    # -- dense path ---------------------------------------------------------
    def _dense(self, buffer: Buffer, write: bool, total: int, lines: int) -> None:
        c = self.counters
        c.l2_txns += lines  # write-through / L1 too small
        if write:
            spilled = self.analytic.write(buffer, total)
            c.dram_write_txns += _txns(spilled, self.line)
        else:
            _, miss, spilled = self.analytic.read(buffer, total)
            c.dram_read_txns += _txns(miss, self.line)
            if spilled:
                c.dram_write_txns += _txns(spilled, self.line)

    # -- blocked (brick) path ----------------------------------------------
    # ``lines`` is the row's offset-aware line count, which its caller has
    # already charged to L1.
    def _blocked_read(self, buffer_id: int, offset: int, nbytes: int, lines: int) -> None:
        if nbytes >= self._stream_threshold:
            self._stream(lines, write=False)
            return
        _, miss = self.l1.access(buffer_id, offset, nbytes, False)
        if miss:
            c = self.counters
            c.l2_txns += lines if miss == nbytes else _txns(miss, self.line)
            _, miss = self.l2.access(buffer_id, offset, nbytes, False)
            if miss:
                c.dram_read_txns += lines if miss == nbytes else _txns(miss, self.line)
            if self.l2.evicted_dirty_bytes:
                self._drain_evictions()

    def _blocked_write(self, buffer_id: int, offset: int, nbytes: int, lines: int) -> None:
        if nbytes >= self._stream_threshold:
            self._stream(lines, write=True)
            return
        # Write-through L1: stores always generate L2 traffic.
        self.counters.l2_txns += lines
        self.l1.access(buffer_id, offset, nbytes, True)
        self.l2.access(buffer_id, offset, nbytes, True)
        if self.l2.evicted_dirty_bytes:
            self._drain_evictions()

    def _stream(self, lines: int, write: bool) -> None:
        """Arithmetic accounting for accesses that sweep the entire L2."""
        c = self.counters
        c.l2_txns += lines
        if write:
            c.dram_write_txns += lines
        else:
            c.dram_read_txns += lines
        c.dram_write_txns += _txns(self.l2.flush(), self.line)
        self.l2.clear()

    def _drain_evictions(self) -> None:
        """Charge the dirty bytes the L2 evicted; callers check
        ``l2.evicted_dirty_bytes`` first, since draining zero charges
        nothing."""
        self.counters.dram_write_txns += _txns(self.l2.drain_evicted_dirty(), self.line)

    # -- observability ------------------------------------------------------
    def stats(self) -> dict:
        """Cache-model accounting beyond the transaction counters: per-level
        hit/miss bytes and where every dirty byte went (evicted vs flushed
        vs discarded).  Feeds the metrics registry and Perfetto counter
        tracks."""
        return {
            "l1": self.l1.stats(),
            "l2": self.l2.stats(),
            "analytic": self.analytic.stats(),
            "analytic_resident_bytes": self.analytic.total(),
            "pinned_buffers": len(self._pinned),
        }

    # -- lifetime management -----------------------------------------------
    def discard(self, buffer: Buffer) -> None:
        """Drop a (transient) buffer's cached data without write-back."""
        self.l1.discard(buffer.buffer_id)
        self.l2.discard(buffer.buffer_id)
        self.analytic.discard(buffer.buffer_id)

    def flush(self) -> None:
        """End of run: write back dirty data of *persistent* buffers."""
        transient = {bid for bid, buf in self._buffers.items() if buf.transient}
        dirty = self.l2.write_back(transient) + self.analytic.flush(self._buffers)
        self.counters.dram_write_txns += _txns(dirty, self.line)
