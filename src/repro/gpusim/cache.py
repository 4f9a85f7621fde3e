"""Sector-granular LRU cache model.

Residency is tracked at *sector* granularity (a power-of-two byte quantum,
coarser than the 32 B transaction size) to keep simulation tractable while
transaction counts stay exact-to-the-byte: the cache reports hit/miss *byte*
spans per access, and the memory system converts byte spans into 32 B
transactions.

A resident sector is one int key, ``buffer_id << 40 | sector_index``, in an
LRU-ordered dict of dirty byte counts; only this class knows that layout
(buffers stay below 2**40 bytes).  An access walks its sector range in one
loop, with no per-sector tuple or generator.

Write policy is write-allocate with dirty-byte tracking; evictions report how
many dirty bytes must be written downstream.  ``discard`` drops a buffer's
sectors without write-back (transient data dying on-device).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Container, NamedTuple

__all__ = ["SectorCache", "SpanResult"]

_SECTOR_BITS = 40


class SpanResult(NamedTuple):
    """Byte accounting for one access: how much hit, how much missed."""

    hit_bytes: int
    miss_bytes: int


_result = tuple.__new__


class SectorCache:
    """A fully-associative LRU cache over ``(buffer, sector)`` keys."""

    def __init__(self, capacity_bytes: int, sector_bytes: int) -> None:
        if sector_bytes <= 0 or capacity_bytes < sector_bytes:
            raise ValueError(f"bad cache geometry: capacity={capacity_bytes}, sector={sector_bytes}")
        self.sector_bytes = int(sector_bytes)
        self.capacity_sectors = int(capacity_bytes) // self.sector_bytes
        # sector key -> dirty byte count for that sector (0 = clean)
        self._lru: OrderedDict[int, int] = OrderedDict()
        self.evicted_dirty_bytes = 0
        # Lifetime accounting (survives clear()/drain, feeds the metrics
        # registry): every accessed byte lands in exactly one of hit/miss,
        # and every dirty byte leaves through exactly one of evicted (LRU),
        # flushed (write-back), or discarded (dropped without write-back).
        self.hit_bytes_total = 0
        self.miss_bytes_total = 0
        self.evicted_dirty_bytes_total = 0
        self.flushed_dirty_bytes = 0
        self.discarded_dirty_bytes = 0

    def __len__(self) -> int:
        return len(self._lru)

    def access(self, buffer_id: int, offset: int, nbytes: int, write: bool) -> SpanResult:
        """Touch a byte range; returns hit/miss byte accounting.

        Misses allocate the sector (write-allocate); LRU eviction accumulates
        ``evicted_dirty_bytes`` for downstream write-back accounting.
        """
        if nbytes <= 0:
            return _result(SpanResult, (0, 0))
        lru = self._lru
        sb = self.sector_bytes
        capacity = self.capacity_sectors
        end = offset + nbytes
        sector = offset // sb
        key = buffer_id << _SECTOR_BITS | sector
        hit = miss = 0
        while offset < end:
            stop = (sector + 1) * sb
            span = (stop if stop < end else end) - offset
            dirty = lru.get(key)
            if dirty is None:
                miss += span
                lru[key] = span if write else 0
                if len(lru) > capacity:
                    _, evicted_dirty = lru.popitem(last=False)
                    self.evicted_dirty_bytes += evicted_dirty
                    self.evicted_dirty_bytes_total += evicted_dirty
            else:
                hit += span
                lru.move_to_end(key)
                if write:
                    lru[key] = min(sb, dirty + span)
            offset = stop
            sector += 1
            key += 1
        self.hit_bytes_total += hit
        self.miss_bytes_total += miss
        return _result(SpanResult, (hit, miss))

    def discard(self, buffer_id: int) -> int:
        """Drop all sectors of a buffer without write-back; returns count.

        Dirty bytes dropped this way are attributed to
        ``discarded_dirty_bytes`` (transient data dying on-device), never to
        the flushed/evicted write-back totals.
        """
        lo = buffer_id << _SECTOR_BITS
        hi = lo + (1 << _SECTOR_BITS)
        doomed = [k for k in self._lru if lo <= k < hi]
        for k in doomed:
            self.discarded_dirty_bytes += self._lru.pop(k)
        return len(doomed)

    def flush(self) -> int:
        """Write back all dirty bytes; returns the number of dirty bytes."""
        dirty = sum(self._lru.values())
        for key in self._lru:
            self._lru[key] = 0
        self.flushed_dirty_bytes += dirty
        return dirty

    def write_back(self, keep: Container[int]) -> int:
        """Clean the dirty sectors of every buffer whose id is not in
        ``keep``; returns their dirty bytes (the caller accounts them)."""
        lru = self._lru
        dirty = 0
        for key, dirty_bytes in lru.items():
            if dirty_bytes and key >> _SECTOR_BITS not in keep:
                dirty += dirty_bytes
                lru[key] = 0
        return dirty

    def drain_evicted_dirty(self) -> int:
        """Return and reset the dirty bytes evicted since the last drain."""
        d = self.evicted_dirty_bytes
        self.evicted_dirty_bytes = 0
        return d

    def clear(self) -> None:
        """Drop all state (lifetime totals are preserved: the per-task L1
        reset and the streaming fast path both clear, and the registry reads
        the totals after the run)."""
        self._lru.clear()
        self.evicted_dirty_bytes = 0

    def stats(self) -> dict[str, int]:
        """Lifetime byte accounting, for the metrics registry."""
        return {
            "hit_bytes": self.hit_bytes_total,
            "miss_bytes": self.miss_bytes_total,
            "evicted_dirty_bytes": self.evicted_dirty_bytes_total,
            "flushed_dirty_bytes": self.flushed_dirty_bytes,
            "discarded_dirty_bytes": self.discarded_dirty_bytes,
            "resident_sectors": len(self._lru),
        }
