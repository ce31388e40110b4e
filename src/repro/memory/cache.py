"""A set-associative, write-allocate, LRU cache model.

The model is request-accurate, not wire-accurate: it tracks which lines are
resident and in what LRU order, and counts hits/misses/evictions, which is
what the paper's Fig. 4 (time breakdown) and Fig. 14a (memory-request
reduction) require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CacheConfig
from repro.errors import MemoryModelError


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetched lines that a demand later hit.

        Every ``prefetch_hit`` consumes a line that a ``prefetch_fill``
        inserted, so this is always in ``[0, 1]``.
        """
        return (
            self.prefetch_hits / self.prefetch_fills
            if self.prefetch_fills
            else 0.0
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            prefetch_fills=self.prefetch_fills + other.prefetch_fills,
            prefetch_hits=self.prefetch_hits + other.prefetch_hits,
        )

    def merge_(self, other: "CacheStats") -> "CacheStats":
        """In-place accumulate ``other`` into this counter set."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.prefetch_fills += other.prefetch_fills
        self.prefetch_hits += other.prefetch_hits
        return self

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            prefetch_fills=self.prefetch_fills - earlier.prefetch_fills,
            prefetch_hits=self.prefetch_hits - earlier.prefetch_hits,
        )

    def copy(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.evictions,
            self.prefetch_fills, self.prefetch_hits,
        )


class Cache:
    """One level of set-associative cache with true-LRU replacement.

    The internals are organised for speed on the batched demand path
    (:meth:`repro.memory.hierarchy.MemoryHierarchy.access_batch`, which
    reaches into them directly): a flat numpy tag array with one slot
    per (set, way), an integer-timestamp LRU (an O(1) store per touch —
    no ``list.remove``), a ``line -> slot`` dict for O(1) membership,
    and a per-slot prefetched flag.  Replacement picks the smallest
    timestamp in the set, which reproduces the previous
    ``list[list[int]]`` MRU-ordering bit for bit: timestamps are drawn
    from one monotone clock, so their order *is* the recency order.

    Line size and set count must be powers of two (they are, for every
    Table I geometry) so set indexing and line alignment reduce to
    shift/mask; anything else raises :class:`MemoryModelError`.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        line = config.line_bytes
        sets = config.num_sets
        if line < 1 or line & (line - 1):
            raise MemoryModelError(
                f"line size must be a power of two: {line}"
            )
        if sets < 1 or sets & (sets - 1):
            raise MemoryModelError(
                f"set count must be a power of two: {sets}"
            )
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._ways = config.ways
        self._line_shift = line.bit_length() - 1
        self._line_mask = line - 1
        self._set_mask = sets - 1
        nslots = sets * config.ways
        # Slot s holds way (s % ways) of set (s // ways); -1 = invalid.
        self._tags = np.full(nslots, -1, dtype=np.int64)
        # LRU timestamps, one monotone clock shared by hits and fills.
        self._tick: list[int] = [0] * nslots
        # Prefetched-and-not-yet-demanded flag per slot.
        self._pf = bytearray(nslots)
        # Resident way count per set.  Fills stay compact (a new line
        # goes to slot base+count; eviction replaces in place; only
        # invalidate_all empties), so this is also the next free way.
        self._fill_count: list[int] = [0] * sets
        # Resident line -> slot, the single source of truth for lookup.
        self._slot_of: "dict[int, int]" = {}
        self._clock = 0

    def _set_index(self, line_addr: int) -> int:
        return (line_addr >> self._line_shift) & self._set_mask

    def line_of(self, addr: int) -> int:
        """Line-aligned address containing ``addr``."""
        if addr < 0:
            raise MemoryModelError(f"negative address: {addr}")
        return addr & ~self._line_mask

    def probe(self, line_addr: int) -> bool:
        """Check residency without touching LRU state or stats."""
        return line_addr in self._slot_of

    def access(self, line_addr: int) -> bool:
        """Demand access; returns True on hit and updates LRU + stats."""
        slot = self._slot_of.get(line_addr)
        if slot is None:
            self.stats.misses += 1
            return False
        self._clock += 1
        self._tick[slot] = self._clock
        self.stats.hits += 1
        if self._pf[slot]:
            self._pf[slot] = 0
            self.stats.prefetch_hits += 1
        return True

    def fill(self, line_addr: int, prefetch: bool = False) -> int | None:
        """Insert a line; returns the evicted line address, if any.

        Filling an already-resident line is a no-op and does not promote
        it (matching a hardware fill that finds the line present).
        """
        if line_addr in self._slot_of:
            return None
        set_idx = (line_addr >> self._line_shift) & self._set_mask
        base = set_idx * self._ways
        count = self._fill_count[set_idx]
        evicted = None
        if count < self._ways:
            slot = base + count
            self._fill_count[set_idx] = count + 1
        else:
            tick = self._tick
            slot = base
            oldest = tick[base]
            for s in range(base + 1, base + self._ways):
                if tick[s] < oldest:
                    oldest = tick[s]
                    slot = s
            evicted = int(self._tags[slot])
            del self._slot_of[evicted]
            self.stats.evictions += 1
        self._tags[slot] = line_addr
        self._slot_of[line_addr] = slot
        self._clock += 1
        self._tick[slot] = self._clock
        if prefetch:
            self._pf[slot] = 1
            self.stats.prefetch_fills += 1
        else:
            self._pf[slot] = 0
        return evicted

    def invalidate_all(self) -> None:
        """Drop every resident line (stats are preserved).

        The bookkeeping arrays are cleared in place so references held
        by the batch engines (which cache them across calls) stay valid.
        """
        self._tags.fill(-1)
        self._tick[:] = [0] * len(self._tick)
        self._pf[:] = bytes(len(self._pf))
        self._fill_count[:] = [0] * (self._set_mask + 1)
        self._slot_of.clear()

    @property
    def resident_lines(self) -> int:
        return len(self._slot_of)
