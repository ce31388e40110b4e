"""The two-level cache hierarchy of the simulated system (Table I).

``MemoryHierarchy`` walks a demand request through L1D -> L2 -> DRAM,
returning the load-to-use latency and updating per-level statistics.
Both levels train a stride prefetcher; prefetched lines are filled without
charging latency to the triggering request (their DRAM traffic *is*
counted, feeding the bandwidth model).

:meth:`MemoryHierarchy.access` is the demand walk that the interpreter,
the replayed kernels and the alignment code call per request, so it
runs in one frame: it trains the L1 stream entry in place, stages the
not-yet-resident targets of the shared prefetch-target rules
(:meth:`MemoryHierarchy._prefetch_rels`) through the L2 fill path, and
retires each demand line with the same slot/LRU/flag updates as the
batch walk.  Only misses and prefetch fills leave the frame.
:meth:`MemoryHierarchy.access_line` is an aligned one-byte ``access``.

Batched requests (:meth:`MemoryHierarchy.access_batch` and
:meth:`MemoryHierarchy.access_batch_max`) take one walk at every batch
length, :meth:`MemoryHierarchy._access_batch_scalar`, fronted by pattern
memoization (:mod:`repro.memory.memvec`) that retires a repeated
pure-hit batch shape closed-form.  Both are bit-identical to the
per-request :meth:`MemoryHierarchy.access` loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.errors import MemoryModelError
from repro.memory import memvec
from repro.memory.cache import Cache, CacheStats
from repro.memory.dram import AddressAllocator, MainMemory
from repro.memory.prefetcher import StridePrefetcher, _StreamEntry


@dataclass
class MemoryStats:
    """Aggregated request statistics for one run."""

    requests: int = 0
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    dram_accesses: int = 0
    dram_bytes: int = 0

    def delta(self, earlier: "MemoryStats") -> "MemoryStats":
        return MemoryStats(
            requests=self.requests - earlier.requests,
            l1=self.l1.delta(earlier.l1),
            l2=self.l2.delta(earlier.l2),
            dram_accesses=self.dram_accesses - earlier.dram_accesses,
            dram_bytes=self.dram_bytes - earlier.dram_bytes,
        )

    def copy(self) -> "MemoryStats":
        return MemoryStats(
            requests=self.requests,
            l1=self.l1.copy(),
            l2=self.l2.copy(),
            dram_accesses=self.dram_accesses,
            dram_bytes=self.dram_bytes,
        )

    def merge(self, other: "MemoryStats") -> "MemoryStats":
        """Sum of two runs' request statistics."""
        return MemoryStats(
            requests=self.requests + other.requests,
            l1=self.l1.merge(other.l1),
            l2=self.l2.merge(other.l2),
            dram_accesses=self.dram_accesses + other.dram_accesses,
            dram_bytes=self.dram_bytes + other.dram_bytes,
        )

    def merge_(self, other: "MemoryStats") -> "MemoryStats":
        """In-place accumulate ``other`` into this statistics block."""
        self.requests += other.requests
        self.l1.merge_(other.l1)
        self.l2.merge_(other.l2)
        self.dram_accesses += other.dram_accesses
        self.dram_bytes += other.dram_bytes
        return self


class MemoryHierarchy:
    """L1D + shared L2 + DRAM, with stride prefetchers at both levels."""

    def __init__(self, system: SystemConfig | None = None) -> None:
        self.system = system or SystemConfig()
        self.l1 = Cache(self.system.l1d, name="L1D")
        self.l2 = Cache(self.system.l2, name="L2")
        self.dram = MainMemory(
            latency=self.system.dram_latency,
            bandwidth_gbs=self.system.dram_bandwidth_gbs,
            line_bytes=self.system.l1d.line_bytes,
        )
        self.allocator = AddressAllocator()
        line = self.system.l1d.line_bytes
        self._l1_prefetcher = (
            StridePrefetcher(line_bytes=line) if self.system.l1d.prefetcher else None
        )
        # The L2 prefetcher sees the L1-miss stream, which the L1
        # prefetcher already runs `degree` strides ahead of — so L2 must
        # look deeper than L1 to ever fetch a line first.
        self._l2_prefetcher = (
            StridePrefetcher(line_bytes=line, degree=4)
            if self.system.l2.prefetcher
            else None
        )
        self.requests = 0
        # Lazily built (l1, params, ...) tuple for the batch walk;
        # invalidated whenever self.l1 is rebound (reset()).
        self._scalar_ctx = None
        # Hot geometry constants shared by the demand walks.
        self._not_mask = ~(line - 1)
        self._line_bytes = line
        self._l1_lat = self.system.l1d.load_to_use
        self._l1_degree = (
            self._l1_prefetcher.degree if self._l1_prefetcher else 0
        )
        # (line offset, stride, span) -> line-relative prefetch targets
        # (_prefetch_rels).  Geometry-only, so it survives reset().
        self._pf_rel_cache: "dict[tuple, tuple]" = {}
        # Batch-shape key -> compiled _Pattern (repro.memory.memvec).
        # Patterns are state-independent — residency is re-validated
        # against the live cache at every replay — so this table never
        # needs invalidation either.
        self._memvec_patterns: dict = {}
        # Per-stream attempt scores for the memoization layer (see the
        # hook in _access_batch_scalar).
        self._memvec_score: "dict[int, int]" = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, size_bytes: int, alignment: int | None = None) -> int:
        """Reserve a simulated address range."""
        return self.allocator.alloc(size_bytes, alignment)

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def _fill_from_l2(
        self, line_addr: int, stream_id: int = 0, prefetch: bool = False
    ) -> int:
        """Bring a line into L1, recursing into L2/DRAM. Returns latency.

        Demand fills (``prefetch=False``) are the L1-miss stream, which
        is what trains the L2 stride prefetcher; L1-issued prefetches do
        not retrain L2 (they would double-train every miss stride).
        """
        if not prefetch:
            self._train_l2(stream_id, line_addr)
        if self.l2.access(line_addr):
            latency = self.system.l2.load_to_use
        else:
            latency = self.dram.access(line_addr)
            self.l2.fill(line_addr)
        self.l1.fill(line_addr, prefetch=prefetch)
        return latency

    def _train_l2(self, stream_id: int, line_addr: int) -> None:
        """Train the L2 prefetcher on one L1-miss; stage fills from DRAM."""
        if self._l2_prefetcher is None:
            return
        exclude = (line_addr, line_addr)
        for pf_line in self._l2_prefetcher.observe(stream_id, line_addr, exclude):
            if not self.l2.probe(pf_line):
                self.dram.access(pf_line)
                self.l2.fill(pf_line, prefetch=True)

    def access_line(self, line_addr: int, stream_id: int = 0) -> int:
        """One demand line access; returns load-to-use latency in cycles."""
        if line_addr % self._line_bytes:
            raise MemoryModelError(f"unaligned line address: {line_addr:#x}")
        return self.access(line_addr, 1, stream_id)

    def access(self, addr: int, size_bytes: int = 1, stream_id: int = 0) -> int:
        """Demand access of ``size_bytes`` at ``addr``.

        Multi-line requests are issued in parallel (one vector load);
        the returned latency is the slowest line's.  The prefetcher
        trains on the raw request address, so sub-line strides (e.g.
        32-byte vector loads) still form confident streams.

        One frame walks the whole request: the L1 stream entry is read
        and updated in place (``StridePrefetcher.observe``'s recurrence),
        a confident stride stages the targets of :meth:`_prefetch_rels`
        that are not resident, and each demand line then retires as in
        :meth:`_access_batch_scalar`.
        """
        if size_bytes < 1:
            raise MemoryModelError(f"access size must be positive: {size_bytes}")
        not_mask = self._not_mask
        lo = addr & not_mask
        hi = (addr + size_bytes - 1) & not_mask
        l1 = self.l1
        pf = self._l1_prefetcher
        if pf is not None:
            table = pf._table
            entry = table.get(stream_id)
            if entry is None:
                # A new stream: evict the oldest entry (dict order) if
                # the table is full; the first access issues nothing.
                if len(table) >= pf.table_size:
                    del table[next(iter(table))]
                table[stream_id] = _StreamEntry(addr)
            else:
                stride = addr - entry.last_addr
                entry.last_addr = addr
                if stride != 0 and stride == entry.stride:
                    entry.confident = True
                    rels = self._prefetch_rels(addr, lo, hi, stride)
                    if rels:
                        pf.issued += len(rels)
                        slot_of = l1._slot_of
                        for rel in rels:
                            if lo + rel not in slot_of:
                                self._fill_from_l2(lo + rel, stream_id, True)
                else:
                    entry.confident = False
                    entry.stride = stride
        slot_get = l1._slot_of.get
        tick = l1._tick
        pf_flag = l1._pf
        stats = l1.stats
        l1_lat = self._l1_lat
        line = self._line_bytes
        self.requests += (hi - lo) // line + 1
        worst = l1_lat
        line_addr = lo
        while True:
            slot = slot_get(line_addr)
            if slot is None:
                stats.misses += 1
                latency = l1_lat + self._fill_from_l2(line_addr, stream_id)
                if latency > worst:
                    worst = latency
            else:
                # Fills move the LRU clock, so it is re-read per line.
                clock = l1._clock + 1
                l1._clock = clock
                tick[slot] = clock
                stats.hits += 1
                if pf_flag[slot]:
                    pf_flag[slot] = 0
                    stats.prefetch_hits += 1
            if line_addr == hi:
                return worst
            line_addr += line

    # ------------------------------------------------------------------
    # Batched demand path
    # ------------------------------------------------------------------
    def access_batch(
        self,
        addrs,
        size_bytes: int = 1,
        stream_id: int = 0,
    ) -> "np.ndarray":
        """Demand-access a whole address stream in one call.

        Bit-identical to ``[self.access(a, size_bytes, stream_id) for a
        in addrs]`` — same :class:`MemoryStats`, LRU order, prefetcher
        training, and DRAM traffic — but returns the per-request latency
        sequence as an int64 array.  Every batch length runs
        :meth:`_access_batch_scalar`, with pattern memoization in front.
        """
        if size_bytes < 1:
            raise MemoryModelError(f"access size must be positive: {size_bytes}")
        arr = np.asarray(addrs, dtype=np.int64).reshape(-1)
        # Prefilled with the L1 latency, which every hit resolves to.
        out = np.full(arr.size, self._l1_lat, dtype=np.int64)
        if arr.size:
            self._access_batch_scalar(arr.tolist(), size_bytes, stream_id, out)
        return out

    def _prefetch_rels(self, addr_i, lo, hi, stride):
        """Line-relative prefetch-target offsets of one confident access.

        The single inline of ``StridePrefetcher.observe``'s emission
        rules, bit for bit — the non-negative-target check, the
        inclusive ``[lo, hi]`` demand-window exclusion, and the in-order
        dedup — shared by :meth:`access` and the batch walk.  A
        positive stride from a non-negative address can only produce
        positive targets, so those scans depend on nothing but (line
        offset, stride, span) and are memoized in ``_pf_rel_cache``.
        """
        cacheable = stride > 0 and addr_i >= 0
        if cacheable:
            rkey = (addr_i - lo, stride, hi - lo)
            rels = self._pf_rel_cache.get(rkey)
            if rels is not None:
                return rels
        scan: "list[int]" = []
        span = hi - lo
        not_mask = self._not_mask
        target = addr_i
        for _ in range(self._l1_degree):
            target += stride
            if target >= 0:
                rel = (target & not_mask) - lo
                if (rel < 0 or rel > span) and rel not in scan:
                    scan.append(rel)
        rels = tuple(scan)
        if cacheable:
            self._pf_rel_cache[rkey] = rels
        return rels

    def access_batch_max(
        self, addrs, size_bytes: int = 1, stream_id: int = 0
    ) -> int:
        """Worst-lane load-to-use latency of a demand batch.

        Identical state evolution to :meth:`access_batch` (and therefore
        to the serial loop), returning only ``max()`` of the per-request
        latencies — the lean entry for gather/scatter accounting, which
        exposes nothing but the slowest lane.  Returns 0 for an empty
        batch.  Runs the same walk as :meth:`access_batch`, without
        materialising the per-request latencies.
        """
        if not isinstance(addrs, list):
            addrs = np.asarray(addrs, dtype=np.int64).reshape(-1).tolist()
        if not addrs:
            return 0
        if size_bytes < 1:
            raise MemoryModelError(f"access size must be positive: {size_bytes}")
        return self._access_batch_scalar(addrs, size_bytes, stream_id, None)

    def _access_batch_scalar(
        self,
        arr: "list[int]",
        size_bytes: int,
        stream_id: int,
        out: "np.ndarray | None",
    ):
        """The walk behind :meth:`access_batch` and
        :meth:`access_batch_max`, at every batch length.

        Identical state evolution to the per-request :meth:`access`
        loop: the stride recurrence is carried element to element, and
        a single-line, non-confident request on its predecessor's line
        short-circuits to a collapsed L1 hit (that line is already MRU
        and no fill can intervene, so only the counters move).  With
        ``out=None`` the per-request latencies are not materialised and
        the worst one is returned instead (:meth:`access_batch_max`).
        """
        ctx = self._scalar_ctx
        if ctx is None or ctx[0] is not self.l1:
            l1 = self.l1
            pf = self._l1_prefetcher
            line = self.system.l1d.line_bytes
            ctx = self._scalar_ctx = (
                l1,
                self.system.l1d.load_to_use,
                line,
                ~(line - 1),
                l1._slot_of,
                l1._slot_of.get,
                l1._tick,
                l1._pf,
                self._fill_from_l2,
                pf,
                self._prefetch_rels,
            )
        (l1, l1_lat, line, not_mask, slot_of, slot_get, tick, pf_flag,
         fill_from_l2, pf, prefetch_rels) = ctx
        if pf is not None:
            # Adaptive per-stream scoring keeps the memoization attempt
            # off streams that never pay: replays and fresh compiles
            # feed the score, sightings and declines drain it, and an
            # exhausted stream backs off for a long stretch before one
            # retry.  Scoring only decides whether to *attempt* — a
            # replay itself is bit-identical to the walk, so any policy
            # here is sound.
            scores = self._memvec_score
            sc = scores.get(stream_id, 16)
            if sc >= 0:
                code = memvec.replay_batch(
                    self, arr, size_bytes, stream_id, pf, line,
                    self._l1_degree,
                )
                if code == memvec.REPLAYED:
                    # Memoized shape, pure-hit run: all state was
                    # committed closed-form.  `out` is prefilled with
                    # the L1 latency, which is exactly what every
                    # request of such a batch resolves to.
                    scores[stream_id] = sc + 4 if sc < 28 else 32
                    return out if out is not None else l1_lat
                if code == memvec.SEEN:
                    scores[stream_id] = sc - 1 if sc > 0 else -256
                elif code == memvec.DECLINED:
                    scores[stream_id] = sc - 2 if sc > 1 else -256
                # COMPILED is score-neutral: the compile is an
                # investment the next sighting cashes in.
            else:
                scores[stream_id] = sc + 1
        size_m1 = size_bytes - 1
        clock = l1._clock
        hits = misses = pf_hits = issued = 0
        nreq = len(arr)
        worst_all = l1_lat
        prev_line = -1
        conf = False
        if pf is not None:
            state = pf.begin_batch(stream_id, arr[0])
            # On stream creation the first element must see stride 0 /
            # no confidence, which (addr - addr) == 0 delivers for free.
            prev_addr, prev_stride = state if state is not None else (arr[0], 0)
        else:
            prev_addr = prev_stride = 0
        for i, addr_i in enumerate(arr):
            lo = addr_i & not_mask
            hi = (addr_i + size_m1) & not_mask
            if pf is not None:
                stride = addr_i - prev_addr
                conf = stride != 0 and stride == prev_stride
                prev_addr = addr_i
                prev_stride = stride
            if lo == prev_line and lo == hi and not conf:
                hits += 1  # collapsed: out[i] is already l1_lat
                continue
            if conf:
                rels = prefetch_rels(addr_i, lo, hi, stride)
                if rels:
                    issued += len(rels)
                    l1._clock = clock
                    for rel in rels:
                        pf_line = lo + rel
                        if pf_line not in slot_of:
                            fill_from_l2(pf_line, stream_id, prefetch=True)
                    clock = l1._clock
            if lo == hi:
                prev_line = lo
                slot = slot_get(lo)
                if slot is not None:
                    clock += 1
                    tick[slot] = clock
                    hits += 1
                    if pf_flag[slot]:
                        pf_flag[slot] = 0
                        pf_hits += 1
                else:
                    misses += 1
                    l1._clock = clock
                    latency = l1_lat + fill_from_l2(lo, stream_id)
                    clock = l1._clock
                    if out is not None:
                        out[i] = latency
                    elif latency > worst_all:
                        worst_all = latency
                continue
            prev_line = -1
            line_addr = lo
            worst = 0
            while True:
                slot = slot_get(line_addr)
                if slot is not None:
                    clock += 1
                    tick[slot] = clock
                    hits += 1
                    if pf_flag[slot]:
                        pf_flag[slot] = 0
                        pf_hits += 1
                    latency = l1_lat
                else:
                    misses += 1
                    l1._clock = clock
                    latency = l1_lat + fill_from_l2(line_addr, stream_id)
                    clock = l1._clock
                if latency > worst:
                    worst = latency
                if line_addr == hi:
                    break
                line_addr += line
                nreq += 1
            if worst != l1_lat:
                if out is not None:
                    out[i] = worst
                elif worst > worst_all:
                    worst_all = worst

        l1._clock = clock
        l1.stats.hits += hits
        l1.stats.misses += misses
        l1.stats.prefetch_hits += pf_hits
        self.requests += nreq
        if pf is not None:
            pf.end_batch(stream_id, prev_addr, prev_stride, conf, issued)
        return out if out is not None else worst_all

    def access_line_batch(self, line_addrs, stream_id: int = 0) -> "np.ndarray":
        """Batched :meth:`access_line`: aligned line addresses in, per-
        request latencies out, statistics identical to the serial loop."""
        arr = np.ascontiguousarray(line_addrs, dtype=np.int64)
        mask = self.system.l1d.line_bytes - 1
        if arr.size:
            unaligned = arr & mask
            if unaligned.any():
                bad = int(arr[np.flatnonzero(unaligned)[0]])
                raise MemoryModelError(f"unaligned line address: {bad:#x}")
        return self.access_batch(arr, 1, stream_id)

    def touch(self, addr: int, size_bytes: int, stream_id: int = 0) -> None:
        """Warm the hierarchy over a range without collecting latencies."""
        line = self.system.l1d.line_bytes
        first = addr - (addr % line)
        end = addr + size_bytes
        self.access_line_batch(
            np.arange(first, end, line, dtype=np.int64), stream_id
        )

    def account_streaming(
        self, n_requests: int, n_lines: int, dram_fraction: float = 1.0
    ) -> None:
        """Account a large streaming access pattern without walking lines.

        Used by fast-forward paths over data sets far larger than the
        caches (the classic-DP table on long reads): ``n_requests``
        demand requests touch ``n_lines`` distinct lines, of which
        ``dram_fraction`` ultimately come from DRAM (stride prefetchers
        stage them through, so they appear as prefetched L1 fills).
        """
        if n_requests < 0 or n_lines < 0 or not 0 <= dram_fraction <= 1:
            raise MemoryModelError("invalid streaming accounting")
        n_lines = min(n_lines, n_requests)
        # Round half-up rather than floor-truncate: flooring systematically
        # undercounted DRAM traffic (every fractional line was dropped).
        # Half-up (not banker's) keeps the count monotone in the fraction;
        # dram_fraction <= 1 guarantees dram_lines <= n_lines, so the
        # L1/L2/DRAM counters below stay mutually consistent.
        dram_lines = int(n_lines * dram_fraction + 0.5)
        self.requests += n_requests
        self.l1.stats.hits += n_requests - n_lines
        self.l1.stats.misses += n_lines
        self.l1.stats.prefetch_fills += n_lines
        self.l2.stats.misses += dram_lines
        self.l2.stats.hits += n_lines - dram_lines
        self.dram.accesses += dram_lines
        self.dram.bytes_transferred += dram_lines * self.system.l1d.line_bytes

    def account_extra_hits(self, n: int) -> None:
        """Record ``n`` additional L1-hit requests without walking the model.

        Fast-forward timing paths touch each cache line once and then call
        this to account for the remaining per-element requests, which the
        instruction-by-instruction path would have issued as L1 hits.
        """
        if n < 0:
            raise MemoryModelError("extra hit count must be non-negative")
        self.requests += n
        self.l1.stats.hits += n

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> MemoryStats:
        return MemoryStats(
            requests=self.requests,
            l1=self.l1.stats.copy(),
            l2=self.l2.stats.copy(),
            dram_accesses=self.dram.accesses,
            dram_bytes=self.dram.bytes_transferred,
        )

    def reset(self) -> None:
        """Clear contents and statistics (allocations persist)."""
        self.l1 = Cache(self.system.l1d, name="L1D")
        self.l2 = Cache(self.system.l2, name="L2")
        self.dram.reset_stats()
        if self._l1_prefetcher is not None:
            self._l1_prefetcher.reset()
        if self._l2_prefetcher is not None:
            self._l2_prefetcher.reset()
        self.requests = 0
