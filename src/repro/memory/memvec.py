"""Pattern memoization for the memory-hierarchy model's batches.

Replay-loop kernels issue the *same shaped* short gather over and over:
identical address-delta stream, identical line offset, identical
prefetcher hand-off.  The state delta such a batch applies — which lines
are touched in what order, how many ticks the LRU clock advances, which
prefetch targets are staged, what the stream entry ends up holding — is
a pure function of the shape; only *hit or miss* depends on cache
contents.  So :func:`replay_batch` keys the shape like the replay JIT's
per-shape kernel table (``(line offset, stride hand-off, size, delta
stream)``), compiles it once into a closed-form :class:`_Pattern` on its
second sighting, and replays it whenever validation shows the batch is a
pure-hit run: every demand line resident, every emitted prefetch target
resident (a resident target is skipped by the fill loop with zero state
change), and the recorded sign decisions still valid at the new base
address.  There is deliberately **no cache-state fingerprint hash and no
invalidation protocol**: the "fingerprint" is verified live against
``Cache._slot_of`` at replay time, so scalar-path interleaves (fills,
evictions, resets) can never make a replay unsound — they simply make
the next validation decline and fall through to the exact walk.

``MemoryHierarchy._access_batch_scalar`` calls it before every walk on
a prefetching L1, behind a per-stream score that stops attempting on
streams where replays never pay (see the score in that method).  A
replay is bit-identical to the walk it replaces: statistics,
latencies, LRU order and prefetcher training.
"""

from __future__ import annotations


class MemVecMeter:
    """Process-global counters for pattern memoization.

    Snapshot/reset ride :class:`repro.vector.program.ReplayMeter` so the
    numbers land in every timing report.
    """

    __slots__ = (
        "pattern_hits",
        "pattern_misses",
        "patterns_compiled",
        "pattern_declined",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Batches retired closed-form from a compiled pattern.
        self.pattern_hits = 0
        #: Batches whose shape key was not (yet) compiled.
        self.pattern_misses = 0
        #: Shape keys compiled into closed-form patterns.
        self.patterns_compiled = 0
        #: Replays declined by validation (non-resident line / base sign).
        self.pattern_declined = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


MEMVEC_METER = MemVecMeter()

#: Pattern-table size bound; on overflow the table is cleared wholesale
#: (patterns are cheap to recompile and a churning key space means the
#: workload is not replay-shaped anyway).
_TABLE_MAX = 4096


class _Pattern:
    """Closed-form state delta of one batch shape, relative to the
    line-aligned base of its first address."""

    __slots__ = (
        "demand_rels",  # distinct demand rel lines, first-touch order
        "tick_pos",  # final LRU tick position per demand line (1-based)
        "target_rels",  # distinct emitted prefetch-target rel lines
        "ticks",  # LRU clock advance (non-collapsed line touches)
        "hits",  # total L1 demand hits (incl. collapsed)
        "nreq",  # demand requests (incl. extra lines of multi-line spans)
        "issued",  # prefetch targets emitted (post-exclusion, deduped)
        "min_cand",  # smallest sign-accepted candidate rel (None: none)
        "neg_max",  # largest sign-rejected candidate rel (None: none)
        "last_stride",  # stream entry stride after the batch
        "last_conf",  # stream entry confidence after the batch
    )


def _compile_pattern(arr, size_bytes, line, d0, conf0, degree):
    """Symbolically walk one batch shape and record its pure-hit delta.

    Mirrors ``MemoryHierarchy._access_batch_scalar`` statement for
    statement — same collapse rule, same prefetch emission (sign check,
    demand-window exclusion, in-order dedup) — over addresses relative
    to the line-aligned base, which is valid because ``(base + x) &
    ~mask == base + (x & ~mask)`` for a line-aligned base.  The only
    base-dependent decision, the prefetcher's ``target >= 0`` check, is
    captured as the ``min_cand``/``neg_max`` bounds validated at replay.
    """
    not_mask = ~(line - 1)
    base = arr[0] & not_mask
    size_m1 = size_bytes - 1
    tick_of: "dict[int, int]" = {}
    ticks = hits = issued = 0
    nreq = len(arr)
    targets: "list[int]" = []
    tset: "set[int]" = set()
    min_cand = neg_max = None
    prev_line = None
    stride = d0
    conf = conf0
    prev_rel = arr[0] - base
    for i, a in enumerate(arr):
        rel = a - base
        if i:
            s = rel - prev_rel
            conf = s != 0 and s == stride
            stride = s
            prev_rel = rel
        lo = rel & not_mask
        hi = (rel + size_m1) & not_mask
        if lo == prev_line and lo == hi and not conf:
            hits += 1
            continue
        if conf:
            elem: "list[int]" = []
            target = rel
            for _ in range(degree):
                target += stride
                if base + target >= 0:
                    if min_cand is None or target < min_cand:
                        min_cand = target
                    tl = target & not_mask
                    if (tl < lo or tl > hi) and tl not in elem:
                        elem.append(tl)
                elif neg_max is None or target > neg_max:
                    neg_max = target
            if elem:
                issued += len(elem)
                for tl in elem:
                    if tl not in tset:
                        tset.add(tl)
                        targets.append(tl)
        if lo == hi:
            prev_line = lo
            ticks += 1
            hits += 1
            tick_of[lo] = ticks
            continue
        prev_line = None
        la = lo
        while True:
            ticks += 1
            hits += 1
            tick_of[la] = ticks
            if la == hi:
                break
            la += line
            nreq += 1
    pat = _Pattern()
    pat.demand_rels = list(tick_of)
    pat.tick_pos = list(tick_of.values())
    pat.target_rels = targets
    pat.ticks = ticks
    pat.hits = hits
    pat.nreq = nreq
    pat.issued = issued
    pat.min_cand = min_cand
    pat.neg_max = neg_max
    pat.last_stride = stride
    pat.last_conf = conf
    return pat


#: :func:`replay_batch` dispositions — the caller's adaptive scorer
#: keys off these (see ``MemoryHierarchy._access_batch_scalar``).
REPLAYED = 1  # state committed closed-form; walk must NOT run
SEEN = 0  # first sighting recorded; run the walk
COMPILED = 2  # compiled on this sighting but validation declined
DECLINED = -1  # existing pattern's validation declined


def replay_batch(hier, arr, size_bytes, stream_id, pf, line, degree):
    """Retire one batch closed-form if its shape is memoized and
    validation passes; returns a disposition code.

    ``arr`` is the plain-int address list the scalar engine was handed;
    ``pf`` is the (non-None) L1 prefetcher.  Only :data:`REPLAYED`
    means state was committed — on every other code nothing at all was
    mutated and the caller must run the exact walk.
    """
    entry = pf.peek(stream_id)
    first = arr[0]
    if entry is None:
        d0 = 0
        conf0 = False
    else:
        d0 = first - entry[0]
        conf0 = d0 != 0 and d0 == entry[1]
    key = (
        first & (line - 1),
        d0,
        conf0,
        size_bytes,
        tuple([b - a for a, b in zip(arr, arr[1:])]),
    )
    table = hier._memvec_patterns
    pat = table.get(key)
    if pat is None:
        # First sighting: mark the shape, compile only on a repeat.
        if len(table) >= _TABLE_MAX:
            table.clear()
        table[key] = False
        MEMVEC_METER.pattern_misses += 1
        return SEEN
    if pat is False:
        pat = table[key] = _compile_pattern(
            arr, size_bytes, line, d0, conf0, degree
        )
        MEMVEC_METER.patterns_compiled += 1
        fresh = COMPILED
    else:
        fresh = DECLINED
    base = first - key[0]
    # The recorded sign decisions must still hold at this base, or the
    # serial walk would emit a different prefetch set.
    if (pat.min_cand is not None and base + pat.min_cand < 0) or (
        pat.neg_max is not None and base + pat.neg_max >= 0
    ):
        MEMVEC_METER.pattern_declined += 1
        return fresh
    l1 = hier.l1
    slot_of = l1._slot_of
    slot_get = slot_of.get
    slots = []
    for rel in pat.demand_rels:
        slot = slot_get(base + rel)
        if slot is None:
            MEMVEC_METER.pattern_declined += 1
            return fresh
        slots.append(slot)
    for rel in pat.target_rels:
        if base + rel not in slot_of:
            MEMVEC_METER.pattern_declined += 1
            return fresh
    # Pure-hit run: commit the closed-form delta.  A resident prefetch
    # target is skipped by the staging loop with zero state change, so
    # only its `issued` count (already folded into pat.issued) remains.
    clock0 = l1._clock
    tick = l1._tick
    pf_flag = l1._pf
    pfh = 0
    for slot, pos in zip(slots, pat.tick_pos):
        tick[slot] = clock0 + pos
        if pf_flag[slot]:
            pf_flag[slot] = 0
            pfh += 1
    l1._clock = clock0 + pat.ticks
    stats = l1.stats
    stats.hits += pat.hits
    if pfh:
        stats.prefetch_hits += pfh
    hier.requests += pat.nreq
    # Stream-table commit exactly as the walk: begin_batch creates the
    # entry when unknown (FIFO eviction included), end_batch writes the
    # finals and the issued count.
    pf.begin_batch(stream_id, first)
    pf.end_batch(stream_id, arr[-1], pat.last_stride, pat.last_conf, pat.issued)
    MEMVEC_METER.pattern_hits += 1
    return REPLAYED

