"""Vectorized execution engine for the memory-hierarchy model.

Two cooperating fast paths, both bit-identical to the serial walk and
both gated by ``MemoryHierarchy.use_vectorized_memory`` (``--no-memvec``
/ ``REPRO_NO_MEMVEC=1``):

**Pattern memoization** (:func:`replay_batch`).  Replay-loop kernels
issue the *same shaped* short gather over and over: identical
address-delta stream, identical line offset, identical prefetcher
hand-off.  The state delta such a batch applies — which lines are
touched in what order, how many ticks the LRU clock advances, which
prefetch targets are staged, what the stream entry ends up holding — is
a pure function of the shape; only *hit or miss* depends on cache
contents.  So the shape is keyed like the replay JIT's kernel cache
(``(line offset, stride hand-off, size, delta stream)``), compiled once
into a closed-form :class:`_Pattern` on its second sighting, and
replayed whenever validation shows the batch is a pure-hit run: every
demand line resident, every emitted prefetch target resident (a
resident target is skipped by the fill loop with zero state change),
and the recorded sign decisions still valid at the new base address.
There is deliberately **no cache-state fingerprint hash and no
invalidation protocol**: the "fingerprint" is verified live against
``Cache._slot_of`` at replay time, so scalar-path interleaves (fills,
evictions, resets) can never make a replay unsound — they simply make
the next validation decline and fall through to the exact walk.

**Phase-split retirement** (:func:`retire_rows`).  Large batches
(``access_batch``'s ``n > _SCALAR_BATCH_MAX`` path) are classified
against the flat cache tag arrays in one shot
(:meth:`repro.memory.cache.Cache.resident_mask`): a row is *dirty* if
it spans multiple lines, its demand line is not resident, or it emits a
prefetch target that is not resident.  The leading run of clean rows is
retired vectorized — distinct-line LRU timestamps via one sort, counter
bumps closed-form — then a chunk of rows past the first dirty row runs
the exact scalar walk (preserving LRU/prefetcher interleaving through
the fill), and the remainder is reclassified.  Misses are where the
walk spends its time anyway, so the chunk size adapts to the remaining
length to bound reclassification passes.
"""

from __future__ import annotations

import numpy as np


class MemVecMeter:
    """Process-global counters for the vectorized memory engine.

    Snapshot/reset ride :class:`repro.vector.program.ReplayMeter` so the
    numbers land in every timing report and bench record.
    """

    __slots__ = (
        "pattern_hits",
        "pattern_misses",
        "patterns_compiled",
        "pattern_declined",
        "vector_rows",
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
        #: Large-batch rows retired by the vectorized phase engine.
        self.vector_rows = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


MEMVEC_METER = MemVecMeter()

#: Pattern-table size bound; on overflow the table is cleared wholesale
#: (patterns are cheap to recompile and a churning key space means the
#: workload is not replay-shaped anyway).
_TABLE_MAX = 4096

#: Minimum full-processing row count before the phase engine pays for
#: its numpy classification passes (below this the scalar walk wins).
PHASE_MIN = 32


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
    """Retire one short batch closed-form if its shape is memoized and
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


def retire_rows(
    hier, arr, first, strides, conf, idxs, out, size_bytes, stream_id, state
):
    """Phase-split retirement of ``access_batch``'s full-processing rows.

    ``state`` is the engine's mutable counter block ``[clock, hits,
    misses, pf_hits, nreq, issued]`` (see
    ``MemoryHierarchy._walk_rows``); clean runs are committed here
    vectorized, dirty chunks are delegated to the exact scalar walk.
    """
    l1 = hier.l1
    line = hier.system.l1d.line_bytes
    shift = l1._line_shift
    not_mask = ~(line - 1)
    rows_addr = arr[idxs]
    rows_lo = first[idxs]
    rows_hi = (rows_addr + (size_bytes - 1)) & not_mask
    base_dirty = (rows_lo != rows_hi) | (rows_lo < 0)
    m = int(idxs.size)
    if conf is not None:
        rows_conf = conf[idxs]
        rows_stride = strides[idxs]
        degree = hier._l1_degree
    else:
        rows_conf = None
    arr_l = arr.tolist()
    first_l = first.tolist()
    strides_l = strides.tolist() if strides is not None else None
    conf_l = conf.tolist() if conf is not None else ()
    idxs_l = idxs.tolist()
    slot_of = l1._slot_of
    tick = l1._tick
    pf_flag = l1._pf
    pos = 0
    while pos < m:
        sl = slice(pos, m)
        dirty = base_dirty[sl] | ~l1.resident_mask(rows_lo[sl])
        if rows_conf is not None and rows_conf[sl].any():
            # Per-row prefetch emission, dedup via the running last-line
            # register (targets are monotone in k for a fixed stride).
            cs = rows_conf[sl]
            lo_s = rows_lo[sl]
            hi_s = rows_hi[sl]
            tk = rows_addr[sl].copy()
            st = rows_stride[sl]
            lastl = np.full(m - pos, -1, dtype=np.int64)
            iss = np.zeros(m - pos, dtype=np.int64)
            for _ in range(degree):
                tk += st
                tl = tk & not_mask
                inc = (tk >= 0) & cs & ((tl < lo_s) | (tl > hi_s))
                inc &= tl != lastl
                np.copyto(lastl, tl, where=inc)
                iss += inc
                if inc.any():
                    dirty |= inc & ~l1.resident_mask(tl)
        else:
            iss = None
        nd = int(np.argmax(dirty)) if dirty.any() else m - pos
        if nd:
            # Clean run: every row a single resident line, every emitted
            # target resident — only ticks and counters move.  Distinct
            # lines keep their *last* touch position, extracted with a
            # sorted-key compression.
            run_lo = rows_lo[pos : pos + nd]
            pshift = (nd + 1).bit_length()
            key = ((run_lo >> shift) << pshift) | np.arange(
                1, nd + 1, dtype=np.int64
            )
            key.sort()
            lines_s = key >> pshift
            last = np.empty(nd, dtype=bool)
            last[-1] = True
            np.not_equal(lines_s[:-1], lines_s[1:], out=last[:-1])
            clock0 = state[0]
            pmask = (1 << pshift) - 1
            for v in key[last].tolist():
                slot = slot_of[(v >> pshift) << shift]
                tick[slot] = clock0 + (v & pmask)
                if pf_flag[slot]:
                    pf_flag[slot] = 0
                    state[3] += 1
            state[0] = clock0 + nd
            state[1] += nd
            state[4] += nd
            if iss is not None:
                state[5] += int(iss[:nd].sum())
            MEMVEC_METER.vector_rows += nd
            pos += nd
            if pos >= m:
                break
        # Walk the dirty row plus an adaptive chunk through the exact
        # engine (fills must interleave in order), then reclassify.
        chunk = max(16, (m - pos) >> 3)
        hier._walk_rows(
            idxs_l[pos : pos + chunk],
            arr_l,
            first_l,
            strides_l,
            conf_l,
            out,
            size_bytes,
            stream_id,
            state,
        )
        pos += chunk
