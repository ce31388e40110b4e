"""Property-based tests for the memory model's pattern memoization.

Two identity contracts, checked over randomized address streams
(strided, random gathers, duplicate-heavy, line-straddling) and
hierarchy configurations:

* **Exact identity memo-on vs memo-off**: a hierarchy whose batches may
  replay memoized patterns (:mod:`repro.memory.memvec`) against one
  that always walks (:class:`Walking`).  *Every* piece of internal
  state must match bit for bit — per-request latencies, statistics,
  tag arrays, LRU timestamps, the LRU clock, prefetched flags, slot
  maps, prefetcher stream tables and issued counts.  A replay replaces
  the walk; it may not even reorder invisible bookkeeping.

* **Soft identity vs the serial reference walk**: ``access_batch``
  legitimately collapses consecutive same-line repeats to counter-only
  updates (documented in ``MemoryHierarchy.access_batch``), so absolute
  clock values may differ from an element-by-element ``access`` walk —
  but statistics, latencies, residency, prefetched flags, per-set LRU
  *order*, and prefetcher training state must all agree.

Plus the memoization-correctness property: a repeating batch shape is
driven until the pattern layer compiles and replays it, then scalar
accesses (including eviction storms and wholesale invalidation) are
interleaved — replays must keep declining-or-agreeing, never desyncing
the two engines.
"""

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the hypothesis package"
)
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import CacheConfig, SystemConfig
from repro.memory import memvec
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.memvec import MEMVEC_METER

MAX_ADDR = 32 * 1024

# --- address-stream strategies (mirroring test_hierarchy_properties) --

base_addr = st.integers(min_value=0, max_value=MAX_ADDR - 512)

strided_run = st.builds(
    lambda start, stride, n: [
        max(0, start + i * stride) % MAX_ADDR for i in range(n)
    ],
    base_addr,
    st.sampled_from([-192, -64, -8, 1, 4, 16, 64, 96, 256]),
    st.integers(min_value=2, max_value=40),
)

random_gather = st.lists(
    st.integers(min_value=0, max_value=MAX_ADDR - 1), min_size=1, max_size=32
)

duplicate_heavy = st.builds(
    lambda addrs, reps: [a for a in addrs for _ in range(reps)],
    st.lists(base_addr, min_size=1, max_size=4),
    st.integers(min_value=2, max_value=10),
)

segment = st.one_of(strided_run, random_gather, duplicate_heavy)

stream = st.builds(
    lambda segs: [a for seg in segs for a in seg],
    st.lists(segment, min_size=1, max_size=6),
)

#: Includes line-straddling sizes (72, 130 span 2-3 lines of 64B).
access_size = st.sampled_from([1, 4, 8, 64, 72, 130])


def tiny_system(prefetch=True, l1_bytes=1024, ways=2):
    return SystemConfig(
        l1d=CacheConfig(
            size_bytes=l1_bytes, ways=ways, load_to_use=4, prefetcher=prefetch
        ),
        l2=CacheConfig(size_bytes=8192, ways=4, load_to_use=37, prefetcher=prefetch),
    )


hier_config = st.builds(
    tiny_system,
    prefetch=st.booleans(),
    l1_bytes=st.sampled_from([1024, 4096]),
    ways=st.sampled_from([2, 4]),
)


def _pf_table(pf):
    if pf is None:
        return None
    return (
        [(sid, e.last_addr, e.stride, e.confident) for sid, e in pf._table.items()],
        pf.issued,
    )


def hard_state(mem):
    """Every observable *and* internal field — the on/off contract."""
    l1, l2 = mem.l1, mem.l2
    return (
        [
            (
                c._tags.tolist(),
                list(c._tick),
                c._clock,
                bytes(c._pf),
                dict(c._slot_of),
                list(c._fill_count),
                c.stats,
            )
            for c in (l1, l2)
        ],
        _pf_table(mem._l1_prefetcher),
        _pf_table(mem._l2_prefetcher),
        mem.requests,
        mem.stats(),
    )


def lru_order(cache):
    """Per-set eviction order (line addresses, least- to most-recent)."""
    sets = cache._set_mask + 1
    order = []
    for s in range(sets):
        slots = range(s * cache._ways, (s + 1) * cache._ways)
        live = [(cache._tick[i], cache._tags[i]) for i in slots if cache._tags[i] >= 0]
        order.append([line for _, line in sorted(live)])
    return order


def soft_state(mem):
    """What must match the serial walk despite collapse-rule clock skew."""
    l1, l2 = mem.l1, mem.l2
    return (
        [
            (
                sorted(c._slot_of),
                lru_order(c),
                bytes(c._pf),
                c.stats,
            )
            for c in (l1, l2)
        ],
        _pf_table(mem._l1_prefetcher),
        _pf_table(mem._l2_prefetcher),
        mem.requests,
        mem.stats(),
    )


class Walking(MemoryHierarchy):
    """A hierarchy whose batches always walk: for the duration of each
    call a test fake of :func:`memvec.replay_batch` reports a first
    sighting (:data:`memvec.SEEN`), which commits nothing."""

    def access_batch(self, *args):
        real = memvec.replay_batch
        memvec.replay_batch = lambda *_: memvec.SEEN
        try:
            return super().access_batch(*args)
        finally:
            memvec.replay_batch = real


def pair(system):
    """(memo-on hierarchy, memo-off hierarchy) over the same system."""
    return MemoryHierarchy(system), Walking(system)


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(
        st.tuples(stream, access_size, st.integers(min_value=0, max_value=2)),
        min_size=1,
        max_size=5,
    ),
    system=hier_config,
)
def test_memvec_on_off_exact_identity(chunks, system):
    on, off = pair(system)
    serial = MemoryHierarchy(system)
    for addrs, size, sid in chunks:
        got_on = on.access_batch(addrs, size, sid)
        got_off = off.access_batch(addrs, size, sid)
        want = [serial.access(int(a), size, sid) for a in addrs]
        assert got_on.tolist() == got_off.tolist() == want
        assert hard_state(on) == hard_state(off)
    assert soft_state(on) == soft_state(serial)


@settings(max_examples=40, deadline=None)
@given(
    start=base_addr,
    stride=st.sampled_from([-8, 1, 2, 8, 48]),
    n=st.integers(min_value=2, max_value=48),
    laps=st.integers(min_value=3, max_value=8),
    rotation=st.integers(min_value=1, max_value=3),
    size=access_size,
    system=hier_config,
)
def test_repeating_patterns_replay_identically(
    start, stride, n, laps, rotation, size, system
):
    """Drive the same delta stream through a small base rotation until
    the pattern layer compiles and replays it; every lap must stay in
    exact lockstep with the memo-off walk."""
    on, off = pair(system)
    MEMVEC_METER.reset()
    for lap in range(laps):
        base = start + (lap % rotation) * 512
        addrs = [max(0, base + i * stride) % MAX_ADDR for i in range(n)]
        assert on.access_batch(addrs, size, 1).tolist() == off.access_batch(
            addrs, size, 1
        ).tolist()
        assert hard_state(on) == hard_state(off)


@settings(max_examples=40, deadline=None)
@given(
    start=base_addr,
    n=st.integers(min_value=4, max_value=32),
    noise=st.lists(
        st.integers(min_value=0, max_value=MAX_ADDR - 1), min_size=1, max_size=24
    ),
    invalidate=st.booleans(),
    system=hier_config,
)
def test_memoization_survives_invalidating_interleaves(
    start, n, noise, invalidate, system
):
    """Once a pattern replays, scalar-path interleaves that evict its
    lines (or wipe the cache wholesale) must make validation decline —
    never replay stale state.  The two engines stay in exact lockstep
    through the interleave and the retry."""
    on, off = pair(system)
    addrs = [start + 2 * i for i in range(n)]
    for _ in range(3):  # sight, compile, replay
        on.access_batch(addrs, 8, 2)
        off.access_batch(addrs, 8, 2)
    assert hard_state(on) == hard_state(off)
    # Invalidating interleave on the exact scalar path of both engines.
    for a in noise:
        assert on.access(a, 8, 0) == off.access(a, 8, 0)
    if invalidate:
        on.l1.invalidate_all()
        off.l1.invalidate_all()
    assert hard_state(on) == hard_state(off)
    # The memoized shape again: replay must decline-or-agree, and the
    # follow-up batch re-converges state.
    for _ in range(3):
        got_on = on.access_batch(addrs, 8, 2)
        got_off = off.access_batch(addrs, 8, 2)
        assert got_on.tolist() == got_off.tolist()
        assert hard_state(on) == hard_state(off)


@settings(max_examples=30, deadline=None)
@given(
    addrs=stream,
    size=st.sampled_from([72, 130]),
    system=hier_config,
)
def test_line_straddling_streams_stay_identical(addrs, size, system):
    """Multi-line spans force the scalar walk on both sides; identity
    must hold."""
    on, off = pair(system)
    serial = MemoryHierarchy(system)
    got_on = on.access_batch(addrs, size, 0)
    got_off = off.access_batch(addrs, size, 0)
    want = [serial.access(int(a), size, 0) for a in addrs]
    assert got_on.tolist() == got_off.tolist() == want
    assert hard_state(on) == hard_state(off)
    assert soft_state(on) == soft_state(serial)


def test_replay_actually_fires():
    """Meta-test: the suite above is vacuous if patterns never replay
    on the memo-on side, or if they replay on the memo-off side too;
    pin a shape that must hit the closed-form path."""
    system = tiny_system()
    on, off = pair(system)
    addrs = [128 + 2 * i for i in range(16)]
    MEMVEC_METER.reset()
    for _ in range(4):
        off.access_batch(addrs, 8, 7)
    assert not any(MEMVEC_METER.snapshot().values())
    for _ in range(4):
        on.access_batch(addrs, 8, 7)
    assert MEMVEC_METER.patterns_compiled >= 1
    assert MEMVEC_METER.pattern_hits >= 1
