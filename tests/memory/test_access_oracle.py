"""The one-frame demand walk against the walk it replaced.

``MemoryHierarchy.access`` trains the L1 stream entry, stages the
prefetch targets and retires every demand line in one frame, and
``access_line`` is an aligned one-byte ``access``.  :class:`Oracle`
keeps the previous walk as the reference: ``_train`` through
``StridePrefetcher.observe``, then ``_access_line_untrained`` per line
through ``Cache.access``.  Hypothesis drives both hierarchies with the
same (address, size, stream id) calls, and after every call the latency
and every internal field (:func:`hard_state`) must be equal.

The streams cover multi-line spans, negative strides and addresses near
0 (so some prefetch targets are negative), more stream ids than the
64-entry stream table holds (so streams are evicted and re-created),
tiny caches (so lines are evicted) and prefetchers on and off.
"""

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the hypothesis package"
)
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import CacheConfig, SystemConfig  # noqa: E402
from repro.errors import MemoryModelError  # noqa: E402
from repro.memory.hierarchy import MemoryHierarchy  # noqa: E402
from test_memvec_properties import hard_state  # noqa: E402

MAX_ADDR = 16 * 1024
#: Larger than the prefetchers' 64-entry stream tables.
STREAM_IDS = 80


class Oracle(MemoryHierarchy):
    """The demand walk before it ran in one frame, kept as the reference."""

    def _train(self, stream_id, addr, demand):
        if self._l1_prefetcher is None:
            return
        for pf_line in self._l1_prefetcher.observe(stream_id, addr, demand):
            if not self.l1.probe(pf_line):
                self._fill_from_l2(pf_line, stream_id, prefetch=True)

    def access_line(self, line_addr, stream_id=0):
        if line_addr % self.system.l1d.line_bytes:
            raise MemoryModelError(f"unaligned line address: {line_addr:#x}")
        self.requests += 1
        self._train(stream_id, line_addr, (line_addr, line_addr))
        if self.l1.access(line_addr):
            return self.system.l1d.load_to_use
        return self.system.l1d.load_to_use + self._fill_from_l2(
            line_addr, stream_id
        )

    def access(self, addr, size_bytes=1, stream_id=0):
        if size_bytes < 1:
            raise MemoryModelError(f"access size must be positive: {size_bytes}")
        line = self.system.l1d.line_bytes
        first = addr - (addr % line)
        last = (addr + size_bytes - 1) - ((addr + size_bytes - 1) % line)
        self._train(stream_id, addr, (first, last))
        latency = 0
        for line_addr in range(first, last + 1, line):
            latency = max(latency, self._access_line_untrained(line_addr, stream_id))
        return latency

    def _access_line_untrained(self, line_addr, stream_id=0):
        self.requests += 1
        if self.l1.access(line_addr):
            return self.system.l1d.load_to_use
        return self.system.l1d.load_to_use + self._fill_from_l2(
            line_addr, stream_id
        )


def tiny_system(prefetch, l1_bytes, ways):
    return SystemConfig(
        l1d=CacheConfig(
            size_bytes=l1_bytes, ways=ways, load_to_use=4, prefetcher=prefetch
        ),
        l2=CacheConfig(size_bytes=4096, ways=4, load_to_use=37, prefetcher=prefetch),
    )


systems = st.builds(
    tiny_system,
    prefetch=st.booleans(),
    l1_bytes=st.sampled_from([512, 1024]),
    ways=st.sampled_from([1, 2]),
)

sizes = st.integers(min_value=1, max_value=130)
stream_ids = st.integers(min_value=0, max_value=STREAM_IDS - 1)
#: Addresses near 0, where negative strides give negative targets.
near_zero = st.integers(min_value=0, max_value=300)
anywhere = st.integers(min_value=0, max_value=MAX_ADDR - 1)

#: One stream walking a fixed stride: trains confident entries.
strided = st.builds(
    lambda start, stride, n, size, sid: [
        (max(0, start + i * stride), size, sid) for i in range(n)
    ],
    st.one_of(near_zero, anywhere),
    st.sampled_from([-200, -64, -24, -8, -1, 1, 4, 8, 24, 64, 72, 130, 256]),
    st.integers(min_value=2, max_value=12),
    sizes,
    stream_ids,
)

#: Unrelated calls on random streams.
scattered = st.lists(
    st.tuples(st.one_of(near_zero, anywhere), sizes, stream_ids),
    min_size=1,
    max_size=12,
)

#: One access on each of many new streams: fills and churns the table.
sweep = st.builds(
    lambda base, n, addr: [(addr + 16 * i, 8, base + i) for i in range(n)],
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=60, max_value=STREAM_IDS),
    near_zero,
)

calls = st.builds(
    lambda segs: [c for seg in segs for c in seg],
    st.lists(st.one_of(strided, scattered, sweep), min_size=1, max_size=6),
)


def _walk_both(system, calls, line_every=0):
    """Drive a hierarchy and its oracle call by call; every
    ``line_every``-th call (if set) goes through ``access_line``."""
    got, want = MemoryHierarchy(system), Oracle(system)
    line = system.l1d.line_bytes
    for k, (addr, size, sid) in enumerate(calls):
        if line_every and k % line_every == 0:
            aligned = addr - addr % line
            lat = got.access_line(aligned, sid)
            ref = want.access_line(aligned, sid)
        else:
            lat = got.access(addr, size, sid)
            ref = want.access(addr, size, sid)
        assert lat == ref, f"call {k}: latency {lat} != {ref}"
        assert hard_state(got) == hard_state(want), f"call {k}: state diverged"


@settings(max_examples=120, deadline=None)
@given(calls=calls, system=systems)
def test_access_matches_oracle(calls, system):
    _walk_both(system, calls)


@settings(max_examples=60, deadline=None)
@given(calls=calls, system=systems, line_every=st.integers(min_value=1, max_value=3))
def test_access_line_matches_oracle(calls, system, line_every):
    _walk_both(system, calls, line_every)


def test_pinned_corner_cases():
    """The strategies' corner cases, pinned: a sub-line stride whose
    look-ahead lands in the demanded line (excluded) and then twice in
    the next line (issued once), a two-line request whose look-ahead
    lands on its last line, a descending stream near 0 whose look-ahead
    goes negative, then more new streams than the table holds, which
    evicts the first stream."""
    system = tiny_system(True, 1024, 2)
    plan = [(36 + 4 * i, 4, 2) for i in range(8)]
    plan += [(1000 + 40 * i, 72, 3) for i in range(4)]
    plan += [(200 - 64 * i, 8, 1) for i in range(4)]
    plan += [(16 * i, 8, 100 + i) for i in range(70)]
    plan += [(0, 8, 1)]
    _walk_both(system, plan)
    mem = MemoryHierarchy(system)
    for addr, size, sid in plan:
        mem.access(addr, size, sid)
    assert 1 in mem._l1_prefetcher._table  # re-created after eviction
    assert len(mem._l1_prefetcher._table) == 64


@pytest.mark.parametrize("cls", (MemoryHierarchy, Oracle))
def test_errors_match(cls):
    mem = cls(tiny_system(True, 1024, 2))
    with pytest.raises(MemoryModelError, match="access size must be positive: 0"):
        mem.access(64, 0)
    with pytest.raises(MemoryModelError, match="unaligned line address: 0x41"):
        mem.access_line(65)
