"""Property-based differential tests for the memory-hierarchy fast path.

Hypothesis generates adversarial demand streams — contiguous walks,
sub-line strided runs, random gathers/scatters, duplicates, and
arbitrary interleavings of all of these — and every stream is replayed
two ways on fresh hierarchies: element-by-element through
``MemoryHierarchy.access`` (the reference serial walk) and in one call
through ``access_batch`` / ``access_batch_max``.  The batched entries
must be bit-identical: same per-request latencies, same
``MemoryStats`` (hits, misses, evictions, prefetch fills/hits, DRAM
traffic), and the same *subsequent* behaviour, since LRU order and
prefetcher stream state carry forward.

Every batch length takes the same walk; stream lengths run past 64
requests, so long batches are held to the serial walk too.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the hypothesis package"
)
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import CacheConfig, SystemConfig
from repro.memory.hierarchy import MemoryHierarchy

LONG = 64  # lanes of a 512-bit byte gather, the longest batch a figure issues
MAX_ADDR = 32 * 1024

# --- address-stream strategies ---------------------------------------

base_addr = st.integers(min_value=0, max_value=MAX_ADDR - 512)

contiguous_run = st.builds(
    lambda start, step, n: list(range(start, start + step * n, step))[:n],
    base_addr,
    st.sampled_from([1, 2, 4, 8]),  # sub-line strides
    st.integers(min_value=1, max_value=40),
)

strided_run = st.builds(
    lambda start, stride, n: [max(0, start + i * stride) % MAX_ADDR for i in range(n)],
    base_addr,
    st.sampled_from([-256, -64, -24, 16, 32, 48, 64, 96, 192]),
    st.integers(min_value=2, max_value=30),
)

gather = st.lists(
    st.integers(min_value=0, max_value=MAX_ADDR - 1), min_size=1, max_size=24
)

duplicates = st.builds(
    lambda addr, n: [addr] * n, base_addr, st.integers(min_value=2, max_value=12)
)

segment = st.one_of(contiguous_run, strided_run, gather, duplicates)

stream = st.builds(
    lambda segs: [a for seg in segs for a in seg],
    st.lists(segment, min_size=1, max_size=8),
)

#: Sizes spanning byte loads, vector-lane gathers, and full/multi-line.
access_size = st.sampled_from([1, 4, 8, 32, 64, 72, 130])


def tiny_system(prefetch=True):
    """Small caches so eviction and LRU order are actually stressed."""
    return SystemConfig(
        l1d=CacheConfig(size_bytes=1024, ways=2, load_to_use=4, prefetcher=prefetch),
        l2=CacheConfig(size_bytes=8192, ways=4, load_to_use=37, prefetcher=prefetch),
    )


def serial_walk(mem, addrs, size, sid):
    return [mem.access(int(a), size, sid) for a in addrs]


@settings(max_examples=60, deadline=None)
@given(addrs=stream, size=access_size, prefetch=st.booleans())
def test_access_batch_matches_serial_walk(addrs, size, prefetch):
    serial = MemoryHierarchy(tiny_system(prefetch))
    batched = MemoryHierarchy(tiny_system(prefetch))
    want = serial_walk(serial, addrs, size, sid=3)
    got = batched.access_batch(np.asarray(addrs, dtype=np.int64), size, 3)
    assert got.tolist() == want
    assert batched.stats() == serial.stats()


@settings(max_examples=40, deadline=None)
@given(addrs=stream, size=access_size)
def test_access_batch_max_matches_serial_walk(addrs, size):
    serial = MemoryHierarchy(tiny_system())
    batched = MemoryHierarchy(tiny_system())
    want = serial_walk(serial, addrs, size, sid=1)
    got = batched.access_batch_max(addrs, size, 1)
    assert got == max(want)
    assert batched.stats() == serial.stats()


@settings(max_examples=30, deadline=None)
@given(
    chunks=st.lists(
        st.tuples(stream, access_size, st.integers(min_value=0, max_value=2)),
        min_size=2,
        max_size=5,
    )
)
def test_interleaved_batches_keep_state_in_lockstep(chunks):
    """State (LRU, prefetcher streams) must carry across batch calls of
    varying lengths — short and past 64 requests — exactly as it does
    across serial calls."""
    serial = MemoryHierarchy(tiny_system())
    batched = MemoryHierarchy(tiny_system())
    for addrs, size, sid in chunks:
        want = serial_walk(serial, addrs, size, sid)
        got = batched.access_batch(addrs, size, sid)
        assert got.tolist() == want
        assert batched.stats() == serial.stats()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=LONG - 3, max_value=4 * LONG),
    stride=st.sampled_from([4, 8, 64, 96]),
    start=base_addr,
)
def test_long_batch_lengths_are_identical(n, stride, start):
    """Batches around and well past 64 requests match the serial walk,
    and so does the batch that follows them."""
    addrs = [(start + i * stride) % MAX_ADDR for i in range(n)]
    serial = MemoryHierarchy(tiny_system())
    batched = MemoryHierarchy(tiny_system())
    want = serial_walk(serial, addrs, 8, sid=0)
    got = batched.access_batch(addrs, 8, 0)
    assert got.tolist() == want
    assert batched.stats() == serial.stats()
    # ...and the next batch still agrees.
    follow = [(start + i * 16) % MAX_ADDR for i in range(10)]
    assert batched.access_batch(follow, 4, 0).tolist() == serial_walk(
        serial, follow, 4, 0
    )
    assert batched.stats() == serial.stats()
