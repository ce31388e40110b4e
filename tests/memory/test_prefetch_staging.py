"""Regression tests for the unified prefetch-staging helper.

``MemoryHierarchy._prefetch_rels`` is the single inline of the stride
prefetcher's emission rules used by the demand walks; it replaced
three copy-pasted staging blocks that had drifted apart (one copy's
``exclude`` comment no longer matched its code).  These tests pin the
contract: byte-for-byte the same targets, the same ``issued`` counts,
and the same fills as the serial ``StridePrefetcher.observe`` path, for
the cases the copies disagreed on historically — negative strides,
near-zero addresses (the sign check), sub-line strides landing back in
the demand window (the exclusion), and the in-order dedup.
"""

import pytest

from repro.config import CacheConfig, SystemConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import StridePrefetcher


def tiny_system():
    return SystemConfig(
        l1d=CacheConfig(size_bytes=1024, ways=2, load_to_use=4),
        l2=CacheConfig(size_bytes=8192, ways=4, load_to_use=37),
    )


def observe_targets(addr, stride, lo, hi, degree=2, line=64):
    """Reference emission: StridePrefetcher.observe on an armed entry."""
    pf = StridePrefetcher(line_bytes=line, degree=degree)
    pf.observe(9, addr - 2 * stride)
    pf.observe(9, addr - stride)  # arms: two equal strides
    return pf.observe(9, addr, exclude=(lo, hi))


@pytest.mark.parametrize(
    "addr,stride,size",
    [
        (1000, 8, 8),  # sub-line: targets land in the demand window
        (1000, 8, 1),
        (4096, 64, 8),  # line stride: one target per degree step
        (100, -8, 8),  # negative stride toward zero
        (10, -8, 8),  # negative stride crossing zero: sign check
        (1, -1, 1),
        (0, 96, 130),  # line-straddling demand window
        (200, 48, 72),
        (65, 32, 64),  # dedup: both degree steps hit the same line
    ],
)
def test_rels_match_observe_emission(addr, stride, size):
    mem = MemoryHierarchy(tiny_system())
    line = mem.system.l1d.line_bytes
    lo = addr & ~(line - 1)
    hi = (addr + size - 1) & ~(line - 1)
    want = observe_targets(addr, stride, lo, hi, degree=mem._l1_degree, line=line)
    rels = mem._prefetch_rels(addr, lo, hi, stride)
    assert [lo + r for r in rels] == want
    # The helper's return length is the serial `issued` increment.
    assert len(rels) == len(want)


def test_rel_cache_never_leaks_across_spans():
    """The memo key includes the demand span: an 8-byte and a 130-byte
    access at the same line offset and stride must not share targets
    (the wider window excludes more)."""
    mem = MemoryHierarchy(tiny_system())
    line = mem.system.l1d.line_bytes
    addr, stride = 1000, 40
    lo = addr & ~(line - 1)
    rels_narrow = mem._prefetch_rels(addr, lo, (addr + 7) & ~(line - 1), stride)
    rels_wide = mem._prefetch_rels(addr, lo, (addr + 129) & ~(line - 1), stride)
    assert rels_narrow != rels_wide  # the wide window swallows a target
    # Same geometry again must come from the cache, still correct.
    assert mem._prefetch_rels(addr, lo, (addr + 7) & ~(line - 1), stride) == rels_narrow


def test_negative_and_zero_strides_never_cached():
    """Sign decisions depend on the absolute address, so only positive
    strides from non-negative addresses may be memoized."""
    mem = MemoryHierarchy(tiny_system())
    before = len(mem._pf_rel_cache)
    mem._prefetch_rels(100, 64, 64, -8)
    mem._prefetch_rels(100, 64, 64, 0)
    assert len(mem._pf_rel_cache) == before
    mem._prefetch_rels(100, 64, 64, 8)
    assert len(mem._pf_rel_cache) == before + 1


@pytest.mark.parametrize("stride", [-96, -8, 1, 8, 40, 64, 96])
def test_batch_and_serial_stage_identical_fills(stride):
    """End to end: a confident strided batch must leave the same cache
    residency, prefetch flags, stats and issued counts as the serial
    walk that trains and stages through `observe` (all three historic
    call sites route through the helper now)."""
    system = tiny_system()
    serial = MemoryHierarchy(system)
    batched = MemoryHierarchy(system)
    addrs = [max(0, 3000 + i * stride) for i in range(24)]
    want = [serial.access(a, 8, 5) for a in addrs]
    got = batched.access_batch(addrs, 8, 5)
    assert got.tolist() == want
    assert batched.stats() == serial.stats()
    assert batched._l1_prefetcher.issued == serial._l1_prefetcher.issued
    assert sorted(batched.l1._slot_of) == sorted(serial.l1._slot_of)
    assert bytes(batched.l1._pf) == bytes(serial.l1._pf)
