"""Properties of the vectorised QBUFFER datapath.

``QBuffer.read_vector`` and ``QuetzalUnit._rcount_raw`` serve a whole
vector of lanes in a fixed number of NumPy operations.  Each must equal
a per-lane loop over the scalar references (``read_element`` /
``read_window`` / ``count_matches_word_reverse``), charge the same port
occupancy, and reject a bad index before any state (the ``reads``
counters) moves -- NumPy would wrap a negative index silently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    QZ_1P,
    QZ_2P,
    QZ_8P,
    QZ_ESIZE_2BIT,
    QZ_ESIZE_8BIT,
    QZ_ESIZE_64BIT,
    SystemConfig,
)
from repro.errors import QuetzalError
from repro.quetzal.accelerator import QuetzalUnit
from repro.quetzal.count_alu import count_matches_word_reverse
from repro.quetzal.qbuffer import QBuffer
from repro.vector.machine import VectorMachine

ESIZE = {2: QZ_ESIZE_2BIT, 8: QZ_ESIZE_8BIT, 64: QZ_ESIZE_64BIT}
CAP = {bits: QZ_8P.capacity_elements(bits) for bits in ESIZE}
u64 = st.integers(0, (1 << 64) - 1)


def random_words(seed, n, edges):
    """Full-range 64-bit words, with drawn values at both ends."""
    words = np.random.default_rng(seed).integers(
        0, 1 << 64, n, dtype=np.uint64, endpoint=False
    )
    words[: len(edges)] = edges
    words[n - len(edges):] = edges[::-1]
    return words


@st.composite
def element_indices(draw, bits, max_size=64):
    """Unsorted, duplicated, word-aligned and unaligned indices, the
    first and last words included; possibly empty."""
    cap = CAP[bits]
    per_word = 64 // bits
    special = st.sampled_from(sorted({
        0, 1, per_word - 1, per_word, per_word + 1,
        cap - per_word - 1, cap - per_word, cap - 2, cap - 1,
    } & set(range(cap))))
    lane = st.one_of(st.integers(0, cap - 1), special)
    return np.asarray(
        draw(st.lists(lane, max_size=max_size)), dtype=np.int64
    )


def scalar_reads(q, indices, bits, windows):
    reader = q.read_window if windows else q.read_element
    return [reader(int(i), bits) for i in indices]


def configured_unit(bits, config=QZ_8P):
    qz = QuetzalUnit(VectorMachine(SystemConfig()), config)
    qz.qzconf(CAP[bits], CAP[bits], ESIZE[bits])
    return qz


@st.composite
def read_case(draw):
    bits = draw(st.sampled_from(sorted(ESIZE)))
    return (
        bits,
        draw(st.booleans()),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(u64, max_size=3)),
        draw(element_indices(bits)),
    )


class TestReadVector:
    @given(read_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_lane_scalar_reads(self, case):
        bits, windows, seed, edges, indices = case
        q = QBuffer(QZ_8P)
        q.words[:] = random_words(seed, q.n_words, edges)
        values, latency = q.read_vector(indices, bits, windows=windows)
        assert values.dtype == np.uint64
        assert values.tolist() == scalar_reads(q, indices, bits, windows)
        assert latency == -(-max(1, len(indices)) // QZ_8P.read_ports) + 1
        assert q.reads == 1

    @pytest.mark.parametrize("bits", (2, 8))
    def test_last_word_windows_read_zero_past_the_end(self, bits):
        q = QBuffer(QZ_8P)
        assert q.words.shape == (q.n_words,)
        q.words[:] = np.uint64((1 << 64) - 1)  # every addressable word
        last = np.arange(CAP[bits] - 64 // bits, CAP[bits], dtype=np.int64)
        values, _ = q.read_vector(last, bits, windows=True)
        assert values.tolist() == scalar_reads(q, last, bits, True)
        assert values[-1] == (1 << bits) - 1  # one element left, zeros above


class TestReadRawOccupancy:
    @given(
        st.sampled_from(sorted(ESIZE)).flatmap(
            lambda bits: st.tuples(st.just(bits), element_indices(bits))
        ),
        st.booleans(),
        st.sampled_from((QZ_1P, QZ_2P, QZ_8P)),
    )
    @settings(max_examples=120, deadline=None)
    def test_port_requests_are_distinct_words(self, case, windows, config):
        bits, indices = case
        qz = configured_unit(bits, config)
        qz.qbuf[1].words[:] = random_words(len(indices), qz.qbuf[1].n_words, [])
        raw, occupancy = qz._read_raw(indices, 1, windows)
        if windows or bits == 64:
            requests = len(indices)
        else:
            per_word = 64 // bits
            requests = len(np.unique(indices // per_word)) if len(indices) else 0
        assert occupancy == -(-max(1, requests) // config.read_ports)
        assert raw.tolist() == scalar_reads(qz.qbuf[1], indices, bits, windows)
        assert (qz.qbuf[0].reads, qz.qbuf[1].reads) == (0, 1)


@st.composite
def rcount_case(draw):
    bits = draw(st.sampled_from(sorted(ESIZE)))
    per_word = 64 // bits
    i0 = draw(element_indices(bits, max_size=16))
    # Small indices exercise the backed-off windows (rel < 64/bits - 1).
    n_small = draw(st.integers(0, len(i0)))
    i0[:n_small] = draw(st.lists(
        st.integers(0, per_word + 1), min_size=n_small, max_size=n_small
    ))
    shift = np.asarray(
        draw(st.lists(st.integers(-3, 3), min_size=len(i0), max_size=len(i0))),
        dtype=np.int64,
    )
    i1 = np.clip(i0 + shift, 0, CAP[bits] - 1)
    active = np.asarray(
        draw(st.lists(st.booleans(), min_size=len(i0), max_size=len(i0))),
        dtype=bool,
    )
    return bits, draw(st.integers(0, 2**32 - 1)), i0, i1, active


class TestReverseCount:
    @given(rcount_case(), st.floats(0.0, 0.2))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_lane_reference(self, case, flip_rate):
        bits, seed, i0, i1, active = case
        qz = configured_unit(bits)
        rng = np.random.default_rng(seed)
        words = random_words(seed, qz.qbuf[0].n_words, [])
        # Mostly-equal buffers, so runs of matches are long enough to
        # cross window elements.
        flips = np.where(
            rng.random(words.size) < flip_rate,
            np.uint64(1) << rng.integers(0, 64, words.size).astype(np.uint64),
            np.uint64(0),
        )
        qz.qbuf[0].words[:] = words
        qz.qbuf[1].words[:] = words ^ flips
        result, occupancy = qz._rcount_raw(i0, i1, active)
        per_word = 64 // bits
        expected = [0] * len(i0)
        for lane in np.flatnonzero(active):
            a, b = int(i0[lane]), int(i1[lane])
            rel = min(a - max(0, a - (per_word - 1)), b - max(0, b - (per_word - 1)))
            expected[lane] = count_matches_word_reverse(
                qz.qbuf[0].read_window(a - rel, bits),
                qz.qbuf[1].read_window(b - rel, bits),
                bits, rel,
            )
        assert result.dtype == np.int64
        assert result.tolist() == expected
        assert occupancy == -(-max(1, int(active.sum())) // QZ_8P.read_ports)

    def test_equal_buffers_count_down_to_element_zero(self):
        qz = configured_unit(2)
        qz.qbuf[0].words[:] = qz.qbuf[1].words[:] = np.uint64(0x1234)
        idx = np.array([0, 5, 31, 40, 1000], dtype=np.int64)
        result, _ = qz._rcount_raw(idx, idx, np.ones(5, dtype=bool))
        assert result.tolist() == [1, 6, 32, 32, 32]


class TestBoundsBeforeState:
    @pytest.mark.parametrize("bits", sorted(ESIZE))
    @pytest.mark.parametrize("bad", (-1, "cap"))
    def test_read_vector_rejects_without_counting(self, bits, bad):
        q = QBuffer(QZ_8P)
        bad = CAP[bits] if bad == "cap" else bad
        with pytest.raises(QuetzalError):
            q.read_vector(np.array([3, bad, 0]), bits)
        assert q.reads == 0

    @pytest.mark.parametrize("bits", sorted(ESIZE))
    @pytest.mark.parametrize("bad", (-1, -64, "eb"))
    @pytest.mark.parametrize("windows", (False, True))
    def test_read_raw_rejects_without_counting(self, bits, bad, windows):
        qz = QuetzalUnit(VectorMachine(SystemConfig()), QZ_8P)
        qz.qzconf(100, 100, ESIZE[bits])
        bad = 100 if bad == "eb" else bad
        with pytest.raises(QuetzalError):
            qz._read_raw(np.array([bad, 1]), 0, windows)
        assert qz.reads == 0

    @pytest.mark.parametrize("sel", (0, 1))
    @pytest.mark.parametrize("bad", (-1, 100))
    def test_rcount_rejects_without_counting(self, sel, bad):
        qz = QuetzalUnit(VectorMachine(SystemConfig()), QZ_8P)
        qz.qzconf(100, 100, QZ_ESIZE_2BIT)
        idx = [np.array([4, 7]), np.array([4, 7])]
        idx[sel][1] = bad
        with pytest.raises(QuetzalError):
            qz._rcount_raw(idx[0], idx[1], np.ones(2, dtype=bool))
        assert qz.reads == 0
        # A bad index on a masked-off lane is never requested.
        qz._rcount_raw(idx[0], idx[1], np.array([True, False]))
        assert qz.reads == 2


class TestNumpyShiftSemantics:
    """The splice shifts an aligned lane's next word left by 64 and
    relies on NumPy defining that as 0 (C leaves it undefined)."""

    @given(u64)
    def test_uint64_shift_by_word_width_is_zero(self, x):
        words = np.array([x, x], dtype=np.uint64)
        counts = np.array([64, 0], dtype=np.uint64)
        assert (words << counts).tolist() == [0, x]
        assert (words >> counts).tolist() == [0, x]
