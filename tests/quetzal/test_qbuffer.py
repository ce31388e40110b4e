"""Tests for the QBUFFER scratchpad model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import QZ_1P, QZ_2P, QZ_8P, QuetzalConfig
from repro.errors import QuetzalError
from repro.genomics.encoding import encode_2bit, pack_words
from repro.quetzal.qbuffer import QBuffer


class TestGeometry:
    def test_capacity(self):
        q = QBuffer(QZ_8P)
        assert q.capacity_elements(2) == 8 * 1024 * 4
        assert q.capacity_elements(8) == 8 * 1024
        assert q.capacity_elements(64) == 1024

    def test_bank_interleaving(self):
        q = QBuffer(QZ_8P)
        assert [q.bank_of(i) for i in range(10)] == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_port_validation(self):
        with pytest.raises(Exception):
            QuetzalConfig(read_ports=9)


class TestWrites:
    def test_encoded_write_single_cycle(self):
        q = QBuffer(QZ_8P)
        cycles = q.write_encoded_at(0, np.array([1, 2], dtype=np.uint64))
        assert cycles == 1
        assert q.words[0] == 1 and q.words[1] == 2

    def test_encoded_write_lands_at_its_word(self):
        q = QBuffer(QZ_8P)
        q.write_encoded_at(3, np.array([9], dtype=np.uint64))
        assert q.words[3] == 9
        assert q.words[2] == 0 and q.words[4] == 0

    def test_encoded_write_out_of_range(self):
        q = QBuffer(QZ_8P)
        with pytest.raises(QuetzalError):
            q.write_encoded_at(q.n_words - 1, np.array([1, 2], dtype=np.uint64))

    def test_word_write_parallel_banks(self):
        q = QBuffer(QZ_8P)
        cycles = q.write_words(0, np.arange(8, dtype=np.uint64))
        assert cycles == 1  # 8 words across 8 banks

    def test_word_write_two_rounds(self):
        q = QBuffer(QZ_8P)
        assert q.write_words(0, np.arange(9, dtype=np.uint64)) == 2

    def test_direct_write_conflict_free(self):
        q = QBuffer(QZ_8P)
        idx = np.arange(8) * 1  # consecutive words -> distinct banks
        cycles = q.write_elements(idx, np.arange(8), 64)
        assert cycles == 1

    def test_direct_write_full_conflict(self):
        q = QBuffer(QZ_8P)
        idx = np.arange(8) * 8  # all land in bank 0
        cycles = q.write_elements(idx, np.arange(8), 64)
        assert cycles == 8

    def test_direct_write_subword(self):
        q = QBuffer(QZ_8P)
        q.write_elements(np.array([0, 1, 35]), np.array([1, 2, 3]), 2)
        assert q.read_element(0, 2) == 1
        assert q.read_element(1, 2) == 2
        assert q.read_element(35, 2) == 3
        assert q.read_element(2, 2) == 0

    def test_direct_write_preserves_neighbours(self):
        q = QBuffer(QZ_8P)
        q.write_elements(np.arange(4), np.array([3, 3, 3, 3]), 2)
        q.write_elements(np.array([1]), np.array([0]), 2)
        assert [q.read_element(i, 2) for i in range(4)] == [3, 0, 3, 3]

    def test_value_too_wide(self):
        q = QBuffer(QZ_8P)
        with pytest.raises(QuetzalError):
            q.write_elements(np.array([0]), np.array([4]), 2)

    def test_shape_mismatch(self):
        q = QBuffer(QZ_8P)
        with pytest.raises(QuetzalError):
            q.write_elements(np.array([0, 1]), np.array([1]), 2)

    def test_element_out_of_capacity(self):
        q = QBuffer(QZ_8P)
        with pytest.raises(QuetzalError):
            q.write_elements(np.array([q.capacity_elements(2)]), np.array([0]), 2)


class TestReads:
    def _loaded(self, text="ACGTACGTACGTACGT" * 8):
        q = QBuffer(QZ_8P)
        words = pack_words(encode_2bit(text), 2)
        q.write_words(0, words)
        return q, text

    def test_read_element_2bit(self):
        q, text = self._loaded()
        codes = encode_2bit(text)
        for i in (0, 1, 31, 32, 33, 100):
            assert q.read_element(i, 2) == codes[i]

    def test_read_window_aligned(self):
        q, text = self._loaded()
        assert q.read_window(0, 2) == int(q.words[0])

    def test_read_window_unaligned_splices_two_banks(self):
        q, text = self._loaded()
        codes = encode_2bit(text)
        window = q.read_window(30, 2)
        # First element of the window is element 30.
        assert window & 0b11 == codes[30]
        # Element 5 of the window is element 35 (crossed into word 1).
        assert (window >> 10) & 0b11 == codes[35]

    def test_read_window_at_last_word_pads_zero(self):
        q = QBuffer(QZ_8P)
        q.words[-1] = (1 << 64) - 1
        window = q.read_window((q.n_words - 1) * 32 + 1, 2)
        assert window >> 62 == 0  # spliced high part beyond capacity is 0

    def test_read_vector_values_and_latency(self):
        q, text = self._loaded()
        codes = encode_2bit(text)
        idx = np.array([0, 5, 64, 99])
        vals, lat = q.read_vector(idx, 2)
        assert vals.tolist() == [int(codes[i]) for i in idx]
        assert lat == -(-4 // 8) + 1  # 4 requests, 8 ports -> 2 cycles

    def test_read_latency_port_formula(self):
        for cfg, expect in ((QZ_1P, 9), (QZ_2P, 5), (QZ_8P, 2)):
            q = QBuffer(cfg)
            _, lat = q.read_vector(np.zeros(8, dtype=np.int64), 64)
            assert lat == expect

    def test_read_element_64bit(self):
        q = QBuffer(QZ_8P)
        q.write_words(0, np.array([11, 22], dtype=np.uint64))
        assert q.read_element(1, 64) == 22

    def test_read_out_of_capacity(self):
        q = QBuffer(QZ_8P)
        with pytest.raises(QuetzalError):
            q.read_element(q.capacity_elements(64), 64)

    def test_clear(self):
        q = QBuffer(QZ_8P)
        q.write_words(0, np.array([5], dtype=np.uint64))
        q.clear()
        assert q.words.sum() == 0

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_window_matches_packing_property(self, codes, data):
        q = QBuffer(QZ_8P)
        arr = np.asarray(codes, dtype=np.uint64)
        q.write_words(0, pack_words(arr, 2))
        i = data.draw(st.integers(0, len(codes) - 1))
        window = q.read_window(i, 2)
        for j in range(min(32, len(codes) - i)):
            assert (window >> (2 * j)) & 0b11 == codes[i + j]
