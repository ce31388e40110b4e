"""Tests for the hardware bit-encoding reference (paper Fig. 9)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.genomics.alphabet import PROTEIN
from repro.genomics.encoding import (
    decode_2bit,
    encode_2bit,
    encode_8bit,
    pack_2bit_words,
    pack_8bit_words,
    pack_words,
    unpack_2bit_words,
    unpack_8bit_words,
)

dna_text = st.text(alphabet="ACGT", min_size=0, max_size=300)


class TestTwoBitEncoding:
    def test_bit_extraction_table(self):
        """A=00, C=01, T=10, G=11 per the ASCII bits-1..2 rule."""
        np.testing.assert_array_equal(encode_2bit("ACTG"), [0, 1, 2, 3])

    def test_u_maps_like_t(self):
        assert encode_2bit("U")[0] == encode_2bit("T")[0]

    def test_decode_round_trip_dna(self):
        text = "ACGTTGCAACGT"
        assert decode_2bit(encode_2bit(text)) == text

    def test_decode_round_trip_rna(self):
        text = "ACGUUGCA"
        assert decode_2bit(encode_2bit(text), rna=True) == text

    def test_decode_rejects_wide_codes(self):
        with pytest.raises(EncodingError):
            decode_2bit(np.array([4]))

    @given(dna_text)
    def test_round_trip_property(self, text):
        assert decode_2bit(encode_2bit(text)) == text


class TestPacking:
    def test_pack_2bit_layout(self):
        # Element i occupies bits [2i, 2i+2) little-endian.
        codes = np.array([1, 2, 3, 0], dtype=np.uint8)
        word = pack_2bit_words(codes)[0]
        assert word == (1 | (2 << 2) | (3 << 4))

    def test_pack_32_codes_per_word(self):
        codes = np.arange(33) % 4
        words = pack_2bit_words(codes)
        assert len(words) == 2

    def test_pack_8bit_layout(self):
        vals = np.array([0xAB, 0xCD], dtype=np.uint64)
        word = pack_8bit_words(vals)[0]
        assert word == (0xAB | (0xCD << 8))

    def test_unpack_inverse_2bit(self):
        codes = (np.arange(77) * 3) % 4
        words = pack_2bit_words(codes)
        np.testing.assert_array_equal(unpack_2bit_words(words, 77), codes)

    def test_unpack_inverse_8bit(self):
        vals = (np.arange(23) * 11) % 256
        words = pack_8bit_words(vals)
        np.testing.assert_array_equal(unpack_8bit_words(words, 23), vals)

    def test_pack_64bit_is_copy(self):
        vals = np.array([5, 7], dtype=np.uint64)
        np.testing.assert_array_equal(pack_words(vals, 64), vals)

    def test_unpack_too_many_raises(self):
        with pytest.raises(EncodingError):
            unpack_2bit_words(np.zeros(1, dtype=np.uint64), 33)

    def test_pack_rejects_wide_values(self):
        with pytest.raises(EncodingError):
            pack_words(np.array([4]), 2)

    def test_pack_rejects_odd_width(self):
        with pytest.raises(EncodingError):
            pack_words(np.array([1]), 3)

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=200))
    def test_pack_unpack_property(self, codes):
        arr = np.asarray(codes, dtype=np.uint64)
        words = pack_2bit_words(arr)
        np.testing.assert_array_equal(unpack_2bit_words(words, len(codes)), arr)


class TestEightBit:
    def test_protein_codes(self):
        codes = encode_8bit("ACDE", PROTEIN)
        assert codes.tolist() == [0, 1, 2, 3]

    def test_array_passthrough(self):
        arr = np.array([9, 8], dtype=np.uint8)
        np.testing.assert_array_equal(encode_8bit(arr, PROTEIN), arr)
