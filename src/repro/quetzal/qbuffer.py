"""The QBUFFER (Section IV-B, Figs. 9c/10).

A QBUFFER is a direct-mapped scratchpad built from eight single-ported
64-bit SRAM banks (one per VPU lane), with read-port replication for
bandwidth.  Software addresses it with *element indices*, not memory
addresses; elements may be 2, 8 or 64 bits wide and reads may therefore be
unaligned with respect to the SRAM word, which the read logic resolves by
fetching two consecutive banks and slicing (Fig. 10).

The functional model stores packed 64-bit words exactly as the SRAM would;
all sub-word arithmetic mirrors the hardware datapath.  Timing follows the
paper's formula: a vector of ``r`` concurrent read requests completes in
``ceil(r / read_ports) + 1`` cycles (the +1 is the slicing stage); a
direct-mode write takes as many cycles as the worst per-bank conflict.
"""

from __future__ import annotations

import numpy as np

from repro.config import QuetzalConfig
from repro.errors import QuetzalError

_MASK = {bits: np.uint64((1 << bits) - 1) for bits in (2, 8)}
#: Bit offset of every element of a word, for unpacking a run.
_SHIFTS = {
    bits: np.arange(64 // bits, dtype=np.uint64) * np.uint64(bits)
    for bits in (2, 8)
}
_WORD_BITS = np.uint64(64)


class QBuffer:
    """One scratchpad buffer (the accelerator has a pair)."""

    def __init__(self, config: QuetzalConfig, name: str = "qbuf") -> None:
        self.config = config
        self.name = name
        self.n_words = config.qbuffer_bytes // 8
        # One zero word past the end: a window starting in the last word
        # splices its high part from it, as the hardware reads zero there.
        self._padded = np.zeros(self.n_words + 1, dtype=np.uint64)
        self.words = self._padded[: self.n_words]
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def capacity_elements(self, element_bits: int) -> int:
        return self.config.capacity_elements(element_bits)

    def bank_of(self, word_index: int) -> int:
        """Bank holding a word (banks are word-interleaved)."""
        return word_index % self.config.num_banks

    def _check_word(self, word_index: int) -> None:
        if not 0 <= word_index < self.n_words:
            raise QuetzalError(
                f"{self.name}: word index {word_index} out of range "
                f"(capacity {self.n_words} words)"
            )

    def _check_elements(self, indices: np.ndarray, element_bits: int) -> None:
        if indices.size == 0:
            return
        lanes = indices.tolist()  # vector-sized: cheaper than two reductions
        self._check_span(min(lanes), max(lanes), element_bits)

    def _check_span(self, lo: int, hi: int, element_bits: int) -> None:
        cap = self.capacity_elements(element_bits)
        if lo < 0 or hi >= cap:
            raise QuetzalError(
                f"{self.name}: element index [{lo}, {hi}] out of range "
                f"(capacity {cap} x {element_bits}-bit)"
            )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_encoded_at(self, word_index: int, words: np.ndarray) -> int:
        """Encoded-mode write of at most two words (one 128-bit encoder
        output) starting at SRAM word ``word_index``.  Single cycle.
        """
        words = np.asarray(words, dtype=np.uint64)
        if words.size > 2:
            raise QuetzalError("encoded-mode write takes at most two words")
        self._check_word(word_index + words.size - 1)
        self.words[word_index : word_index + words.size] = words
        self.writes += 1
        return 1

    def write_words(self, word_index: int, words: np.ndarray) -> int:
        """Consecutive whole-word write (8-bit/64-bit sequence staging).

        Consecutive words hit distinct banks, so up to ``num_banks`` words
        land in one cycle.
        """
        words = np.asarray(words, dtype=np.uint64)
        self._check_word(word_index + len(words) - 1)
        self.words[word_index : word_index + len(words)] = words
        self.writes += 1
        return -(-len(words) // self.config.num_banks)

    def write_elements(
        self, indices: np.ndarray, values: np.ndarray, element_bits: int
    ) -> int:
        """Direct-mode write at element granularity (``qzstore``).

        Returns the cycle count: the worst number of requests landing on a
        single bank (conflicting writes serialise).
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint64)
        if indices.shape != values.shape:
            raise QuetzalError("qzstore index/value shape mismatch")
        self._check_elements(indices, element_bits)
        per_word = 64 // element_bits
        banks_touched = []
        for idx, val in zip(indices.tolist(), values.tolist()):
            word = idx // per_word
            banks_touched.append(self.bank_of(word))
            if element_bits == 64:
                self.words[word] = np.uint64(val)
            else:
                off = np.uint64((idx % per_word) * element_bits)
                mask = _MASK[element_bits]
                if val > int(mask):
                    raise QuetzalError(
                        f"value {val} too wide for {element_bits}-bit element"
                    )
                keep = ~(mask << off)
                self.words[word] = (self.words[word] & keep) | (
                    np.uint64(val) << off
                )
        self.writes += 1
        if not banks_touched:
            return 1
        worst = max(banks_touched.count(b) for b in set(banks_touched))
        return worst

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _window_bits(self, bit_pos: int) -> int:
        """64-bit window starting at ``bit_pos``, spliced from two banks."""
        word = bit_pos // 64
        off = bit_pos % 64
        self._check_word(word)
        low = int(self.words[word])
        if off == 0:
            return low
        high = int(self.words[word + 1]) if word + 1 < self.n_words else 0
        return ((low >> off) | (high << (64 - off))) & ((1 << 64) - 1)

    def read_element(self, index: int, element_bits: int) -> int:
        """One element value (the slicing path of Fig. 10)."""
        self._check_elements(np.asarray([index]), element_bits)
        if element_bits == 64:
            return int(self.words[index])
        window = self._window_bits(index * element_bits)
        return window & ((1 << element_bits) - 1)

    def read_window(self, index: int, element_bits: int) -> int:
        """The full 64-bit window starting at element ``index``.

        This feeds the count ALU: up to ``64 / element_bits`` elements
        starting at the requested one, in packed order.
        """
        self._check_elements(np.asarray([index]), element_bits)
        if element_bits == 64:
            return int(self.words[index])
        return self._window_bits(index * element_bits)

    def read_vector(
        self, indices: np.ndarray, element_bits: int, windows: bool = False
    ) -> tuple[np.ndarray, int]:
        """Vector read; returns (values, latency_cycles).

        ``windows=True`` returns full 64-bit windows (count-ALU feed),
        otherwise single element values.  Latency follows Section IV-C:
        ``ceil(requests / read_ports) + 1``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        # Bounds first: NumPy would wrap a negative index silently.
        self._check_elements(indices, element_bits)
        if element_bits == 64:
            values = self.words[indices]
        else:
            # The Fig. 10 splice for every lane at once: the word holding
            # the element supplies the low bits, the next word (the zero
            # pad past the end) the high ones.  An aligned lane shifts the
            # next word by 64, which NumPy defines as 0.
            bit = indices * element_bits
            off = (bit & 63).astype(np.uint64)
            word = bit >> 6
            values = (self._padded[word] >> off) | (
                self._padded[word + 1] << (_WORD_BITS - off)
            )
            if not windows:
                values &= _MASK[element_bits]
        self.reads += 1
        requests = max(1, len(indices))
        latency = -(-requests // self.config.read_ports) + 1
        return values, latency

    def read_run(
        self, start: int, count: int, element_bits: int, windows: bool = False
    ) -> np.ndarray:
        """:meth:`read_vector`'s values for the contiguous run of elements
        ``start .. start+count-1`` (``count >= 0``).

        The bounds check is two integer comparisons.  Windows take the
        same Fig. 10 splice over the run; a single 2- or 8-bit element
        never straddles a word, so element values unpack the run's words
        directly.  Counts one read, like :meth:`read_vector`.
        """
        end = start + count
        if count:
            self._check_span(start, end - 1, element_bits)
        if element_bits == 64:
            values = self.words[start:end].copy()
        elif windows:
            bit = np.arange(start * element_bits, end * element_bits, element_bits)
            off = (bit & 63).astype(np.uint64)
            word = bit >> 6
            values = (self._padded[word] >> off) | (
                self._padded[word + 1] << (_WORD_BITS - off)
            )
        else:
            per_word = 64 // element_bits
            first = start // per_word
            words = self.words[first : (end - 1) // per_word + 1, None]
            lo = start - first * per_word
            values = ((words >> _SHIFTS[element_bits]) & _MASK[element_bits]).ravel()[
                lo : lo + count
            ]
        self.reads += 1
        return values

    def clear(self) -> None:
        self.words[:] = 0
