"""The QUETZAL unit: the seven qz* instructions wired into a VectorMachine.

Instruction semantics follow Section III-A; timing follows Section IV:

* QBUFFER vector reads complete in ``ceil(requests / read_ports) + 1``
  cycles (2 cycles for the QZ_8P design point) — replacing the >=19-cycle
  gather path;
* ``qzmhm<qzcount>`` adds one count-ALU stage on top of the read;
* direct-mode writes serialise on per-bank conflicts;
* encoded-mode writes (``qzencode``) take a single cycle.

Sequence data past the configured length reads as zero in both buffers, so
a count can run past the end of a sequence; software clamps counts with
vector ``min`` against the remaining length, exactly as the paper's
QUETZAL-based pseudo-code does (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from repro.config import (
    QZ_ESIZE_2BIT,
    QZ_ESIZE_8BIT,
    QZ_ESIZE_64BIT,
    QuetzalConfig,
    DEFAULT_QUETZAL,
)
from repro.errors import QuetzalError
from repro.genomics.sequence import Sequence
from repro.quetzal.access_control import AccessControl
from repro.quetzal.count_alu import count_matches_vector
from repro.quetzal.encoder import DataEncoder
from repro.quetzal.qbuffer import QBuffer
from repro.vector.machine import VectorMachine, _BINOPS, _CMPOPS
from repro.vector.register import Pred, VReg

#: Element width -> (element positions, their bit offsets, element mask)
#: of a 64-bit window, for the reverse count's lane x element scan.
_ELEMENT_SCAN = {
    bits: (
        np.arange(64 // bits),
        np.arange(64 // bits, dtype=np.uint64) * np.uint64(bits),
        np.uint64((1 << bits) - 1),
    )
    for bits in (2, 8, 64)
}


class QuetzalUnit:
    """One QUETZAL instance attached to one simulated core."""

    def __init__(
        self, machine: VectorMachine, config: QuetzalConfig | None = None
    ) -> None:
        self.machine = machine
        self.config = config or DEFAULT_QUETZAL
        self.encoder = DataEncoder(machine.system.vlen_bits)
        self.qbuf = (
            QBuffer(self.config, name="qbuf0"),
            QBuffer(self.config, name="qbuf1"),
        )
        self.ctrl = AccessControl()
        machine.quetzal = self

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        return self.qbuf[0].reads + self.qbuf[1].reads

    @property
    def writes(self) -> int:
        return self.qbuf[0].writes + self.qbuf[1].writes

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def qzconf(self, eb0: int, eb1: int, esize_code: int) -> None:
        """Configure element counts and element size (Section III-A)."""
        for sel in (0, 1):
            cap = self.qbuf[sel].capacity_elements(
                {QZ_ESIZE_2BIT: 2, QZ_ESIZE_8BIT: 8, QZ_ESIZE_64BIT: 64}[esize_code]
            )
            count = (eb0, eb1)[sel]
            if count > cap:
                raise QuetzalError(
                    f"qzconf: {count} elements exceed QBUFFER {sel} capacity {cap}"
                )
        self.ctrl.configure(eb0, eb1, esize_code)
        self.machine._issue("qbuffer", 1, 1)

    @property
    def element_bits(self) -> int:
        return self.ctrl.element_bits

    # ------------------------------------------------------------------
    # Writing data in
    # ------------------------------------------------------------------
    def qzencode(self, sel: int, val: VReg, group_index: int) -> None:
        """Encode a character vector and store 128 encoded bits (2-bit mode)."""
        self.ctrl.check_select(sel)
        words = self.encoder.encode_2bit(val.data.astype(np.uint64))
        cycles = self.qbuf[sel].write_encoded(group_index, words)
        self.machine._issue("qbuffer", cycles, 1, deps=(val,))

    def qzstore(self, val: VReg, idx: VReg, sel: int, pred: Pred | None = None) -> None:
        """Direct-mode indexed store into a QBUFFER."""
        self.ctrl.check_select(sel)
        active = pred.data if pred is not None else np.ones(len(idx.data), dtype=bool)
        indices = idx.data[active]
        values = val.data[active].astype(np.uint64)
        cycles = self.qbuf[sel].write_elements(indices, values, self.element_bits)
        self.machine._issue("qbuffer", cycles, 1, deps=(val, idx, pred))

    def load_sequence(self, sel: int, seq: Sequence, stream_id: int | None = None) -> None:
        """Stage a whole sequence into a QBUFFER (counted, per Section V-B).

        Issues one unit-stride load of ``lanes(8)`` characters per group,
        then qzencode writes (2-bit alphabets) or one word-group write
        (8-bit alphabets).  A group lands at the word of its first
        character; a 2-bit group longer than one 128-bit encoder output
        (vectors over 512 bits) takes one encoder write per two words.
        The paper's reported QUETZAL times include exactly this staging
        cost.
        """
        self.ctrl.check_select(sel)
        ebits = seq.alphabet.encoded_bits
        cap = self.qbuf[sel].capacity_elements(ebits)
        if len(seq) > cap:
            raise QuetzalError(
                f"sequence of {len(seq)} symbols exceeds QBUFFER capacity {cap}"
            )
        chunk = self.encoder.chars_per_vector
        if ebits == 2 and chunk % 32:
            # Encoder writes are whole words: a group that is not a whole
            # number of 32-code words would splice into its neighbour's.
            raise QuetzalError(
                f"2-bit staging needs whole 64-bit words per vector: a "
                f"{self.encoder.vlen_bits}-bit vector encodes {chunk} "
                f"characters (use a multiple of 256 bits)"
            )
        m = self.machine
        qbuf = self.qbuf[sel]
        name = f"seq:{sel}:{m.name_uid('seq')}"
        src = m.new_buffer(name, seq.hw_codes if ebits == 8 else
                           np.frombuffer(str(seq).encode("ascii"), dtype=np.uint8),
                           elem_bytes=1)
        for start in range(0, len(seq), chunk):
            vec = m.load(src, start, ebits=8, stream_id=stream_id)
            n = min(chunk, len(seq) - start)
            if ebits == 2:
                words = self.encoder.encode_2bit(vec.data[:n].astype(np.uint64))
                first = start // 32
                cycles = 0
                for k in range(0, len(words), 2):
                    cycles += qbuf.write_encoded_at(first + k, words[k : k + 2])
            else:
                words = self.encoder.encode_8bit(vec.data[:n].astype(np.uint64))
                cycles = qbuf.write_words(start // 8, words)
            m._issue("qbuffer", cycles, 1, deps=(vec,))

    def load_values(self, sel: int, values: np.ndarray) -> None:
        """Stage 64-bit values (histogram tables, SpMV x segments)."""
        values = np.asarray(values, dtype=np.uint64)
        if values.size > self.qbuf[sel].capacity_elements(64):
            raise QuetzalError("values exceed QBUFFER 64-bit capacity")
        lanes = self.machine.system.num_lanes_64
        for start in range(0, values.size, lanes):
            group = values[start : start + lanes]
            cycles = self.qbuf[sel].write_words(start, group)
            self.machine._issue("qbuffer", cycles, 1)

    # ------------------------------------------------------------------
    # Reading / computing
    # ------------------------------------------------------------------
    def _read_raw(
        self, indices: np.ndarray, sel: int, windows: bool
    ) -> tuple[np.ndarray, int]:
        """Functional QBUFFER read + port occupancy for already-masked
        lane indices (shared by :meth:`_read` and the replay engine).

        Port conflicts are a structural hazard: ``r`` concurrent requests
        occupy the read ports for ``ceil(r / read_ports)`` cycles; the
        +1 slicing stage is completion latency charged by the caller.
        """
        self.ctrl.check_indices(indices, sel)
        raw, _latency = self.qbuf[sel].read_vector(
            indices, self.element_bits, windows=windows
        )
        # The access control coalesces element requests that land in the
        # same SRAM word (sub-word lanes share one port read); window
        # requests occupy a port each (they splice two banks, Fig. 10).
        if windows or self.element_bits == 64:
            requests = len(indices)
        else:
            per_word = 64 // self.element_bits
            requests = len(set((indices // per_word).tolist()))
        occupancy = -(-max(1, requests) // self.config.read_ports)
        return raw, occupancy

    def _read_run(
        self, start: int, count: int, sel: int, windows: bool
    ) -> tuple[np.ndarray, int]:
        """:meth:`_read_raw` of the contiguous lane indices ``start ..
        start+count-1`` (``count >= 0``): the replayed DP chunk kernels'
        prefix-predicated reads of a unit-step ``iota``.

        The same checks and messages as integer comparisons, the same
        values and read count; the run's distinct SRAM words are its
        first to last word, which is what the coalescing count of
        :meth:`_read_raw` finds for a run.
        """
        ctrl = self.ctrl
        ctrl.check_run(start, count, sel)
        bits = ctrl.element_bits
        raw = self.qbuf[sel].read_run(start, count, bits, windows)
        if windows or bits == 64 or not count:
            requests = count
        else:
            per_word = 64 // bits
            requests = (start + count - 1) // per_word - start // per_word + 1
        occupancy = -(-max(1, requests) // self.config.read_ports)
        return raw, occupancy

    def _read(
        self, idx: VReg, sel: int, pred: Pred | None, windows: bool
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """Returns (values, occupancy_cycles, active_mask)."""
        active = pred.data if pred is not None else np.ones(len(idx.data), dtype=bool)
        raw, occupancy = self._read_raw(idx.data[active], sel, windows)
        vals = np.zeros(len(idx.data), dtype=np.uint64)
        vals[active] = raw
        return vals, occupancy, active

    def qzload(
        self, idx: VReg, sel: int, pred: Pred | None = None, window: bool = False
    ) -> VReg:
        """Indexed read from one QBUFFER.

        ``window=False`` returns single element values.  ``window=True``
        returns the full (possibly unaligned) 64-bit window starting at
        each indexed element — the Fig. 10 read-logic path that splices
        two SRAM banks — letting software process ``64/esize`` symbols per
        read even without the count ALU.
        """
        vals, occupancy, _ = self._read(idx, sel, pred, windows=window)
        complete = self.machine._issue("qbuffer", occupancy, 1, deps=(idx, pred))
        return VReg(vals.astype(np.int64), idx.ebits, complete, category="qbuffer")

    def qzmhm(
        self, op: str, idx0: VReg, idx1: VReg, pred: Pred | None = None
    ) -> VReg:
        """Read both QBUFFERs at per-lane indices and combine with ``op``.

        ``op='count'`` engages the count-ALU path: both reads return full
        64-bit windows and each lane's result is the number of consecutive
        matching elements starting at the indexed positions (Fig. 6 usage).
        Other ops combine single element values.
        """
        if len(idx0.data) != len(idx1.data):
            raise QuetzalError("qzmhm index vectors must have equal lanes")
        if op == "rcount":
            return self._qzmhm_rcount(idx0, idx1, pred)
        windows = op == "count"
        v0, occ0, _ = self._read(idx0, 0, pred, windows)
        v1, occ1, _ = self._read(idx1, 1, pred, windows)
        # The two QBUFFERs are independent structures; their port
        # occupancies overlap, the slicing stage adds a cycle of latency.
        occupancy = max(occ0, occ1)
        latency = 1
        if op == "count":
            if not self.config.count_alu:
                raise QuetzalError(
                    f"configuration {self.config.name} has no count ALU"
                )
            result = count_matches_vector(v0, v1, self.element_bits)
            latency += 1  # count-ALU stage
        elif op in _BINOPS:
            result = _BINOPS[op](v0.astype(np.int64), v1.astype(np.int64))
        elif op in _CMPOPS:
            result = _CMPOPS[op](v0, v1).astype(np.int64)
        else:
            raise QuetzalError(f"unknown qzmhm op: {op!r}")
        complete = self.machine._issue(
            "qbuffer", occupancy, latency, deps=(idx0, idx1, pred)
        )
        return VReg(np.asarray(result, dtype=np.int64), idx0.ebits, complete,
                    category="qbuffer")

    def _qzmhm_rcount(
        self, idx0: VReg, idx1: VReg, pred: Pred | None
    ) -> VReg:
        """Reverse count: consecutive matches scanning downward from the
        indexed elements (BiWFA backward wavefronts; see count ALU docs).
        """
        if not self.config.count_alu:
            raise QuetzalError(f"configuration {self.config.name} has no count ALU")
        active = (
            pred.data if pred is not None else np.ones(len(idx0.data), dtype=bool)
        )
        result, occupancy = self._rcount_raw(idx0.data, idx1.data, active)
        complete = self.machine._issue(
            "qbuffer", occupancy, 2, deps=(idx0, idx1, pred)
        )
        return VReg(result, idx0.ebits, complete, category="qbuffer")

    def _rcount_raw(
        self, idx0_data: np.ndarray, idx1_data: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Functional reverse-count + occupancy (shared with replay).

        Each active lane reads one window per buffer, backed off by the
        same ``rel = min(i0, i1, 64/esize - 1)`` elements in both so the
        indexed elements sit at window element ``rel``; the count is the
        run of matching elements from ``rel`` down to 0 (the scalar
        reference is :func:`~repro.quetzal.count_alu.count_matches_word_reverse`).
        """
        bits = self.element_bits
        i0 = idx0_data[active]
        i1 = idx1_data[active]
        self.ctrl.check_indices(i0, 0)
        self.ctrl.check_indices(i1, 1)
        rel = np.minimum(np.minimum(i0, i1), 64 // bits - 1)
        a, _ = self.qbuf[0].read_vector(i0 - rel, bits, windows=True)
        b, _ = self.qbuf[1].read_vector(i1 - rel, bits, windows=True)
        # Lane x element match matrix of the XNOR; a lane's count stops
        # at the highest mismatching element at or below ``rel``.
        elem, shifts, mask = _ELEMENT_SCAN[bits]
        xnor = ~(a ^ b)
        miss = (((xnor[:, None] >> shifts) & mask) != mask) & (
            elem <= rel[:, None]
        )
        result = np.zeros(len(idx0_data), dtype=np.int64)
        result[active] = rel - np.where(miss, elem, -1).max(axis=1)
        occupancy = -(-max(1, len(i0)) // self.config.read_ports)
        return result, occupancy

    def qzmm(
        self, op: str, val: VReg, idx: VReg, sel: int, pred: Pred | None = None
    ) -> VReg:
        """Combine VRF values with QBUFFER element values (Section III-A)."""
        if len(val.data) != len(idx.data):
            raise QuetzalError("qzmm value/index vectors must have equal lanes")
        qvals, occupancy, _ = self._read(idx, sel, pred, windows=False)
        if op in _BINOPS:
            result = _BINOPS[op](qvals.astype(np.int64), val.data)
        elif op in _CMPOPS:
            result = _CMPOPS[op](qvals.astype(np.int64), val.data).astype(np.int64)
        else:
            raise QuetzalError(f"unknown qzmm op: {op!r}")
        complete = self.machine._issue(
            "qbuffer", occupancy, 1, deps=(val, idx, pred)
        )
        return VReg(np.asarray(result, dtype=np.int64), val.ebits, complete,
                    category="qbuffer")

    def qzcount(self, val0: VReg, val1: VReg, element_bits: int | None = None) -> VReg:
        """Standalone count of consecutive matching elements per 64-bit lane."""
        if not self.config.count_alu:
            raise QuetzalError(f"configuration {self.config.name} has no count ALU")
        if len(val0.data) != len(val1.data):
            raise QuetzalError("qzcount operands must have equal lanes")
        bits = element_bits if element_bits is not None else self.element_bits
        result = count_matches_vector(
            val0.data.astype(np.uint64), val1.data.astype(np.uint64), bits
        )
        complete = self.machine._issue("qbuffer", 1, 2, deps=(val0, val1))
        return VReg(result, val0.ebits, complete, category="qbuffer")

    # ------------------------------------------------------------------
    # Context switches (Section IV-E)
    # ------------------------------------------------------------------
    def save_context(self) -> dict:
        """Spill the architectural QBUFFER state on a context switch.

        QBUFFERs are architectural state saved only when the process is
        descheduled (like the VRF).  The spill streams both buffers'
        contents plus the three ``qzconf`` registers to memory; the
        simulated cost is charged and the state returned for restore.
        """
        m = self.machine
        total_bytes = 2 * self.config.qbuffer_bytes
        line = m.system.l1d.line_bytes
        lines = total_bytes // line
        vectors = total_bytes // m.system.vlen_bytes
        m.account_block("memory", instructions=2 * vectors, busy=2 * vectors)
        m.mem.account_streaming(2 * vectors, lines, dram_fraction=1.0)
        m.scalar(6)  # qzconf register spill
        return {
            "words0": self.qbuf[0].words.copy(),
            "words1": self.qbuf[1].words.copy(),
            "eb": list(self.ctrl.eb),
            "esize_code": self.ctrl.esize_code,
            "configured": self.ctrl.configured,
        }

    def restore_context(self, state: dict) -> None:
        """Reload previously saved QBUFFER state (same cost as the spill)."""
        m = self.machine
        total_bytes = 2 * self.config.qbuffer_bytes
        vectors = total_bytes // m.system.vlen_bytes
        m.account_block("memory", instructions=2 * vectors, busy=2 * vectors)
        m.mem.account_streaming(
            2 * vectors, total_bytes // m.system.l1d.line_bytes, dram_fraction=1.0
        )
        m.scalar(6)
        self.qbuf[0].words[:] = state["words0"]
        self.qbuf[1].words[:] = state["words1"]
        if state["configured"]:
            self.ctrl.configure(state["eb"][0], state["eb"][1], state["esize_code"])
        else:
            self.ctrl.reset()
        cache = getattr(self, "_staged_cache", None)
        if cache is not None:
            cache.clear()

    def clear(self) -> None:
        """Drop buffer contents and configuration (not statistics)."""
        self.qbuf[0].clear()
        self.qbuf[1].clear()
        self.ctrl.reset()
        cache = getattr(self, "_staged_cache", None)
        if cache is not None:
            cache.clear()
