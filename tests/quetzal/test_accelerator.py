"""Tests for the QUETZAL unit: qz* instruction semantics and timing."""

import numpy as np
import pytest

from repro.config import (
    QZ_1P,
    QZ_8P,
    QZ_ESIZE_2BIT,
    QZ_ESIZE_8BIT,
    QZ_ESIZE_64BIT,
    QuetzalConfig,
    SystemConfig,
)
from repro.errors import QuetzalError
from repro.genomics.alphabet import PROTEIN
from repro.genomics.sequence import Sequence
from repro.quetzal.accelerator import QuetzalUnit
from repro.vector.machine import VectorMachine


def fresh(config=QZ_8P):
    m = VectorMachine(SystemConfig())
    qz = QuetzalUnit(m, config)
    return m, qz


class TestConfiguration:
    def test_attach_registers_on_machine(self):
        m, qz = fresh()
        assert m.quetzal is qz

    def test_qzconf_capacity_check(self):
        m, qz = fresh()
        with pytest.raises(QuetzalError):
            qz.qzconf(10 ** 9, 4, QZ_ESIZE_2BIT)

    def test_unconfigured_access_rejected(self):
        m, qz = fresh()
        idx = m.from_values([0], ebits=64)
        with pytest.raises(QuetzalError):
            qz.qzload(idx, 0)

    def test_bad_select(self):
        m, qz = fresh()
        qz.qzconf(4, 4, QZ_ESIZE_64BIT)
        idx = m.from_values([0], ebits=64)
        with pytest.raises(QuetzalError):
            qz.qzload(idx, 2)


class TestSequenceStaging:
    def test_dna_sequence_round_trip(self):
        m, qz = fresh()
        seq = Sequence("ACGTACGTAACCGGTT" * 5)
        qz.load_sequence(0, seq)
        qz.qzconf(len(seq), 0, QZ_ESIZE_2BIT)
        idx = m.from_values(list(range(8)), ebits=64)
        out = qz.qzload(idx, 0)
        np.testing.assert_array_equal(out.data, seq.hw_codes[:8])

    def test_protein_sequence_round_trip(self):
        m, qz = fresh()
        seq = Sequence("ACDEFGHIKLMNPQRSTVWY" * 3, PROTEIN)
        qz.load_sequence(1, seq)
        qz.qzconf(0, len(seq), QZ_ESIZE_8BIT)
        idx = m.from_values([0, 5, 21, 59], ebits=64)
        out = qz.qzload(idx, 1, pred=m.whilelt(0, 4, ebits=64))
        np.testing.assert_array_equal(out.data[:4], seq.hw_codes[[0, 5, 21, 59]])

    def test_oversized_sequence_rejected(self):
        m, qz = fresh()
        seq = Sequence("A" * (QZ_8P.capacity_elements(2) + 1))
        with pytest.raises(QuetzalError):
            qz.load_sequence(0, seq)

    def test_staging_is_counted(self):
        m, qz = fresh()
        before = m.snapshot()
        qz.load_sequence(0, Sequence("ACGT" * 64))
        delta = m.snapshot().delta(before)
        assert delta.instructions["qbuffer"] == 4  # 256 chars / 64 per vector
        assert delta.instructions["memory"] == 4

    def test_staging_buffers_do_not_depend_on_object_identity(self, monkeypatch):
        """Staged buffers are named by the machine, not by where the
        sequence object lives, so their prefetch stream ids (derived
        from the name) are equal for equal content on fresh machines."""
        staged = []
        new_buffer = VectorMachine.new_buffer

        def recording(self, name, *args, **kwargs):
            buf = new_buffer(self, name, *args, **kwargs)
            staged[-1].append((buf.name, buf.default_sid))
            return buf

        monkeypatch.setattr(VectorMachine, "new_buffer", recording)
        live = [Sequence("ACGTTGCA" * 24), Sequence("ACGTTGCA" * 24)]
        for seq in live:
            m, qz = fresh()
            staged.append([])
            qz.load_sequence(0, seq)
            qz.load_sequence(1, seq)
        assert staged[0] == staged[1]
        assert len(set(staged[0])) == 2


class TestLoadStore:
    def test_qzstore_then_qzload(self):
        m, qz = fresh()
        qz.qzconf(64, 0, QZ_ESIZE_64BIT)
        idx = m.from_values([3, 9, 30], ebits=64)
        val = m.from_values([33, 99, 17], ebits=64)
        p = m.whilelt(0, 3, ebits=64)
        qz.qzstore(val, idx, 0, pred=p)
        out = qz.qzload(idx, 0, pred=p)
        assert out.data[:3].tolist() == [33, 99, 17]

    def test_qzload_out_of_configured_range(self):
        m, qz = fresh()
        qz.qzconf(4, 0, QZ_ESIZE_64BIT)
        idx = m.from_values([5], ebits=64)
        with pytest.raises(QuetzalError):
            qz.qzload(idx, 0, pred=m.whilelt(0, 1, ebits=64))

    def test_qzload_timing_uses_port_occupancy(self):
        # 8 concurrent requests occupy ceil(8/ports) cycles plus one
        # slicing-latency cycle: 9 total on 1 port, 2 on 8 ports.
        for config, expected in ((QZ_1P, 9), (QZ_8P, 2)):
            m, qz = fresh(config)
            qz.qzconf(64, 0, QZ_ESIZE_64BIT)
            idx = m.iota(ebits=64)
            m.barrier()
            before = m.cycles
            qz.qzload(idx, 0)
            m.barrier()
            assert m.cycles - before == expected


class TestQzmhmCount:
    def _stage(self, a: str, b: str, config=QZ_8P):
        m, qz = fresh(config)
        qz.load_sequence(0, Sequence(a))
        qz.load_sequence(1, Sequence(b))
        qz.qzconf(len(a), len(b), QZ_ESIZE_2BIT)
        return m, qz

    def test_counts_consecutive_matches(self):
        a = "ACGTACGTACGTACGTACGTACGTACGTACGT"  # 32
        b = "ACGTACGAACGTACGTACGTACGTACGTACGT"  # mismatch at 7
        m, qz = self._stage(a + a, b + b)
        i0 = m.from_values([0] * 8, ebits=64)
        counts = qz.qzmhm("count", i0, i0)
        assert counts.data[0] == 7

    def test_counts_from_offset(self):
        a = "ACGTACGTACGTACGTACGTACGTACGTACGTACGT"
        b = "ACGTACGAACGTACGTACGTACGTACGTACGTACGT"
        m, qz = self._stage(a, b)
        idx = m.from_values([8, 8, 8, 8, 8, 8, 8, 8], ebits=64)
        counts = qz.qzmhm("count", idx, idx)
        # Elements 8..35 match and the zero padding beyond the sequence end
        # matches itself, so the raw hardware count saturates at the full
        # 32-element window; software clamps with min(count, len - pos).
        assert counts.data[0] == 32

    def test_count_requires_count_alu(self):
        cfg = QuetzalConfig(name="QZ_8P_NOC", read_ports=8, count_alu=False)
        m = VectorMachine(SystemConfig())
        qz = QuetzalUnit(m, cfg)
        qz.load_sequence(0, Sequence("ACGT"))
        qz.load_sequence(1, Sequence("ACGT"))
        qz.qzconf(4, 4, QZ_ESIZE_2BIT)
        idx = m.from_values([0] * 8, ebits=64)
        with pytest.raises(QuetzalError):
            qz.qzmhm("count", idx, idx)

    def test_other_ops(self):
        m, qz = fresh()
        qz.qzconf(16, 16, QZ_ESIZE_64BIT)
        a_idx = m.iota(ebits=64)
        qz.qzstore(m.from_values([5] * 8, ebits=64), a_idx, 0)
        qz.qzstore(m.from_values([3] * 8, ebits=64), a_idx, 1)
        out = qz.qzmhm("add", a_idx, a_idx)
        assert out.data.tolist() == [8] * 8

    def test_unknown_op(self):
        m, qz = fresh()
        qz.qzconf(8, 8, QZ_ESIZE_64BIT)
        idx = m.iota(ebits=64)
        with pytest.raises(QuetzalError):
            qz.qzmhm("frobnicate", idx, idx)

    def test_lane_mismatch(self):
        m, qz = fresh()
        qz.qzconf(8, 8, QZ_ESIZE_64BIT)
        with pytest.raises(QuetzalError):
            qz.qzmhm("add", m.iota(ebits=64), m.iota(ebits=32))


class TestQzmm:
    def test_add_with_vrf(self):
        m, qz = fresh()
        qz.qzconf(16, 0, QZ_ESIZE_64BIT)
        qz.load_values(0, np.arange(16))
        idx = m.iota(ebits=64)
        val = m.dup(100, ebits=64)
        out = qz.qzmm("add", val, idx, 0)
        assert out.data.tolist() == [100, 101, 102, 103, 104, 105, 106, 107]

    def test_cmp_op(self):
        m, qz = fresh()
        qz.qzconf(16, 0, QZ_ESIZE_64BIT)
        qz.load_values(0, np.arange(16))
        idx = m.iota(ebits=64)
        val = m.dup(4, ebits=64)
        out = qz.qzmm("lt", val, idx, 0)
        assert out.data.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]


class TestStandaloneQzcount:
    def test_on_vrf_values(self):
        m, qz = fresh()
        qz.qzconf(0, 0, QZ_ESIZE_2BIT)
        a = m.from_values([0b0101, 0b1111], ebits=64)
        b = m.from_values([0b0101, 0b1100], ebits=64)
        out = qz.qzcount(a, b)
        assert out.data[0] == 32  # identical words: all 32 2-bit elements
        assert out.data[1] == 0  # element 0 differs (11 vs 00)

    def test_explicit_width(self):
        m, qz = fresh()
        a = m.from_values([7], ebits=64)
        out = qz.qzcount(a, a, element_bits=64)
        assert out.data[0] == 1


class TestStatistics:
    def test_read_write_counters(self):
        m, qz = fresh()
        qz.qzconf(16, 0, QZ_ESIZE_64BIT)
        qz.load_values(0, np.arange(16))
        idx = m.iota(ebits=64)
        qz.qzload(idx, 0)
        assert qz.reads == 1
        assert qz.writes == 2  # two word-groups staged

    def test_snapshot_carries_qz_counts(self):
        m, qz = fresh()
        qz.qzconf(16, 0, QZ_ESIZE_64BIT)
        qz.load_values(0, np.arange(16))
        qz.qzload(m.iota(ebits=64), 0)
        snap = m.snapshot()
        assert snap.qz_reads == 1
        assert snap.qz_writes == 2

    def test_clear(self):
        m, qz = fresh()
        qz.qzconf(16, 0, QZ_ESIZE_64BIT)
        qz.load_values(0, np.arange(16))
        qz.clear()
        assert not qz.ctrl.configured
        assert qz.qbuf[0].words.sum() == 0
