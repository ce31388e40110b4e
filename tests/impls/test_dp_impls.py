"""Tests for the classic-DP engine (ksw2 / parasail stand-ins)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.dp_machine import DpEngine, KswVec, ParasailNwVec, default_band
from repro.align.quetzal_impl import KswQz, ParasailNwQz
from repro.align.smith_waterman import banded_global_affine, nw_gotoh_global
from repro.align.types import Penalties
from repro.eval.runner import make_machine
from repro.genomics.datasets import build_dataset
from repro.genomics.generator import ErrorProfile, ReadPairGenerator, SequencePair
from repro.genomics.sequence import Sequence


def make_pair(length=130, error=0.04, seed=0):
    gen = ReadPairGenerator(
        length, ErrorProfile(error * 0.6, error * 0.2, error * 0.2), seed=seed
    )
    return gen.pair()


class TestFunctionalCorrectness:
    def test_full_nw_matches_gotoh(self):
        pair = make_pair(seed=1)
        result = ParasailNwVec(fast=False).run_pair(make_machine(), pair)
        assert result.output == nw_gotoh_global(
            pair.pattern, pair.text, Penalties()
        )

    def test_banded_matches_reference(self):
        pair = make_pair(seed=2)
        impl = KswVec(fast=False)
        result = impl.run_pair(make_machine(), pair)
        band = impl._band_for(pair)
        assert result.output == banded_global_affine(
            pair.pattern, pair.text, band, Penalties()
        )

    def test_qz_styles_match_vec(self):
        pair = make_pair(seed=3)
        for vec_cls, qz_cls in ((ParasailNwVec, ParasailNwQz), (KswVec, KswQz)):
            vec = vec_cls(fast=False).run_pair(make_machine(), pair)
            qz = qz_cls(fast=False).run_pair(make_machine(quetzal=True), pair)
            assert vec.output == qz.output

    def test_band_escape_returns_none(self):
        pair = SequencePair(Sequence("A" * 40), Sequence("A" * 80))
        result = KswVec(band=4, fast=False).run_pair(make_machine(), pair)
        assert result.output is None

    def test_empty_input(self):
        pair = SequencePair(Sequence(""), Sequence("ACGT"))
        assert ParasailNwVec().run_pair(make_machine(), pair).output is None

    def test_custom_penalties(self):
        pen = Penalties(match=0, mismatch=3, gap_open=4, gap_extend=1)
        pair = make_pair(seed=4)
        result = ParasailNwVec(penalties=pen, fast=False).run_pair(
            make_machine(), pair
        )
        assert result.output == nw_gotoh_global(pair.pattern, pair.text, pen)


class TestGapBoundaries:
    """Alignments that open or close with a gap run along the j=0 / i=0
    boundary cells, which the band-edge reset must leave alone."""

    @pytest.mark.parametrize("cls", (KswVec, KswQz, ParasailNwVec, ParasailNwQz))
    def test_figure_pair_with_leading_gap(self, cls):
        # Pair 11 of the Fig. 13a 250bp set: the text starts one base
        # into the pattern, so the optimal path leaves (0, 0) by a gap.
        pair = build_dataset("250bp_1", 12, seed=1234).pairs[11]
        impl = cls(fast=False)
        result = impl.run_pair(make_machine(quetzal=impl.requires_quetzal), pair)
        assert result.output == nw_gotoh_global(pair.pattern, pair.text, Penalties())

    @given(
        st.text("ACGT", min_size=4, max_size=28),
        st.lists(st.text("ACGT", max_size=6), min_size=4, max_size=4),
        st.lists(st.tuples(st.integers(0, 27), st.sampled_from("ACGT")), max_size=3),
        st.integers(1, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_mode_matches_references(self, core, flanks, subs, band):
        text = list(core)
        for pos, base in subs:
            text[pos % len(text)] = base
        pair = SequencePair(
            Sequence(flanks[0] + core + flanks[1]),
            Sequence(flanks[2] + "".join(text) + flanks[3]),
        )
        pen = Penalties()
        nw = ParasailNwVec(fast=False).run_pair(make_machine(), pair)
        assert nw.output == nw_gotoh_global(pair.pattern, pair.text, pen)
        ksw = KswVec(band=band, fast=False).run_pair(make_machine(), pair)
        assert ksw.output == banded_global_affine(pair.pattern, pair.text, band, pen)


class TestFastPath:
    def test_fast_matches_exact_functionally(self):
        pair = make_pair(length=400, seed=5)
        exact = KswVec(fast=False).run_pair(make_machine(), pair)
        fast = KswVec(fast=True).run_pair(make_machine(), pair)
        assert exact.output == fast.output

    def test_fast_cycles_close_to_exact(self):
        pair = make_pair(length=400, seed=6)
        exact = KswVec(fast=False).run_pair(make_machine(), pair)
        fast = KswVec(fast=True).run_pair(make_machine(), pair)
        assert fast.cycles == pytest.approx(exact.cycles, rel=0.25)

    def test_auto_fast_threshold(self):
        small = make_pair(length=100, seed=7)
        engine = DpEngine(
            make_machine(), small, band=None, penalties=Penalties(),
            use_quetzal=False, fast=None,
        )
        assert not engine.fast
        big = make_pair(length=2000, seed=8)
        engine = DpEngine(
            make_machine(), big, band=None, penalties=Penalties(),
            use_quetzal=False, fast=None,
        )
        assert engine.fast


class TestBandSelection:
    def test_default_band_floor(self):
        pair = make_pair(length=60, seed=9)
        assert default_band(pair) >= 16

    def test_default_band_covers_length_drift(self):
        pair = SequencePair(Sequence("A" * 100), Sequence("A" * 160))
        assert default_band(pair) >= 60 + 8

    def test_default_band_capped_for_qbuffer_state(self):
        pair = make_pair(length=30000, error=0.005, seed=10)
        assert default_band(pair) <= 250


class TestQzStateAblation:
    """The scratchpad-resident rolling-state backend (kept for ablation)."""

    def test_state_backend_is_functionally_correct(self):
        pair = make_pair(length=140, seed=11)
        machine = make_machine(quetzal=True)
        engine = DpEngine(
            machine, pair, band=24, penalties=Penalties(),
            use_quetzal=True, fast=False,
        )
        engine.qz_mode = "state"
        score = engine.run()
        assert score == banded_global_affine(
            pair.pattern, pair.text, 24, Penalties()
        )

    def test_state_backend_removes_memory_requests(self):
        pair = make_pair(length=140, seed=12)
        m_vec = make_machine()
        KswVec(band=24, fast=False).run_pair(m_vec, pair)
        m_qz = make_machine(quetzal=True)
        engine = DpEngine(
            m_qz, pair, band=24, penalties=Penalties(),
            use_quetzal=True, fast=False,
        )
        engine.qz_mode = "state"
        engine.run()
        assert m_qz.mem.stats().requests < m_vec.mem.stats().requests / 2
