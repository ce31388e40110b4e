"""Tests for the Implementation interface and error taxonomy."""

import pytest

import repro
from repro.align.baseline import WfaBase
from repro.align.interface import STYLES, Implementation, PairResult
from repro.align.quetzal_impl import WfaQz, WfaQzc
from repro.align.vectorized import WfaVec
from repro import errors


class TestImplementationProtocol:
    def test_names(self):
        assert WfaVec().name == "wfa-vec"
        assert WfaQzc().name == "wfa-qzc"

    def test_styles_enumerated(self):
        assert set(STYLES) == {"base", "vec", "qz", "qzc"}

    def test_requires_quetzal(self):
        assert not WfaBase().requires_quetzal
        assert not WfaVec().requires_quetzal
        assert WfaQz().requires_quetzal
        assert WfaQzc().requires_quetzal

    def test_requires_count_alu(self):
        assert not WfaQz().requires_count_alu
        assert WfaQzc().requires_count_alu

    def test_abstract_run_pair(self):
        # Every implementation overrides run_pair; the base class fails
        # the moment a pair is run.
        with pytest.raises(NotImplementedError):
            Implementation().run_pair(None, None)


class TestPairResult:
    def test_instructions_property(self):
        from repro.eval.runner import make_machine
        from repro.genomics.generator import ReadPairGenerator

        pair = ReadPairGenerator(60, seed=1).pair()
        result = WfaVec().run_pair(make_machine(), pair)
        assert isinstance(result, PairResult)
        assert result.instructions == result.stats.total_instructions
        assert result.cycles == result.stats.cycles


class TestErrorTaxonomy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "AlphabetError",
            "EncodingError",
            "MachineError",
            "MemoryModelError",
            "QuetzalError",
            "AlignmentError",
            "DatasetError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_package_exports(self):
        assert repro.__version__
        assert repro.SystemConfig is not None
        assert repro.QuetzalConfig is not None
