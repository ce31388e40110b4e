"""Outputs of the DP and QUETZAL families away from 512-bit vectors.

The conformance grid's vector-length axis compares each cell with a
baseline run at the same length, so a fault that every run at that
length shares passes it.  These tests compare against the references
instead: the ten DP and QUETZAL edit families must return
``banded_global_affine``, ``nw_gotoh_global``, ``myers_edit_distance``
or ``sneakysnake_filter`` at 256 and 1024 bits.  Below 256 bits an
encoder group is less than one QBUFFER word, so 2-bit staging raises,
while the plain vector DP families still match.
"""

import pytest

from repro.align.dp_machine import KswVec, ParasailNwVec, default_band
from repro.align.myers import myers_edit_distance
from repro.align.quetzal_impl import (
    BiwfaQz,
    BiwfaQzc,
    KswQz,
    ParasailNwQz,
    SsQz,
    SsQzc,
    WfaQz,
    WfaQzc,
)
from repro.align.smith_waterman import banded_global_affine, nw_gotoh_global
from repro.align.sneakysnake import sneakysnake_filter
from repro.align.types import Penalties
from repro.config import SystemConfig
from repro.errors import QuetzalError
from repro.eval.runner import run_implementation
from repro.genomics.datasets import build_dataset

DP = {"ksw-vec": KswVec, "nw-vec": ParasailNwVec, "ksw-qz": KswQz,
      "nw-qz": ParasailNwQz}
EDIT = {"wfa-qz": WfaQz, "wfa-qzc": WfaQzc, "biwfa-qz": BiwfaQz,
        "biwfa-qzc": BiwfaQzc, "ss-qz": SsQz, "ss-qzc": SsQzc}
QZ = ("ksw-qz", "nw-qz", *EDIT)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("100bp_1", num_pairs=3, seed=1234)


def make(name, dataset):
    cls = {**DP, **EDIT}[name]
    if name.startswith("ss-"):
        return cls(threshold=dataset.spec.edit_threshold)
    return cls()


def reference(name, impl, pair):
    if name.startswith("ksw-"):
        return banded_global_affine(
            pair.pattern, pair.text, default_band(pair), Penalties()
        )
    if name.startswith("nw-"):
        return nw_gotoh_global(pair.pattern, pair.text, Penalties())
    if name.startswith("ss-"):
        got = sneakysnake_filter(pair.pattern, pair.text, impl.threshold)
        return (bool(got.accepted), int(got.edits))
    return myers_edit_distance(pair.pattern, pair.text)


def assert_matches_reference(name, vlen, dataset):
    impl = make(name, dataset)
    result = run_implementation(
        impl, dataset.pairs, system=SystemConfig(vlen_bits=vlen)
    )
    got = [pr.output for pr in result.pair_results]
    if name.startswith("ss-"):
        got = [(bool(o.accepted), int(o.edits)) for o in got]
    assert got == [reference(name, impl, pair) for pair in dataset.pairs]


@pytest.mark.parametrize("vlen", (256, 1024))
@pytest.mark.parametrize("name", sorted({**DP, **EDIT}))
def test_family_matches_reference(name, vlen, dataset):
    assert_matches_reference(name, vlen, dataset)


@pytest.mark.parametrize("name", ("ksw-vec", "nw-vec"))
def test_vec_dp_matches_reference_at_128_bits(name, dataset):
    assert_matches_reference(name, 128, dataset)


@pytest.mark.parametrize("name", sorted(QZ))
def test_qz_staging_below_256_bits_raises(name, dataset):
    with pytest.raises(QuetzalError, match="2-bit staging"):
        run_implementation(
            make(name, dataset), dataset.pairs[:1],
            system=SystemConfig(vlen_bits=128),
        )
