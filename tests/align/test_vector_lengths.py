"""Outputs of the DP and QUETZAL families away from 512-bit vectors.

The conformance grid's vector-length axis compares each cell with a
baseline run at the same length, so a fault that every run at that
length shares passes it.  These tests compare against the references
instead: the ten DP and QUETZAL edit families must return
``banded_global_affine``, ``nw_gotoh_global``, ``myers_edit_distance``
or ``sneakysnake_filter`` at 256 and 1024 bits.  Below 256 bits an
encoder group is less than one QBUFFER word, so 2-bit staging raises,
while the plain vector DP families still match.  ``qzencode``, which
stages every 2-bit group, must place a group at the word of its first
character at both lengths.
"""

import numpy as np
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
from repro.eval.runner import make_machine, run_implementation
from repro.genomics.datasets import build_dataset
from repro.genomics.sequence import Sequence

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


def random_dna(n, seed):
    return "".join(np.random.default_rng(seed).choice(list("ACGT"), n))


@pytest.mark.parametrize("vlen", (256, 1024))
def test_qzencode_writes_group_at_its_first_character(vlen):
    """Group 1 of ``vlen / 8`` characters starts at word ``vlen / 256``
    and writes nothing else, one encoder write per two words."""
    chars = vlen // 8
    text = random_dna(chars, vlen)
    m = make_machine(SystemConfig(vlen_bits=vlen), quetzal=True)
    qz = m.quetzal
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    qz.qzencode(0, m.from_values(codes, ebits=8), 1)
    words = Sequence(text).packed_words()
    first = chars // 32
    got = qz.qbuf[0].words
    assert np.array_equal(got[first : first + words.size], words)
    assert not got[:first].any() and not got[first + words.size :].any()
    assert qz.qbuf[0].writes == -(-words.size // 2)


@pytest.mark.parametrize("vlen", (256, 1024))
def test_qzencode_groups_build_the_packed_sequence(vlen):
    """Groups written in any order, the tail encoding only its own
    characters, leave the sequence's packed QBUFFER layout."""
    chars = vlen // 8
    text = random_dna(2 * chars + 5, vlen + 1)
    m = make_machine(SystemConfig(vlen_bits=vlen), quetzal=True)
    qz = m.quetzal
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    for g in (2, 0, 1):
        part = codes[g * chars : (g + 1) * chars]
        qz.qzencode(0, m.from_values(part, ebits=8), g, len(part))
    want = Sequence(text).packed_words()
    got = qz.qbuf[0].words
    assert np.array_equal(got[: want.size], want)
    assert not got[want.size :].any()
