"""QBUFFER run reads: ``QuetzalUnit._read_run(start, count, sel, window)``
must be ``_read_raw(np.arange(start, start + count), sel, window)`` in
values, port occupancy, read count and every error message."""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    DEFAULT_QUETZAL,
    QZ_ESIZE_2BIT,
    QZ_ESIZE_8BIT,
    QZ_ESIZE_64BIT,
)
from repro.errors import QuetzalError
from repro.eval.runner import make_machine

ESIZE = {2: QZ_ESIZE_2BIT, 8: QZ_ESIZE_8BIT, 64: QZ_ESIZE_64BIT}


def unit(bits, counts=None, read_ports=8):
    """A unit with random QBUFFER words, configured for ``bits``-bit
    elements (by default the full capacity of both buffers)."""
    config = dataclasses.replace(DEFAULT_QUETZAL, read_ports=read_ports)
    qz = make_machine(quetzal=config).quetzal
    rng = np.random.default_rng(bits)
    for qbuf in qz.qbuf:
        qbuf.words[:] = rng.integers(0, 2**63, qbuf.n_words, dtype=np.uint64) * 2 + 1
    cap = config.capacity_elements(bits)
    eb0, eb1 = counts if counts is not None else (cap, cap)
    qz.qzconf(eb0, eb1, ESIZE[bits])
    return qz


def both(qz, start, count, sel, window):
    """(run read, raw read of the same lanes), each with the reads it added."""
    before = qz.reads
    raw, occ = qz._read_raw(np.arange(start, start + count), sel, window)
    raw_reads = qz.reads - before
    run, run_occ = qz._read_run(start, count, sel, window)
    run_reads = qz.reads - before - raw_reads
    return (run, run_occ, run_reads), (raw, occ, raw_reads)


def assert_same(got, want):
    assert got[0].dtype == want[0].dtype
    assert got[0].tolist() == want[0].tolist()
    assert got[1:] == want[1:]


@pytest.mark.parametrize("read_ports", (1, 8))
@pytest.mark.parametrize("window", (False, True))
@pytest.mark.parametrize("bits", (2, 8, 64))
def test_run_equals_raw(bits, window, read_ports):
    qz = unit(bits, read_ports=read_ports)
    per_word = 64 // bits
    cap = qz.config.capacity_elements(bits)
    runs = [
        (0, 0), (5, 0), (0, 1), (0, 16), (3, 16),
        # across word boundaries, and spanning several words
        (per_word - 1, 2), (max(0, per_word - 3), 16),
        (max(0, 2 * per_word - 7), 3 * per_word),
        # ending at the configured count (the last element)
        (cap - 16, 16), (cap - 1, 1),
    ]
    for sel in (0, 1):
        for start, count in runs:
            got, want = both(qz, start, count, sel, window)
            assert_same(got, want)


@pytest.mark.parametrize("bits", (2, 8, 64))
def test_run_ends_at_configured_count(bits):
    qz = unit(bits, counts=(100, 37))
    for sel, count in ((0, 100), (1, 37)):
        got, want = both(qz, count - 16, 16, sel, False)
        assert_same(got, want)


def _messages(qz, start, count, sel, window=False):
    """The QuetzalError messages of (run read, raw read) of the same lanes."""
    out = []
    for read in (
        lambda: qz._read_run(start, count, sel, window),
        lambda: qz._read_raw(np.arange(start, start + count), sel, window),
    ):
        with pytest.raises(QuetzalError) as excinfo:
            read()
        out.append(str(excinfo.value))
    return out


@pytest.mark.parametrize("bits", (2, 8, 64))
def test_errors_match(bits):
    qz = unit(bits, counts=(100, 37))
    for start, count, sel in (
        (-1, 4, 0),     # negative start
        (-20, 3, 1),    # wholly below 0
        (90, 16, 0),    # past the configured count
        (37, 1, 1),     # one past the configured count
        (0, 4, 2),      # bad select
    ):
        got, want = _messages(qz, start, count, sel)
        assert got == want


def test_unconfigured_unit_raises_the_same():
    qz = make_machine(quetzal=True).quetzal
    got, want = _messages(qz, 0, 4, 0)
    assert got == want == "QUETZAL not configured; issue qzconf first"


@pytest.mark.parametrize("bits", (2, 8, 64))
def test_qbuffer_run_past_capacity(bits):
    """The buffer's own bounds check (behind the configured count)."""
    qbuf = unit(bits).qbuf[0]
    cap = qbuf.capacity_elements(bits)
    for start, count in ((cap - 4, 8), (-2, 4)):
        msgs = []
        for read in (
            lambda: qbuf.read_run(start, count, bits),
            lambda: qbuf.read_vector(np.arange(start, start + count), bits),
        ):
            with pytest.raises(QuetzalError) as excinfo:
                read()
            msgs.append(str(excinfo.value))
        assert msgs[0] == msgs[1]
    for window in (False, True):
        got = qbuf.read_run(cap - 8, 8, bits, windows=window)
        want, _ = qbuf.read_vector(np.arange(cap - 8, cap), bits, windows=window)
        assert got.tolist() == want.tolist()
