"""Shared machinery for running wavefront algorithms on the simulated CPU.

Wavefronts live in simulated buffers (int32 offsets with two guard cells
of ``INV`` on each side so the k-1/k/k+1 neighbour loads of the recurrence
never run off the array).  The recurrence itself (Section II-B) is the
same for the VEC and QUETZAL styles — QUETZAL only replaces the *extend*
step — so both import from here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import AlignmentError
from repro.vector.machine import VectorMachine

#: Invalid-offset sentinel (int32-safe, far below any real offset).
INV = -(1 << 30)
#: Validity threshold for compares.
INV_THRESH = INV // 2
_GUARD = 2


class MachineWavefront:
    """One wavefront in simulated memory: ``[INV, INV, offsets..., INV, INV]``."""

    __slots__ = ("machine", "lo", "hi", "buf")

    def __init__(self, machine: VectorMachine, lo: int, hi: int) -> None:
        if hi < lo:
            raise AlignmentError(f"empty wavefront [{lo}, {hi}]")
        width = hi - lo + 1
        data = np.full(width + 2 * _GUARD, INV, dtype=np.int64)
        self.machine = machine
        self.lo = lo
        self.hi = hi
        # Machine-local numbering (not a module global): one process runs
        # many machines (sharded runs, serve), and each pair must see the
        # exact buffer-name sequence a solo run would.
        self.buf = machine.new_buffer(
            f"wf{machine.name_uid('wf')}", data, elem_bytes=4
        )

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def pos(self, k: int) -> int:
        """Buffer element index of diagonal ``k`` (guards included)."""
        return k - self.lo + _GUARD

    def host_offsets(self) -> np.ndarray:
        """Functional view of the offsets (no simulated cost)."""
        return self.buf.data[_GUARD : _GUARD + self.width]

    def host_get(self, k: int) -> int:
        if self.lo <= k <= self.hi:
            return int(self.buf.data[self.pos(k)])
        return INV


def init_root_wave(machine: VectorMachine) -> MachineWavefront:
    """Wave 0: diagonal 0 at offset 0 (plus the store that writes it)."""
    wave = MachineWavefront(machine, 0, 0)
    zero = machine.dup(0, ebits=32)
    machine.store(wave.buf, wave.pos(0), zero, pred=machine.whilelt(0, 1))
    return wave


def next_machine_wave(
    machine: VectorMachine,
    old: MachineWavefront,
    m_len: int,
    n_len: int,
) -> MachineWavefront:
    """Vectorised edit-WFA recurrence: new wave from the previous one."""
    m = machine
    new_lo = max(old.lo - 1, -m_len)
    new_hi = min(old.hi + 1, n_len)
    wave = MachineWavefront(m, new_lo, new_hi)
    m.scalar(3)  # wave allocation / loop setup bookkeeping
    lanes = m.lanes(32)
    inv_vec = m.dup(INV, ebits=32)
    # Stage-major emission: all chunks' loads first, then all adds, and so
    # on — the order a software-pipelined kernel issues in, letting the
    # scoreboard overlap one chunk's latency with the others' issue slots.
    starts = list(range(new_lo, new_hi + 1, lanes))
    acts = [m.whilelt(0, min(lanes, new_hi - k0 + 1)) for k0 in starts]
    kvecs = [m.iota(32, start=k0) for k0 in starts]
    ins_srcs = [
        m.load(old.buf, old.pos(k0 - 1), 32, pred=a) for k0, a in zip(starts, acts)
    ]
    mis_srcs = [
        m.load(old.buf, old.pos(k0), 32, pred=a) for k0, a in zip(starts, acts)
    ]
    del_srcs = [
        m.load(old.buf, old.pos(k0 + 1), 32, pred=a) for k0, a in zip(starts, acts)
    ]
    ins = [m.add(s, 1, pred=a) for s, a in zip(ins_srcs, acts)]
    mis = [m.add(s, 1, pred=a) for s, a in zip(mis_srcs, acts)]
    best = [m.max(i, s, pred=a) for i, s, a in zip(ins, mis, acts)]
    best = [m.max(b, d, pred=a) for b, d, a in zip(best, del_srcs, acts)]
    # Valid offsets satisfy 0 <= h <= min(n, m + k).
    limits = [
        m.min(m.add(k, m_len, pred=a), n_len, pred=a) for k, a in zip(kvecs, acts)
    ]
    oks = [
        m.pand(m.cmp("ge", b, 0, pred=a), m.cmp("le", b, lim, pred=a))
        for b, lim, a in zip(best, limits, acts)
    ]
    results = [m.sel(ok, b, inv_vec) for ok, b in zip(oks, best)]
    for k0, a, result in zip(starts, acts, results):
        m.store(wave.buf, wave.pos(k0), result, pred=a)
    return wave


def check_termination(
    machine: VectorMachine, wave: MachineWavefront, k_end: int, n_len: int
) -> bool:
    """The per-wave 'reached the end cell?' check (scalar read + compare)."""
    machine.scalar(2)
    if wave.lo <= k_end <= wave.hi:
        machine.mem.access(wave.buf.addr_of(wave.pos(k_end)), 4)
        return wave.host_get(k_end) >= n_len
    return False


def account_traceback(
    machine: VectorMachine, waves: list[MachineWavefront], distance: int
) -> None:
    """Charge the traceback walk (the paper includes it in all timings).

    Each of the ``distance`` steps reads the three candidate offsets from
    the previous wave and does a dozen scalar comparisons/updates.
    """
    k = 0
    for s in range(distance, 0, -1):
        prev = waves[s - 1]
        pos = min(max(prev.pos(k), 0), len(prev.buf.data) - 3)
        machine.mem.access(prev.buf.addr_of(pos), 12)
        machine.scalar(12)


def extend_wave_with_kernel(
    machine: VectorMachine,
    wave: MachineWavefront,
    kernel,
    consts,
    fast: bool,
    cost_model=None,
) -> None:
    """Extend every diagonal of ``wave`` through an extend kernel.

    Diagonals are processed in 8-lane chunks (one per 64-bit VPU lane);
    all chunks of the wave run interleaved (slow mode) or are replayed as
    one measured wave bound (fast mode) by
    :func:`repro.align.vectorized.extend_loop.extend_chunks`.
    """
    from repro.align.vectorized.extend_loop import extend_chunks

    m = machine
    lanes = m.lanes(64)
    # Stage-major chunk preparation (see next_machine_wave).
    starts = list(range(wave.lo, wave.hi + 1, lanes))
    acts = [
        m.whilelt(0, min(lanes, wave.hi - k0 + 1), ebits=64) for k0 in starts
    ]
    offs = [
        m.load(wave.buf, wave.pos(k0), 64, pred=a) for k0, a in zip(starts, acts)
    ]
    kvecs = [m.iota(64, start=k0) for k0 in starts]
    valids = [m.cmp("gt", off, INV_THRESH, pred=a) for off, a in zip(offs, acts)]
    vs = [m.sub(off, k, pred=va) for off, k, va in zip(offs, kvecs, valids)]
    chunks = list(zip(vs, offs, valids))
    results = extend_chunks(m, kernel, consts, chunks, fast, cost_model)
    for k0, act, (h2, _runs) in zip(starts, acts, results):
        m.store(wave.buf, wave.pos(k0), h2, pred=act)


ExtendWaveFn = Callable[[VectorMachine, MachineWavefront], None]


def run_wavefront_loop(
    machine: VectorMachine,
    m_len: int,
    n_len: int,
    extend_wave: ExtendWaveFn,
    max_score: int | None = None,
) -> tuple[int, list[MachineWavefront]]:
    """The top-level WFA loop: extend, check, recurse. Returns (s, waves)."""
    k_end = n_len - m_len
    wave = init_root_wave(machine)
    extend_wave(machine, wave)
    waves = [wave]
    s = 0
    while not check_termination(machine, wave, k_end, n_len):
        if max_score is not None and s >= max_score:
            raise AlignmentError(f"wavefront loop exceeded max_score={max_score}")
        wave = next_machine_wave(machine, wave, m_len, n_len)
        extend_wave(machine, wave)
        waves.append(wave)
        s += 1
    return s, waves
