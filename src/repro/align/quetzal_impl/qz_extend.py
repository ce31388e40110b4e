"""QUETZAL extend loops (paper Fig. 6) and their fast-path kernels.

Two styles on top of the staged QBUFFERs:

* **QZ** (QBUFFERs only) — reads unaligned 64-bit *windows* with
  ``qzload`` (the Fig. 10 read path: 2 cycles vs >=19 for a gather) and
  counts matching symbols in software (``RBIT`` + ``CLZ`` + shift), so a
  DNA lane advances up to 32 symbols per iteration;
* **QZ+C** (QBUFFERs + count ALU) — ``qzmhm<qzcount>`` fuses the window
  reads and the count into a single instruction, cutting the loop body
  roughly in half (this is why QZ+C pulls ahead most on short reads,
  Section VII-A1).

Backward variants serve BiWFA's reverse wavefronts by mirroring indices
into the forward-staged buffers (and ``qzmhm<rcount>``, the leading-ones
mirror of the count ALU).  All four integrate with the shared chunk
orchestrator (:func:`repro.align.vectorized.extend_loop.extend_chunks`)
via :class:`QzKernel`.
"""

from __future__ import annotations

import numpy as np

from repro.align.vectorized.extend_loop import (
    ChunkState,
    ExtendConsts,
    ExtendKernel,
    LoopCostModel,
    enter_extend,
    window_iterations,
)
from repro.config import QZ_ESIZE_2BIT, QZ_ESIZE_8BIT
from repro.errors import QuetzalError
from repro.genomics.sequence import Sequence
from repro.quetzal.accelerator import QuetzalUnit
from repro.vector.machine import VectorMachine
from repro.vector.program import ReplaySession
from repro.vector.register import Pred, VReg

_COUNT_SHIFT = {2: 1, 8: 3}


# ----------------------------------------------------------------------
# Loop bodies
# ----------------------------------------------------------------------
def qz_window_step(
    machine: VectorMachine, qz: QuetzalUnit, consts: ExtendConsts, st: ChunkState
) -> None:
    """One iteration of the software-count window loop (QZ style)."""
    m = machine
    qz = m.quetzal  # the recorder's proxy during capture; same unit otherwise
    inb = st.inb
    shift = _COUNT_SHIFT[qz.element_bits]
    a = qz.qzload(st.v, 0, pred=inb, window=True)
    b = qz.qzload(st.h, 1, pred=inb, window=True)
    x = m.xor(a, b, pred=inb)
    tz = m.clz(m.rbit(x, pred=inb), pred=inb)
    cnt = m.shr(tz, shift, pred=inb)
    c = m.min(cnt, m.sub(consts.mvec, st.v, pred=inb), pred=inb)
    c = m.min(c, m.sub(consts.nvec, st.h, pred=inb), pred=inb)
    st.v = m.add(st.v, c, pred=inb)
    st.h = m.add(st.h, c, pred=inb)
    full = m.cmp("eq", c, consts.window, pred=inb)
    pv = m.cmp("lt", st.v, consts.m_len, pred=full)
    st.inb = m.cmp("lt", st.h, consts.n_len, pred=pv)


def qz_count_step(
    machine: VectorMachine, qz: QuetzalUnit, consts: ExtendConsts, st: ChunkState
) -> None:
    """One iteration of the count-ALU loop (QZ+C style)."""
    m = machine
    qz = m.quetzal  # the recorder's proxy during capture; same unit otherwise
    inb = st.inb
    counts = qz.qzmhm("count", st.v, st.h, pred=inb)
    c = m.min(counts, m.sub(consts.mvec, st.v, pred=inb), pred=inb)
    c = m.min(c, m.sub(consts.nvec, st.h, pred=inb), pred=inb)
    st.v = m.add(st.v, c, pred=inb)
    st.h = m.add(st.h, c, pred=inb)
    full = m.cmp("eq", c, consts.window, pred=inb)
    pv = m.cmp("lt", st.v, consts.m_len, pred=full)
    st.inb = m.cmp("lt", st.h, consts.n_len, pred=pv)


def qz_window_rev_step(
    machine: VectorMachine, qz: QuetzalUnit, consts: ExtendConsts, st: ChunkState
) -> None:
    """One iteration of the backward software-count loop (BiWFA, QZ)."""
    m = machine
    qz = m.quetzal  # the recorder's proxy during capture; same unit otherwise
    inb = st.inb
    bits = qz.element_bits
    shift = _COUNT_SHIFT[bits]
    vi = m.sub(consts.mtop, st.v, pred=inb)
    hi = m.sub(consts.ntop, st.h, pred=inb)
    rel = m.min(m.min(vi, hi, pred=inb), consts.wtop, pred=inb)
    a = qz.qzload(m.sub(vi, rel, pred=inb), 0, pred=inb, window=True)
    b = qz.qzload(m.sub(hi, rel, pred=inb), 1, pred=inb, window=True)
    x = m.xor(a, b, pred=inb)
    amt = m.mul(m.sub(consts.wtop, rel, pred=inb), bits, pred=inb)
    lead = m.clz(m.shl(x, amt, pred=inb), pred=inb)
    cnt = m.shr(lead, shift, pred=inb)
    c = m.min(cnt, m.sub(consts.mvec, st.v, pred=inb), pred=inb)
    c = m.min(c, m.sub(consts.nvec, st.h, pred=inb), pred=inb)
    st.v = m.add(st.v, c, pred=inb)
    st.h = m.add(st.h, c, pred=inb)
    full = m.cmp("eq", c, consts.window, pred=inb)
    pv = m.cmp("lt", st.v, consts.m_len, pred=full)
    st.inb = m.cmp("lt", st.h, consts.n_len, pred=pv)


def qz_rcount_step(
    machine: VectorMachine, qz: QuetzalUnit, consts: ExtendConsts, st: ChunkState
) -> None:
    """One iteration of the backward count-ALU loop (BiWFA, QZ+C)."""
    m = machine
    qz = m.quetzal  # the recorder's proxy during capture; same unit otherwise
    inb = st.inb
    vi = m.sub(consts.mtop, st.v, pred=inb)
    hi = m.sub(consts.ntop, st.h, pred=inb)
    counts = qz.qzmhm("rcount", vi, hi, pred=inb)
    c = m.min(counts, m.sub(consts.mvec, st.v, pred=inb), pred=inb)
    c = m.min(c, m.sub(consts.nvec, st.h, pred=inb), pred=inb)
    st.v = m.add(st.v, c, pred=inb)
    st.h = m.add(st.h, c, pred=inb)
    full = m.cmp("eq", c, consts.window, pred=inb)
    pv = m.cmp("lt", st.v, consts.m_len, pred=full)
    st.inb = m.cmp("lt", st.h, consts.n_len, pred=pv)


_STEPS = {
    ("qz", False): qz_window_step,
    ("qzc", False): qz_count_step,
    ("qz", True): qz_window_rev_step,
    ("qzc", True): qz_rcount_step,
}


def _standalone(step):
    def loop(
        machine: VectorMachine,
        qz: QuetzalUnit,
        v: VReg,
        h: VReg,
        active: Pred,
        m_len: int,
        n_len: int,
        consts: ExtendConsts | None = None,
        iter_hook=None,
    ):
        if consts is None:
            consts = ExtendConsts(machine, m_len, n_len, 64 // qz.element_bits)
        st = enter_extend(machine, consts, v, h, active)
        if iter_hook is None and ReplaySession.enabled(machine):
            key = (id(machine), step)
            session = consts.replay.get(key)
            if session is None:
                session = consts.replay[key] = ReplaySession(
                    machine,
                    lambda mm, ss: step(mm, qz, consts, ss),
                    name=step.__name__,
                )
            session.run_loop(st)
            return st.v, st.h
        while machine.ptest_spec(st.inb):
            step(machine, qz, consts, st)
            if iter_hook is not None:
                iter_hook(machine)
        return st.v, st.h

    return loop


#: Standalone serial loops (cost-model measurement and unit tests).
qz_window_extend = _standalone(qz_window_step)
qz_window_extend.__name__ = "qz_window_extend"
qz_count_extend = _standalone(qz_count_step)
qz_count_extend.__name__ = "qz_count_extend"
qz_window_extend_rev = _standalone(qz_window_rev_step)
qz_window_extend_rev.__name__ = "qz_window_extend_rev"
qz_rcount_extend = _standalone(qz_rcount_step)
qz_rcount_extend.__name__ = "qz_rcount_extend"


def qz_count_iterations(
    runs: np.ndarray, bounds: np.ndarray, entered: np.ndarray, window: int
) -> np.ndarray:
    """Iterations of any QUETZAL window loop (alias of the shared formula)."""
    return window_iterations(runs, bounds, entered, window)


# ----------------------------------------------------------------------
# Cost models
# ----------------------------------------------------------------------
class _QzLoopCostModel(LoopCostModel):
    """Measurement base for loops needing a staged QUETZAL unit."""

    lanes_ebits = 64
    _loop = None

    def __init__(self, machine: VectorMachine) -> None:
        if machine.quetzal is None:
            raise QuetzalError("cost model needs a machine with a QUETZAL unit")
        self.config = machine.quetzal.config
        super().__init__(machine.system)

    def _key_extra(self) -> tuple:
        return (self.config.name, self.config.read_ports, self.config.qbuffer_kb)

    def _setup(self):
        machine = VectorMachine(self.system)
        qz = QuetzalUnit(machine, self.config)
        seq = Sequence("A" * 4096)
        qz.load_sequence(0, seq)
        qz.load_sequence(1, seq)
        qz.qzconf(4096, 4096, QZ_ESIZE_2BIT)
        consts = ExtendConsts(machine, 4096, 4096, 64 // qz.element_bits)
        return machine, (qz, consts)

    def _run(self, machine, ctx, v, h, act, length, hook):
        qz, consts = ctx
        loop = type(self)._loop
        loop(machine, qz, v, h, act, length, length, consts=consts, iter_hook=hook)

    @property
    def stall_category(self) -> str:
        return "qbuffer"


class QzWindowCostModel(_QzLoopCostModel):
    kind = "qz-window"
    _loop = staticmethod(qz_window_extend)


class QzCountCostModel(_QzLoopCostModel):
    kind = "qz-count"
    _loop = staticmethod(qz_count_extend)


class QzWindowRevCostModel(_QzLoopCostModel):
    kind = "qz-window-rev"
    _loop = staticmethod(qz_window_extend_rev)


class QzRcountCostModel(_QzLoopCostModel):
    kind = "qz-rcount"
    _loop = staticmethod(qz_rcount_extend)


_COST_MODELS = {
    ("qz", False): QzWindowCostModel,
    ("qzc", False): QzCountCostModel,
    ("qz", True): QzWindowRevCostModel,
    ("qzc", True): QzRcountCostModel,
}


# ----------------------------------------------------------------------
# Kernel + staging
# ----------------------------------------------------------------------
class QzKernel(ExtendKernel):
    """QUETZAL extend kernel for the shared chunk orchestrator."""

    def __init__(
        self,
        machine: VectorMachine,
        style: str,
        backward: bool = False,
    ) -> None:
        if machine.quetzal is None:
            raise QuetzalError("machine has no QUETZAL unit attached")
        if style not in ("qz", "qzc"):
            raise QuetzalError(f"unknown QUETZAL style: {style!r}")
        self.qz = machine.quetzal
        self.style = style
        self.backward = backward
        self.window = 64 // self.qz.element_bits
        self._step = _STEPS[(style, backward)]
        self._m_len = self.qz.ctrl.eb[0]
        self._n_len = self.qz.ctrl.eb[1]

    def step(self, machine, consts, st):
        self._step(machine, self.qz, consts, st)

    def codes(self):
        p = _staged_codes(self.qz, 0, self._m_len)
        t = _staged_codes(self.qz, 1, self._n_len)
        if self.backward:
            return p[::-1], t[::-1]
        return p, t

    def cost_model(self, machine):
        return _COST_MODELS[(self.style, self.backward)](machine)

    def account_memory(self, machine, v0, h0, iters, total_iters):
        # Sequence traffic stays inside the QBUFFERs: two reads/iteration.
        self.qz.qbuf[0].reads += total_iters
        self.qz.qbuf[1].reads += total_iters


def stage_pair_in_qbuffers(
    machine: VectorMachine, pattern: Sequence, text: Sequence
) -> None:
    """Stage (pattern, text) and configure element counts (Fig. 6 lines 3-4)."""
    qz = machine.quetzal
    if qz is None:
        raise QuetzalError("machine has no QUETZAL unit attached")
    qz.clear()
    qz.load_sequence(0, pattern)
    qz.load_sequence(1, text)
    esize = QZ_ESIZE_2BIT if pattern.alphabet.encoded_bits == 2 else QZ_ESIZE_8BIT
    qz.qzconf(len(pattern), len(text), esize)


def _staged_codes(qz: QuetzalUnit, sel: int, count: int) -> np.ndarray:
    """Functional view of a staged sequence (cached on the unit)."""
    cache = getattr(qz, "_staged_cache", None)
    if cache is None:
        cache = {}
        qz._staged_cache = cache
    key = (sel, count, qz.qbuf[sel].writes)
    hit = cache.get(sel)
    if hit is not None and hit[0] == key:
        return hit[1]
    from repro.genomics.encoding import unpack_words

    codes = unpack_words(qz.qbuf[sel].words, qz.element_bits, count)
    arr = codes.astype(np.int64)
    cache[sel] = (key, arr)
    return arr
