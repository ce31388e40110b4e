"""BiWFA on the simulated vector CPU (VEC style).

Forward wavefronts run over (pattern, text); backward wavefronts are
forward wavefronts over the reversed sequences; the sides alternate (the
lower-score side advances) until overlap, as in :mod:`repro.align.biwfa`.

The simulated timing covers the bidirectional distance search, the
overlap scans, and the breakpoint bookkeeping.  The recursive half
re-alignments of full-transcript BiWFA are strictly smaller instances of
the same kernels, so relative style-vs-style speedups (what Fig. 13
reports) are unaffected by stopping at the breakpoint; DESIGN.md records
this simplification.
"""

from __future__ import annotations

from repro.align.interface import Implementation
from repro.align.vectorized.extend_loop import VecExtendKernel
from repro.align.vectorized.wfa_vec import FAST_LENGTH_THRESHOLD
from repro.align.vectorized.wavefront_machine import (
    INV_THRESH,
    MachineWavefront,
    extend_wave_with_kernel_gen,
    init_root_wave,
    next_machine_wave,
)
from repro.errors import AlignmentError
from repro.genomics.generator import SequencePair
from repro.vector.machine import VectorMachine


def account_overlap_scan(
    machine: VectorMachine,
    fwd: MachineWavefront,
    bwd: MachineWavefront,
    n_len: int,
    z: int,
) -> bool:
    """Check wave overlap; charge the vectorised scan's cost.

    Functionally: overlap on diagonal k iff ``fwd[k] + bwd[z-k] >= n``.
    Timing: one pass over the forward wave in 16-lane chunks, loading both
    wavefronts and comparing.
    """
    m = machine
    lanes = m.lanes(32)
    chunks = -(-fwd.width // lanes)
    for i in range(chunks):
        width = min(lanes, fwd.width - i * lanes)
        m.mem.access(fwd.buf.addr_of(fwd.pos(fwd.lo) + i * lanes), width * 4)
        m.mem.access(bwd.buf.addr_of(bwd.pos(bwd.lo)), width * 4)
    m.account_block("memory", instructions=2 * chunks, busy=2 * chunks)
    m.account_block("vector", instructions=3 * chunks, busy=3 * chunks)
    m.scalar(2)
    f_off = fwd.host_offsets()
    for idx, k in enumerate(range(fwd.lo, fwd.hi + 1)):
        fo = int(f_off[idx])
        if fo <= INV_THRESH:
            continue
        bo = bwd.host_get(z - k)
        if bo > INV_THRESH and fo + bo >= n_len:
            return True
    return False


class BiwfaVec(Implementation):
    """Bidirectional edit-distance WFA, hand-vectorised (VEC)."""

    algorithm = "biwfa"
    style = "vec"

    def __init__(self, fast: bool | None = None, max_score: int | None = None):
        self.fast = fast
        self.max_score = max_score

    def run_pair_gen(self, machine: VectorMachine, pair: SequencePair):
        before = machine.snapshot()
        m_len, n_len = len(pair.pattern), len(pair.text)
        if m_len == 0 or n_len == 0:
            machine.scalar(4)
            return self._wrap(machine, before, max(m_len, n_len))
        fast = self.fast if self.fast is not None else (
            pair.max_length > FAST_LENGTH_THRESHOLD
        )
        uid = machine.name_uid("bi")
        p_codes = pair.pattern.codes
        t_codes = pair.text.codes
        pbuf = machine.new_buffer(f"bi_p{uid}", p_codes, elem_bytes=1)
        tbuf = machine.new_buffer(f"bi_t{uid}", t_codes, elem_bytes=1)
        prbuf = machine.new_buffer(f"bi_pr{uid}", p_codes[::-1].copy(), elem_bytes=1)
        trbuf = machine.new_buffer(f"bi_tr{uid}", t_codes[::-1].copy(), elem_bytes=1)
        fwd_kernel = VecExtendKernel(pbuf, tbuf)
        bwd_kernel = VecExtendKernel(prbuf, trbuf)
        consts = fwd_kernel.consts(machine, m_len, n_len)
        cost_model = fwd_kernel.cost_model(machine) if fast else None
        z = n_len - m_len

        def extend_fwd(wave: MachineWavefront):
            return extend_wave_with_kernel_gen(
                machine, wave, fwd_kernel, consts, fast, cost_model
            )

        def extend_bwd(wave: MachineWavefront):
            return extend_wave_with_kernel_gen(
                machine, wave, bwd_kernel, consts, fast, cost_model
            )

        fwd = init_root_wave(machine)
        yield from extend_fwd(fwd)
        bwd = init_root_wave(machine)
        yield from extend_bwd(bwd)
        s_f = s_b = 0
        while not account_overlap_scan(machine, fwd, bwd, n_len, z):
            if self.max_score is not None and s_f + s_b >= self.max_score:
                raise AlignmentError("BiWFA exceeded max_score")
            if s_f <= s_b:
                fwd = next_machine_wave(machine, fwd, m_len, n_len)
                yield from extend_fwd(fwd)
                s_f += 1
            else:
                bwd = next_machine_wave(machine, bwd, m_len, n_len)
                yield from extend_bwd(bwd)
                s_b += 1
        machine.scalar(8)  # breakpoint extraction bookkeeping
        return self._wrap(machine, before, s_f + s_b)
