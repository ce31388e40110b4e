"""WFA on the simulated vector CPU (the paper's VEC baseline, Fig. 2a).

The wavefront recurrence runs with unit-stride vector loads (shared with
the QUETZAL styles, :mod:`.wavefront_machine`); the extend step runs the
gather-based word-window loop of :mod:`.extend_loop` — instruction-level
(interleaved chunks) for short reads, measured-cost fast path for long
ones.
"""

from __future__ import annotations

from repro.align.interface import Implementation, PairResult
from repro.align.vectorized.extend_loop import VecExtendKernel
from repro.align.vectorized.wavefront_machine import (
    MachineWavefront,
    account_traceback,
    extend_wave_with_kernel,
    run_wavefront_loop,
)
from repro.genomics.generator import SequencePair
from repro.vector.machine import VectorMachine
from repro.vector.register import SimBuffer

#: Above this read length the fast timing path replaces per-window loops.
FAST_LENGTH_THRESHOLD = 1200


def make_sequence_buffers(
    machine: VectorMachine, pair: SequencePair
) -> tuple[SimBuffer, SimBuffer]:
    """Stage the pair's alphabet codes as byte buffers in simulated memory."""
    uid = machine.name_uid("seq")
    pbuf = machine.new_buffer(f"pat{uid}", pair.pattern.codes, elem_bytes=1)
    tbuf = machine.new_buffer(f"txt{uid}", pair.text.codes, elem_bytes=1)
    return pbuf, tbuf


class WfaVec(Implementation):
    """Edit-distance WFA, hand-vectorised (VEC)."""

    algorithm = "wfa"
    style = "vec"

    def __init__(
        self,
        fast: bool | None = None,
        traceback: bool = True,
        max_score: int | None = None,
    ) -> None:
        self.fast = fast
        self.traceback = traceback
        self.max_score = max_score

    def _use_fast(self, pair: SequencePair) -> bool:
        if self.fast is not None:
            return self.fast
        return pair.max_length > FAST_LENGTH_THRESHOLD

    def run_pair(self, machine: VectorMachine, pair: SequencePair) -> PairResult:
        before = machine.snapshot()
        m_len, n_len = len(pair.pattern), len(pair.text)
        if m_len == 0 or n_len == 0:
            machine.scalar(4)
            return self._wrap(machine, before, max(m_len, n_len))
        fast = self._use_fast(pair)
        pbuf, tbuf = make_sequence_buffers(machine, pair)
        kernel = VecExtendKernel(pbuf, tbuf)
        consts = kernel.consts(machine, m_len, n_len)
        cost_model = kernel.cost_model(machine) if fast else None

        def extend(mach: VectorMachine, wave: MachineWavefront) -> None:
            extend_wave_with_kernel(mach, wave, kernel, consts, fast, cost_model)

        distance, waves = run_wavefront_loop(
            machine, m_len, n_len, extend, max_score=self.max_score
        )
        if self.traceback:
            account_traceback(machine, waves, distance)
        return self._wrap(machine, before, distance)
