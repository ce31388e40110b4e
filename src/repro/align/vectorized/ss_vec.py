"""SneakySnake on the simulated vector CPU (VEC style, paper Fig. 2b).

Each greedy step evaluates the exact-match run of all ``2E+1`` diagonals
from the current column; lanes are diagonals, runs are computed with the
same word-window extend chunks as WFA (interleaved across the step), and
a serialising horizontal-max picks the snake's next segment.
"""

from __future__ import annotations

from repro.align.interface import Implementation
from repro.align.sneakysnake import SneakySnakeResult
from repro.align.vectorized.extend_loop import (
    ExtendKernel,
    VecExtendKernel,
    extend_chunks_gen,
)
from repro.align.vectorized.wfa_vec import FAST_LENGTH_THRESHOLD
from repro.errors import AlignmentError
from repro.genomics.generator import SequencePair
from repro.vector.fleet import FleetStep, drive_serial
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER, ReplaySession, capture


def run_snake(
    machine: VectorMachine,
    kernel: ExtendKernel,
    n: int,
    n_text: int,
    threshold: int,
    fast: bool,
) -> SneakySnakeResult:
    """The greedy snake loop over diagonal chunks (shared by all styles)."""
    return drive_serial(
        run_snake_gen(machine, kernel, n, n_text, threshold, fast)
    )


def run_snake_gen(
    machine: VectorMachine,
    kernel: ExtendKernel,
    n: int,
    n_text: int,
    threshold: int,
    fast: bool,
):
    """Generator form of :func:`run_snake` yielding step requests."""
    m = machine
    consts = kernel.consts(m, n, n_text)
    cost_model = kernel.cost_model(m) if fast else None
    lanes = m.lanes(64)
    k0s = list(range(-threshold, threshold + 1, lanes))

    def column_setup(mm, col):
        """Per-column chunk construction; ``col`` may be symbolic."""
        vcol = mm.dup(col, ebits=64)
        outs = [vcol]
        for k0 in k0s:
            count = min(lanes, threshold - k0 + 1)
            act = mm.whilelt(0, count, ebits=64)
            kvec = mm.iota(64, start=k0)
            h = mm.add(kvec, col, pred=act)
            valid = mm.cmp("ge", h, 0, pred=act)
            outs += [h, valid]
        return tuple(outs)

    # The setup block is a straight-line function of the scalar ``col``,
    # so it captures once per pair and replays for every later column
    # (the data-dependent ``col += best`` advance stays interpreted).
    setup_prog = None
    col = 0
    edits = 0
    rejected = False
    while col < n:
        if ReplaySession.enabled(m):
            if setup_prog is None:
                REPLAY_METER.total_blocks += 1
                outs, setup_prog = capture(m, column_setup, (), (col,))
                if setup_prog is None:
                    setup_prog = False  # unrecordable: interpret from now on
            elif setup_prog is False:
                REPLAY_METER.total_blocks += 1
                outs = column_setup(m, col)
                REPLAY_METER.interpreted_blocks += 1
            else:
                holder = {}

                def run_setup(col=col, holder=holder):
                    REPLAY_METER.total_blocks += 1
                    outs = setup_prog.replay(m, (), (col,))
                    if outs is None:
                        outs = column_setup(m, col)
                        REPLAY_METER.interpreted_blocks += 1
                        REPLAY_METER.interpreted_instructions += setup_prog.n_ops
                    holder["outs"] = outs

                yield FleetStep(m, run_setup)
                outs = holder["outs"]
        else:
            outs = column_setup(m, col)
        vcol = outs[0]
        chunks = []
        metas = []
        for i in range(len(k0s)):
            h, valid = outs[1 + 2 * i], outs[2 + 2 * i]
            chunks.append((vcol, h, valid))
            metas.append((h, valid))
        results = yield from extend_chunks_gen(
            m, kernel, consts, chunks, fast, cost_model
        )
        best = 0
        for (h, valid), (h2, _runs) in zip(metas, results):
            cnt = m.sub(h2, h)
            chunk_best = m.reduce_max(cnt, pred=valid)
            if chunk_best > best:
                best = chunk_best
            m.scalar(2)
        col += best
        m.scalar(3)
        if col >= n:
            break
        edits += 1
        col += 1
        if edits > threshold:
            rejected = True
            break
    return SneakySnakeResult(
        accepted=not rejected and edits <= threshold,
        edits=edits,
        threshold=threshold,
    )


class SsVec(Implementation):
    """SneakySnake filter, hand-vectorised (VEC)."""

    algorithm = "ss"
    style = "vec"

    def __init__(
        self,
        threshold: int | None = None,
        threshold_frac: float = 0.05,
        fast: bool | None = None,
    ) -> None:
        if threshold is not None and threshold < 0:
            raise AlignmentError("threshold must be non-negative")
        self.threshold = threshold
        self.threshold_frac = threshold_frac
        self.fast = fast

    def threshold_for(self, pair: SequencePair) -> int:
        if self.threshold is not None:
            return self.threshold
        return max(1, int(len(pair.pattern) * self.threshold_frac))

    def run_pair_gen(self, machine: VectorMachine, pair: SequencePair):
        before = machine.snapshot()
        m = machine
        n = len(pair.pattern)
        threshold = self.threshold_for(pair)
        if n == 0:
            m.scalar(2)
            result = SneakySnakeResult(accepted=True, edits=0, threshold=threshold)
            return self._wrap(m, before, result)
        fast = self.fast if self.fast is not None else (
            pair.max_length > FAST_LENGTH_THRESHOLD
        )
        uid = m.name_uid("ss")
        pbuf = m.new_buffer(f"ss_p{uid}", pair.pattern.codes, elem_bytes=1)
        tbuf = m.new_buffer(f"ss_t{uid}", pair.text.codes, elem_bytes=1)
        kernel = VecExtendKernel(pbuf, tbuf)
        result = yield from run_snake_gen(
            m, kernel, n, len(pair.text), threshold, fast
        )
        return self._wrap(m, before, result)
