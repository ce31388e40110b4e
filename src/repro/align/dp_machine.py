"""Classic DP (affine Gotoh) on the simulated CPU, anti-diagonal vectorised.

This is the paper's use case 3: ksw2-style banded global alignment and
parasail-style full-table NW, both processed along anti-diagonals
(Fig. 7).  Cells on diagonal ``d = i + j`` depend only on diagonals
``d-1`` (E/F) and ``d-2`` (substitution), so a chunk of one vector of
32-bit lanes (16 cells at 512 bits) computes in one pass of vector ops.

The VEC kernel's bottleneck is the one the paper names (Fig. 7 steps
1-2): every diagonal's loads read rolling-array lines *stored one
diagonal earlier*, and vector store-to-load forwarding is unsupported —
each such load stalls until the store drains
(``SystemConfig.store_to_load_visible``).

The QUETZAL variant (Fig. 7 steps 3-4) keeps the rolling H/E/F state in
the QBUFFERs when the band window fits (``qzstore`` commits immediately
and ``qzload`` reads it back without a drain), eliminating the hazard —
the mechanism behind the paper's modest 1.3-1.4x classic-DP gains.  For
full-table NW the window exceeds QBUFFER capacity, so the QZ variant
falls back to staging the 2-bit-encoded sequences only (the ``chars``
mode); EXPERIMENTS.md discusses where the measured gains land.

For long reads the per-chunk loop is fast-forwarded with a measured
steady-state chunk cost; the functional score comes from the scalar
reference and the DP-table traffic is accounted as a streaming pattern.
"""

from __future__ import annotations


import numpy as np

from repro.align.interface import Implementation
from repro.cache import CALIBRATION
from repro.align.smith_waterman import banded_global_affine, nw_gotoh_global
from repro.align.types import Penalties
from repro.config import QZ_ESIZE_2BIT, QZ_ESIZE_8BIT, QZ_ESIZE_64BIT
from repro.errors import AlignmentError
from repro.genomics.generator import SequencePair
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER, ReplaySession, capture
from repro.vector.register import Pred, VReg
from repro.vector.stats import MachineStats

_INF = 1 << 28

#: Beyond this many DP cells the fast path replaces instruction-level runs.
FAST_CELL_THRESHOLD = 300_000


def _diag_range(d: int, m: int, n: int, band: int) -> tuple[int, int]:
    """Interior cell index range [ilo, ihi] of anti-diagonal ``d``."""
    ilo = max(1, d - n)
    ihi = min(m, d - 1)
    if band < m + n:
        ilo = max(ilo, (d - band + 1) // 2)
        ihi = min(ihi, (d + band) // 2)
    return ilo, ihi


class _DpStateMem:
    """Rolling anti-diagonal state in memory (H x3, E x2, F x2, guarded).

    The buffers opt into store-to-load hazard tracking: this is exactly
    the rolling state whose store-load round trips Fig. 7 targets.
    """

    kind = "mem"

    def __init__(self, machine: VectorMachine, m: int, uid: int) -> None:
        size = m + 3  # pos(i) = i + 1, guards at 0 and m+2
        init = np.full(size, _INF, dtype=np.int64)
        self._bufs = {}
        for key, gens in (("h", 3), ("e", 2), ("f", 2)):
            bufs = []
            for g in range(gens):
                buf = machine.new_buffer(f"dp{key}{g}_{uid}", init, elem_bytes=4)
                buf.track_forwarding = True
                bufs.append(buf)
            self._bufs[key] = bufs

    @staticmethod
    def pos(i: int) -> int:
        return i + 1

    def rotate(self) -> None:
        h = self._bufs["h"]
        self._bufs["h"] = [h[2], h[0], h[1]]
        for key in ("e", "f"):
            pair = self._bufs[key]
            self._bufs[key] = [pair[1], pair[0]]

    def read(
        self, machine: VectorMachine, kind: str, gen: int, i: int,
        pred: Pred,
    ) -> VReg:
        buf = self._bufs[kind][gen]
        return machine.load(buf, self.pos(i), 32, pred=pred)

    def write(
        self, machine: VectorMachine, kind: str, i: int, value: VReg, pred: Pred
    ) -> None:
        machine.store(self._bufs[kind][0], self.pos(i), value, pred=pred)

    def poke(self, kind: str, gen: int, i: int, value: int) -> None:
        buf = self._bufs[kind][gen]
        buf.data[self.pos(i)] = value
        buf.mark_dirty()

    def peek(self, kind: str, gen: int, i: int) -> int:
        return int(self._bufs[kind][gen].data[self.pos(i)])


class _DpStateQz:
    """Rolling anti-diagonal state resident in the QBUFFERs.

    Layout (64-bit elements): qbuf0 holds three H generations at offsets
    ``g*W``; qbuf1 holds two E generations at ``0, W`` and two F
    generations at ``2W, 3W``; ``W`` is the band window (ring-addressed
    by ``i mod (W-1)`` so absolute cell indices of any length map in).
    ``qzstore`` commits at once and ``qzload`` reads it back next cycle:
    no store-to-load drain (the Fig. 7 step 3-4 flow).
    """

    kind = "qz-state"
    _GEN_BASE = {("h", 0): 0, ("h", 1): 1, ("h", 2): 2,
                 ("e", 0): 0, ("e", 1): 1, ("f", 0): 2, ("f", 1): 3}
    _SEL = {"h": 0, "e": 1, "f": 1}

    def __init__(self, machine: VectorMachine, band: int, uid: int) -> None:
        qz = machine.quetzal
        cap = qz.config.capacity_elements(64)
        self.window = band + 4
        if 4 * self.window > cap:
            raise AlignmentError(
                f"band {band} exceeds QBUFFER rolling-state capacity"
            )
        self.machine = machine
        self.qz = qz
        qz.clear()
        qz.qzconf(4 * self.window, 4 * self.window, QZ_ESIZE_64BIT)
        init = np.full(4 * self.window, _INF, dtype=np.uint64)
        qz.load_values(0, init)
        qz.load_values(1, init)
        # Generation rotation is an offset permutation (register renames,
        # no data movement).
        self._gen_map = {"h": [0, 1, 2], "e": [0, 1], "f": [0, 1]}

    def pos(self, i: int) -> int:
        return (i + 1) % (self.window - 1)

    def _slot(self, kind: str, gen: int, i: int) -> int:
        phys = self._gen_map[kind][gen]
        base = (self._GEN_BASE[(kind, phys)] if kind == "h"
                else self._GEN_BASE[(kind, phys)])
        return base * self.window + self.pos(i)

    def rotate(self) -> None:
        h = self._gen_map["h"]
        self._gen_map["h"] = [h[2], h[0], h[1]]
        for key in ("e", "f"):
            pair = self._gen_map[key]
            self._gen_map[key] = [pair[1], pair[0]]
        self.machine.scalar(1)

    def _indices(self, kind: str, gen: int, i: int, lanes: int) -> np.ndarray:
        return np.asarray(
            [self._slot(kind, gen, i + lane) for lane in range(lanes)],
            dtype=np.int64,
        )

    def read(
        self, machine: VectorMachine, kind: str, gen: int, i: int, pred: Pred
    ) -> VReg:
        lanes = machine.lanes(32)
        idx = machine.from_values(self._indices(kind, gen, i, lanes), ebits=32)
        return self.qz.qzload(idx, self._SEL[kind], pred=pred)

    def write(
        self, machine: VectorMachine, kind: str, i: int, value: VReg, pred: Pred
    ) -> None:
        lanes = machine.lanes(32)
        idx = machine.from_values(self._indices(kind, 0, i, lanes), ebits=32)
        self.qz.qzstore(value, idx, self._SEL[kind], pred=pred)

    def poke(self, kind: str, gen: int, i: int, value: int) -> None:
        self.qz.qbuf[self._SEL[kind]].words[self._slot(kind, gen, i)] = np.uint64(
            value
        )

    def peek(self, kind: str, gen: int, i: int) -> int:
        return int(self.qz.qbuf[self._SEL[kind]].words[self._slot(kind, gen, i)])


class DpEngine:
    """Anti-diagonal affine DP runner for one (pair, band, style)."""

    def __init__(
        self,
        machine: VectorMachine,
        pair: SequencePair,
        band: int | None,
        penalties: Penalties,
        use_quetzal: bool,
        fast: bool | None,
        traceback_table: bool = True,
    ) -> None:
        self.machine = machine
        self.pair = pair
        self.pen = penalties
        self.m = len(pair.pattern)
        self.n = len(pair.text)
        self.band = band if band is not None else self.m + self.n
        self.use_quetzal = use_quetzal
        self.traceback_table = traceback_table
        cells = (
            self.m * self.n
            if band is None
            else (self.m + self.n) * (min(band, max(self.m, self.n)) + 1)
        )
        self.fast = fast if fast is not None else cells > FAST_CELL_THRESHOLD
        # Machine-local numbering: every machine in a process (sharded
        # runs, serve) must see the solo-run name sequence.
        self.uid = machine.name_uid("dp")
        self.qz_mode: str | None = None
        if use_quetzal:
            if machine.quetzal is None:
                raise AlignmentError("QUETZAL style requires an attached unit")
            # 'chars' stages the 2-bit-encoded sequences (the default;
            # Fig. 7 steps 3-4).  The scratchpad-resident rolling-state
            # backend ('state') is kept for the ablation benches: on this
            # model it is issue-bound and does not pay off (EXPERIMENTS.md).
            self.qz_mode = "chars"

    # ------------------------------------------------------------------
    def _stage(self) -> None:
        m = self.machine
        self.pbuf = m.new_buffer(f"dp_p{self.uid}", self.pair.pattern.codes, 1)
        t_rev = self.pair.text.codes[::-1].copy()
        self.trbuf = m.new_buffer(f"dp_tr{self.uid}", t_rev, 1)
        tb_cells = (
            (self.m + 1) * (self.n + 1)
            if self.band >= self.m + self.n
            else (self.m + self.n) * (self.band + 2)
        )
        self._tb_base = m.mem.alloc(max(64, tb_cells))
        self._tb_written = 0
        if self.qz_mode == "state":
            self.state = _DpStateQz(m, self.band, self.uid)
        else:
            self.state = _DpStateMem(m, self.m, self.uid)
        if self.qz_mode == "chars":
            from repro.genomics.sequence import Sequence

            qz = m.quetzal
            qz.clear()
            text_rev = Sequence(str(self.pair.text)[::-1], self.pair.text.alphabet)
            qz.load_sequence(0, self.pair.pattern)
            qz.load_sequence(1, text_rev)
            esize = (
                QZ_ESIZE_2BIT
                if self.pair.pattern.alphabet.encoded_bits == 2
                else QZ_ESIZE_8BIT
            )
            qz.qzconf(self.m, self.n, esize)

    # ------------------------------------------------------------------
    def _chunk_kernel(self, d: int, i0: int, count: int) -> None:
        """Instruction-level kernel for one chunk of diagonal d."""
        self._chunk_body(self.machine, d, i0, count)
        self._tb_account(count)

    def _tb_account(self, count: int) -> None:
        if self.traceback_table:
            self.machine.mem.access(
                self._tb_base + self._tb_written, count, stream_id=909
            )
            self._tb_written += count

    def _chunk_body(self, m, d, i0, count) -> None:
        """The chunk's straight-line vector ops (replay-capturable:
        ``m`` may be a :class:`repro.vector.program.Recorder` and
        ``d``/``i0``/``count`` symbolic scalars)."""
        st = self.state
        pen = self.pen
        act = m.whilelt(0, count)
        if self.qz_mode == "chars":
            # Character streams from the QBUFFERs (2-bit encoded).
            qz = m.quetzal
            pv = qz.qzload(m.iota(32, start=i0 - 1), 0, pred=act)
            tv = qz.qzload(m.iota(32, start=self.n - d + i0), 1, pred=act)
        else:
            pv = m.load(self.pbuf, i0 - 1, 32, pred=act)
            tv = m.load(self.trbuf, self.n - d + i0, 32, pred=act)
        hm2v = st.read(m, "h", 2, i0 - 1, act)
        em1 = st.read(m, "e", 1, i0 - 1, act)
        hm1a = st.read(m, "h", 1, i0 - 1, act)
        hm1b = st.read(m, "h", 1, i0, act)
        fm1 = st.read(m, "f", 1, i0, act)
        eq = m.cmp("eq", pv, tv, pred=act)
        sub = m.sel(eq, m.dup(pen.match, 32), m.dup(pen.mismatch, 32))
        e_d = m.add(
            m.min(em1, m.add(hm1a, pen.gap_open, pred=act), pred=act),
            pen.gap_extend,
            pred=act,
        )
        f_d = m.add(
            m.min(fm1, m.add(hm1b, pen.gap_open, pred=act), pred=act),
            pen.gap_extend,
            pred=act,
        )
        h_d = m.min(m.min(m.add(hm2v, sub, pred=act), e_d, pred=act), f_d, pred=act)
        st.write(m, "e", i0, e_d, act)
        st.write(m, "f", i0, f_d, act)
        st.write(m, "h", i0, h_d, act)

    def _chunk_replay(self, d: int, i0: int, count: int, programs: dict) -> None:
        """Capture-or-replay one chunk kernel.

        The rolling state buffers rotate with period 6 (H x3, E/F x2),
        so the chunk body re-binds the same buffer objects whenever
        ``d`` repeats mod 6: one captured program per phase covers every
        diagonal, with (d, i0, count) threaded through as symbolic
        scalar parameters.
        """
        phase = d % 6
        REPLAY_METER.total_blocks += 1
        if phase in programs:
            prog = programs[phase]
            if prog is None:
                self._chunk_body(self.machine, d, i0, count)
                REPLAY_METER.interpreted_blocks += 1
            else:
                out = prog.replay(self.machine, (), (d, i0, count))
                if out is None:
                    # Program declined (an external register was still
                    # in flight at block entry): interpret this chunk.
                    self._chunk_body(self.machine, d, i0, count)
                    REPLAY_METER.interpreted_blocks += 1
                    REPLAY_METER.interpreted_instructions += prog.n_ops
        else:
            _outs, prog = capture(
                self.machine,
                lambda rm, dd, ii, cc: (self._chunk_body(rm, dd, ii, cc), ())[1],
                (), (d, i0, count),
            )
            programs[phase] = prog
        self._tb_account(count)

    # ------------------------------------------------------------------
    def _set_boundaries(self, d: int) -> None:
        """Host-write the j=0 / i=0 boundary cells of diagonal ``d``."""
        st = self.state
        pen = self.pen
        wrote = 0
        if d <= self.m:  # cell (i=d, j=0)
            val = pen.gap_open + pen.gap_extend * d if d else 0
            st.poke("h", 0, d, val)
            st.poke("e", 0, d, val)
            st.poke("f", 0, d, _INF)
            wrote += 1
        if d <= self.n:  # cell (i=0, j=d)
            val = pen.gap_open + pen.gap_extend * d if d else 0
            st.poke("h", 0, 0, val)
            st.poke("f", 0, 0, val)
            st.poke("e", 0, 0, _INF)
            wrote += 1
        if wrote:
            self.machine.scalar(2 * wrote)

    def _poison_band_edges(self, d: int, ilo: int, ihi: int) -> None:
        """Reset cells just outside the band window (buffers are reused).

        Cells ``i = 0`` and ``i = d`` of diagonal ``d`` are the boundary
        cells :meth:`_set_boundaries` wrote, never band edges.
        """
        st = self.state
        for kind in ("h", "e", "f"):
            if ilo - 1 > 0:
                st.poke(kind, 0, ilo - 1, _INF)
            if ihi + 1 <= self.m and ihi + 1 != d:
                st.poke(kind, 0, ihi + 1, _INF)

    # ------------------------------------------------------------------
    def run(self) -> int | None:
        from repro.vector.fleet import drive_serial

        return drive_serial(self.run_gen())

    def run_gen(self):
        """Generator form of :meth:`run` yielding step requests."""
        m = self.machine
        self._stage()
        if self.band < self.m + self.n and abs(self.n - self.m) > self.band:
            m.scalar(2)
            return None
        if self.fast:
            return self._run_fast()
        return (yield from self._run_exact_gen())

    def _score(self) -> int | None:
        if self.band < self.m + self.n:
            return banded_global_affine(
                self.pair.pattern, self.pair.text, self.band, self.pen
            )
        return nw_gotoh_global(self.pair.pattern, self.pair.text, self.pen)

    def _run_exact(self) -> int | None:
        from repro.vector.fleet import drive_serial

        return drive_serial(self._run_exact_gen())

    def _run_exact_gen(self):
        from repro.vector.fleet import FleetStep

        m = self.machine
        st = self.state
        # The QBUFFER-resident state backend ring-addresses with a
        # modulo, which the symbolic capture cannot express; it falls
        # back to interpretation (and is an ablation-only mode anyway).
        use_replay = ReplaySession.enabled(m) and self.qz_mode != "state"
        programs: dict = {}
        # One chunk is one vector of 32-bit lanes: the kernel computes
        # exactly that many cells.
        lanes = m.lanes(32)
        self._set_boundaries(0)
        for d in range(1, self.m + self.n + 1):
            st.rotate()
            self._set_boundaries(d)
            ilo, ihi = _diag_range(d, self.m, self.n, self.band)
            m.scalar(3)
            for i0 in range(ilo, ihi + 1, lanes):
                count = min(lanes, ihi - i0 + 1)
                if not use_replay:
                    self._chunk_kernel(d, i0, count)
                    continue
                if programs.get(d % 6) is None:
                    # First sighting of this phase (capture) or a broken
                    # capture: run this chunk inline.
                    self._chunk_replay(d, i0, count, programs)
                else:
                    yield FleetStep(
                        m,
                        lambda d=d, i0=i0, count=count: self._chunk_replay(
                            d, i0, count, programs
                        ),
                    )
            self._poison_band_edges(d, ilo, ihi)
        final = st.peek("h", 0, self.m)
        if final >= _INF:
            return None
        expected = self._score()
        if expected is not None and final != expected:
            raise AlignmentError(
                f"anti-diagonal DP diverged from reference: {final} != {expected}"
            )
        return final

    # ------------------------------------------------------------------
    def _measured_chunk_cost(self) -> MachineStats:
        lanes = self.machine.lanes(32)
        key = (
            "dp-chunk",
            self.qz_mode,
            self.machine.system.vlen_bits,
            lanes,
            self.machine.system.lat_vector_arith,
            self.machine.system.lat_predicate,
            self.machine.system.store_to_load_visible,
            self.traceback_table,
            self.machine.quetzal.config.name if self.use_quetzal else "",
        )
        cached = CALIBRATION.get(key)
        if cached is not None:
            return cached
        from repro.genomics.generator import ReadPairGenerator

        scratch = VectorMachine(self.machine.system)
        if self.use_quetzal:
            from repro.quetzal.accelerator import QuetzalUnit

            QuetzalUnit(scratch, self.machine.quetzal.config)
        pair = ReadPairGenerator(600, seed=7).pair()
        band = 200 if self.qz_mode == "state" else None
        engine = DpEngine(
            scratch, pair, band=band, penalties=self.pen,
            use_quetzal=self.use_quetzal, fast=False,
            traceback_table=self.traceback_table,
        )
        engine._stage()
        d = 400
        for warm_d in (d - 2, d - 1):
            ilo, ihi = _diag_range(warm_d, engine.m, engine.n, engine.band)
            for i0 in range(ilo, min(ihi, ilo + 10 * lanes) + 1, lanes):
                engine._chunk_kernel(warm_d, i0, lanes)
            engine.state.rotate()
        ilo, ihi = _diag_range(d, engine.m, engine.n, engine.band)
        before = scratch.snapshot()
        engine._chunk_kernel(d, ilo + lanes, lanes)
        cost = scratch.snapshot().delta(before)
        CALIBRATION.put(key, cost)
        return cost

    def _run_fast(self) -> int | None:
        m = self.machine
        cost = self._measured_chunk_cost()
        lanes = m.lanes(32)
        widths = np.empty(self.m + self.n, dtype=np.int64)
        total_chunks = 0
        for d in range(1, self.m + self.n + 1):
            ilo, ihi = _diag_range(d, self.m, self.n, self.band)
            width = max(0, ihi - ilo + 1)
            widths[d - 1] = width
            total_chunks += -(-width // lanes)
        m.account_stats(cost, times=total_chunks)
        if self.qz_mode == "state":
            m.quetzal.qbuf[0].reads += total_chunks * 3
            m.quetzal.qbuf[1].reads += total_chunks * 2
            m.quetzal.qbuf[0].writes += total_chunks
            m.quetzal.qbuf[1].writes += total_chunks * 2
        elif self.qz_mode == "chars":
            m.quetzal.qbuf[0].reads += total_chunks
            m.quetzal.qbuf[1].reads += total_chunks
        n_diags = self.m + self.n
        m.account_block("scalar", instructions=3 * n_diags, busy=3 * n_diags)
        total_cells = int(widths.sum())
        # Memory traffic: requests per chunk over the rolling arrays
        # (cache-resident when small, streaming when not) plus the
        # traceback table streamed to DRAM once.
        reqs_per_chunk = {"state": 3, "chars": 9, None: 11}[self.qz_mode]
        reqs = reqs_per_chunk * total_chunks
        line = m.system.l1d.line_bytes
        arrays_fit_l1 = (self.m + 3) * 4 * 7 < m.system.l1d.size_bytes // 2
        rolling_in_mem = self.qz_mode != "state"
        array_lines = (
            0
            if (arrays_fit_l1 or not rolling_in_mem)
            else (7 * 4 * total_cells) // line
        )
        tb_lines = total_cells // line if self.traceback_table else 0
        m.mem.account_streaming(
            reqs + tb_lines,
            array_lines + tb_lines,
            dram_fraction=(tb_lines / max(1, array_lines + tb_lines)),
        )
        # Prefetched streaming still exposes a small per-line latency.
        stall = array_lines // 2 + 2 * tb_lines
        if stall:
            m.account_block("memory", stall=stall, stall_category="memory")
        return self._score()


def default_band(pair: SequencePair, band_frac: float = 0.05) -> int:
    """A ksw2-like band: wide enough for the expected indel drift, capped
    so the rolling state fits the QBUFFERs (Section VI's tiling advice)."""
    length = len(pair.pattern)
    drift = abs(len(pair.text) - len(pair.pattern))
    return max(16, drift + 8, min(250, int(length * band_frac)))


class KswVec(Implementation):
    """ksw2-style banded global affine alignment (the paper's SW baseline)."""

    algorithm = "sw"
    style = "vec"

    def __init__(
        self,
        band: int | None = None,
        band_frac: float = 0.05,
        penalties: Penalties | None = None,
        fast: bool | None = None,
    ) -> None:
        self.band = band
        self.band_frac = band_frac
        self.pen = penalties or Penalties()
        self.fast = fast

    def _band_for(self, pair: SequencePair) -> int:
        if self.band is not None:
            return self.band
        return default_band(pair, self.band_frac)

    def run_pair_gen(self, machine: VectorMachine, pair: SequencePair):
        before = machine.snapshot()
        if len(pair.pattern) == 0 or len(pair.text) == 0:
            machine.scalar(4)
            return self._wrap(machine, before, None)
        engine = DpEngine(
            machine, pair, band=self._band_for(pair), penalties=self.pen,
            use_quetzal=self.style in ("qz", "qzc"), fast=self.fast,
        )
        score = yield from engine.run_gen()
        return self._wrap(machine, before, score)


class ParasailNwVec(Implementation):
    """parasail-style full-table global affine NW."""

    algorithm = "nw"
    style = "vec"

    def __init__(
        self, penalties: Penalties | None = None, fast: bool | None = None
    ) -> None:
        self.pen = penalties or Penalties()
        self.fast = fast

    def run_pair_gen(self, machine: VectorMachine, pair: SequencePair):
        before = machine.snapshot()
        if len(pair.pattern) == 0 or len(pair.text) == 0:
            machine.scalar(4)
            return self._wrap(machine, before, None)
        engine = DpEngine(
            machine, pair, band=None, penalties=self.pen,
            use_quetzal=self.style in ("qz", "qzc"), fast=self.fast,
        )
        score = yield from engine.run_gen()
        return self._wrap(machine, before, score)
