"""The VEC extend inner loop and its scheduling / fast-path machinery.

Real vectorised extend kernels process *blocks*, not single characters:
each lane gathers an unaligned 64-bit window of the sequence (8 symbols),
XORs pattern against text, converts the trailing matching bits into a
symbol count (``RBIT`` + ``CLZ`` + shift), clamps against the sequence
ends and advances:

    while any lane active:
        a = gather64(pattern, v);  b = gather64(text, h)
        c = ctz(a ^ b) >> 3                      # matching symbols
        c = min(c, m - v, n - h)
        v += c; h += c
        active = (c == 8) & (v < m) & (h < n)

Production kernels also *software-pipeline* the loop across independent
diagonal chunks so the gather/ALU latency chain of one chunk hides under
the issue slots of the others; :func:`run_interleaved` reproduces this by
round-robining one iteration of every live chunk, which the scoreboard
overlaps naturally.  With many chunks the wave becomes issue-bound
(gather AGU occupancy — the bottleneck the paper attacks); with one chunk
it degenerates to the serial latency chain.

Per-window Python execution is exact but too slow for 30Kbp reads.
The fast path works on a whole wave at once, as a ``(chunk, lane)``
matrix: :func:`run_lengths` finds every lane's match run in a few NumPy
passes, :class:`LoopCostModel` measures the loop body's issue occupancy
and serial cost per active-lane count once, and
:func:`account_wave_extend` replays the wave in closed form as
``max(issue-bound, longest-chunk serial bound)``.  Tests pin the fast
path against the instruction-level path.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.cache import CALIBRATION
from repro.config import SystemConfig
from repro.errors import MachineError
from repro.vector.fleet import FleetStep, drive_serial, session_step
from repro.vector.machine import VectorMachine
from repro.vector.program import ReplaySession
from repro.vector.register import Pred, SimBuffer, VReg
from repro.vector.stats import MachineStats

#: Symbols per 64-bit window in the byte-oriented VEC loop.
VEC_WINDOW = 8


class ExtendConsts:
    """Loop-invariant broadcast registers, hoisted once per pair."""

    __slots__ = (
        "m_len", "n_len", "window", "mvec", "nvec", "mtop", "ntop", "wtop",
        "replay",
    )

    def __init__(
        self, machine: VectorMachine, m_len: int, n_len: int, window: int
    ) -> None:
        self.m_len = m_len
        self.n_len = n_len
        self.window = window
        self.mvec = machine.dup(m_len, ebits=64)
        self.nvec = machine.dup(n_len, ebits=64)
        self.mtop = machine.dup(m_len - 1, ebits=64)
        self.ntop = machine.dup(n_len - 1, ebits=64)
        self.wtop = machine.dup(window - 1, ebits=64)
        #: Replay sessions per (machine, buffers) using these constants
        #: (see :mod:`repro.vector.program`); the captured programs bake
        #: the broadcast registers above, so the cache lives here.
        self.replay = {}


class ChunkState:
    """Mutable per-chunk loop state: offsets and the live predicate."""

    __slots__ = ("v", "h", "inb")

    def __init__(self, v: VReg, h: VReg, inb: Pred) -> None:
        self.v = v
        self.h = h
        self.inb = inb

    @property
    def alive(self) -> bool:
        return bool(self.inb.data.any())


def enter_extend(
    machine: VectorMachine,
    consts: ExtendConsts,
    v: VReg,
    h: VReg,
    active: Pred,
) -> ChunkState:
    """Loop entry: build the in-bounds predicate."""
    pv = machine.cmp("lt", v, consts.m_len, pred=active)
    inb = machine.cmp("lt", h, consts.n_len, pred=pv)
    return ChunkState(v, h, inb)


def enter_extend_many(
    machine: VectorMachine,
    consts: ExtendConsts,
    chunks: list[tuple[VReg, VReg, Pred]],
) -> list[ChunkState]:
    """Stage-major loop entry for a set of chunks (overlaps the cmps)."""
    pvs = [
        machine.cmp("lt", v, consts.m_len, pred=a) for v, _h, a in chunks
    ]
    inbs = [
        machine.cmp("lt", h, consts.n_len, pred=pv)
        for (_v, h, _a), pv in zip(chunks, pvs)
    ]
    return [
        ChunkState(v, h, inb) for (v, h, _a), inb in zip(chunks, inbs)
    ]


def vec_step(
    machine: VectorMachine,
    pbuf: SimBuffer,
    tbuf: SimBuffer,
    consts: ExtendConsts,
    st: ChunkState,
) -> None:
    """One iteration of the VEC word-window extend body."""
    m = machine
    inb = st.inb
    a = m.gather64(pbuf, st.v, pred=inb)
    b = m.gather64(tbuf, st.h, pred=inb)
    x = m.xor(a, b, pred=inb)
    tz = m.clz(m.rbit(x, pred=inb), pred=inb)
    cnt = m.shr(tz, 3, pred=inb)
    c = m.min(cnt, m.sub(consts.mvec, st.v, pred=inb), pred=inb)
    c = m.min(c, m.sub(consts.nvec, st.h, pred=inb), pred=inb)
    st.v = m.add(st.v, c, pred=inb)
    st.h = m.add(st.h, c, pred=inb)
    full = m.cmp("eq", c, VEC_WINDOW, pred=inb)
    pv = m.cmp("lt", st.v, consts.m_len, pred=full)
    st.inb = m.cmp("lt", st.h, consts.n_len, pred=pv)


def vec_extend(
    machine: VectorMachine,
    pbuf: SimBuffer,
    tbuf: SimBuffer,
    v: VReg,
    h: VReg,
    active: Pred,
    m_len: int,
    n_len: int,
    consts: ExtendConsts | None = None,
    iter_hook=None,
):
    """Standalone (single-chunk, serial) extend; returns (v, h)."""
    if consts is None:
        consts = ExtendConsts(machine, m_len, n_len, VEC_WINDOW)
    st = enter_extend(machine, consts, v, h, active)
    if iter_hook is None and ReplaySession.enabled(machine):
        # Capture the loop body once per (machine, buffers) and hand the
        # whole guard loop to the session: with trace trees on it runs
        # loop-in-kernel (the ``ptest_spec`` guard compiled into the
        # trace, mismatch tails on compiled side exits); otherwise the
        # guard branch stays interpreted between per-block replays.
        key = (id(machine), id(pbuf), id(tbuf))
        session = consts.replay.get(key)
        if session is None:
            session = consts.replay[key] = ReplaySession(
                machine,
                lambda mm, ss: vec_step(mm, pbuf, tbuf, consts, ss),
                name="vec-extend",
            )
        session.run_loop(st)
        return st.v, st.h
    while machine.ptest_spec(st.inb):
        vec_step(machine, pbuf, tbuf, consts, st)
        if iter_hook is not None:
            iter_hook(machine)
    return st.v, st.h


def interleave_requests(machine: VectorMachine, chunks: list, request_fn):
    """Generator core of :func:`run_interleaved` for the fleet driver.

    Yields one :class:`~repro.vector.fleet.FleetStep` per live chunk per
    round.  The driver *executes* the request before resuming the
    generator, so the ``POR``/``ptest`` guard sequence after each
    ``yield`` sees the post-step ``inb`` — per-machine op order is
    exactly the inline loop's.
    """
    combined = None
    live = []
    for st in chunks:
        combined = st.inb if combined is None else machine.por(combined, st.inb)
        if st.alive:
            live.append(st)
    if combined is None or not machine.ptest_spec(combined):
        return
    while live:
        combined = None
        for st in live:
            yield request_fn(st)
            combined = st.inb if combined is None else machine.por(combined, st.inb)
        machine.ptest_spec(combined)
        live = [c for c in live if c.alive]


def run_interleaved(machine: VectorMachine, chunks: list, step_fn) -> None:
    """Round-robin one iteration of every live chunk (software pipelining).

    ``chunks`` holds :class:`ChunkState` objects after :func:`enter_extend`;
    ``step_fn(machine, state)`` emits one loop-body iteration.  Each round
    issues every live chunk's body back-to-back, so the scoreboard hides
    one chunk's latency chain under the others'; the round loop branches
    once per round on a combined live predicate (one ``POR`` per chunk +
    a single predicted test), so only the final wave exit mispredicts.
    """
    drive_serial(
        interleave_requests(
            machine,
            chunks,
            lambda st: FleetStep(
                machine, lambda st=st: step_fn(machine, st)
            ),
        )
    )


# ----------------------------------------------------------------------
# Iteration math shared by all window loops
# ----------------------------------------------------------------------
def window_iterations(
    runs: np.ndarray, bounds: np.ndarray, entered: np.ndarray, window: int
) -> np.ndarray:
    """Loop iterations per lane of a window-at-a-time extend loop.

    A lane with run ``L`` consumes ``L // window + 1`` iterations (the
    last window is partial or empty), except when the run ends exactly on
    a window boundary *at* the sequence boundary (``L % window == 0`` and
    ``L == B``), where the bounds check retires the lane one iteration
    earlier.  Lanes that never enter iterate zero times.
    """
    runs = np.asarray(runs, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    base = runs // window + 1
    exact = (runs % window == 0) & (runs == bounds) & (runs > 0)
    iters = np.where(exact, runs // window, base)
    return np.where(entered & (bounds > 0), iters, 0)


def extend_iterations(
    runs: np.ndarray, bounds: np.ndarray, entered: np.ndarray
) -> np.ndarray:
    """Iterations of the VEC loop (8-symbol windows)."""
    return window_iterations(runs, bounds, entered, VEC_WINDOW)


#: Block sizes of :func:`run_lengths`: the first block after the first
#: symbol, then at least double the last one, at least ``_RUN_SPREAD``
#: symbols spread over the lanes still matching (usually one or two, on
#: the alignment path), at most ``_RUN_BLOCK_MAX`` and at most
#: ``_RUN_PASS_MAX`` symbols per pass over all lanes, which bounds the
#: temporaries.
_RUN_BLOCK = 16
_RUN_SPREAD = 1 << 10
_RUN_BLOCK_MAX = 1 << 12
_RUN_PASS_MAX = 1 << 16


def run_lengths(
    p: np.ndarray, t: np.ndarray, v: np.ndarray, h: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """Match-run lengths of every live lane, in a few NumPy passes.

    Equals :func:`~repro.align.wavefront.lcp` ``(p, t, v, h)`` on each
    lane of ``live`` (offsets are non-negative) and 0 elsewhere: a lane
    at or past either sequence end, or whose first symbols differ, runs
    0; every other lane stops at its first mismatch or the shorter end.
    The first symbols are compared for all lanes at once, then blocks of
    growing length for the lanes still matching.
    """
    m, n = len(p), len(t)
    runs = np.zeros(v.shape, dtype=np.int64)
    lim = np.minimum(m - v, n - h)
    lanes = np.flatnonzero(live & (lim > 0))
    vs = v.reshape(-1)[lanes]
    hs = h.reshape(-1)[lanes]
    same = p[vs] == t[hs]
    lanes, vs, hs = lanes[same], vs[same], hs[same]
    lims = lim.reshape(-1)[lanes]
    flat = runs.reshape(-1)
    done, block = 1, _RUN_BLOCK
    while lanes.size:
        ks = np.arange(done, done + block)
        # Positions past a lane's end are clipped for the gather and
        # stop it through ``lims``.
        stop = ks >= lims[:, None]
        stop |= p.take(vs[:, None] + ks, mode="clip") != t.take(
            hs[:, None] + ks, mode="clip"
        )
        hit = stop.any(axis=1)
        flat[lanes[hit]] = done + stop[hit].argmax(axis=1)
        more = ~hit
        lanes, vs, hs, lims = lanes[more], vs[more], hs[more], lims[more]
        done += block
        left = max(1, lanes.size)
        block = max(_RUN_BLOCK, min(
            _RUN_BLOCK_MAX, _RUN_PASS_MAX // left,
            max(2 * block, _RUN_SPREAD // left),
        ))
    return runs


# ----------------------------------------------------------------------
# Measured loop costs
# ----------------------------------------------------------------------
class _StopLoop(Exception):
    """Internal: bounds a measurement run."""


class LoopCostModel:
    """Measured steady-state per-iteration cost of an extend loop.

    ``per_iteration(k)`` is the :class:`MachineStats` delta of one serial
    loop-body iteration with ``k`` active lanes: its ``busy`` counters are
    the issue occupancy (the issue-bound contribution under pipelining)
    and its ``cycles`` the serial latency chain.  ``entry()`` is the fixed
    entry/exit cost.  Measurements run once per parameter set and are
    kept in the shared calibration cache (:mod:`repro.cache`), which can
    persist them across processes and CLI runs.
    """

    kind = "base"
    lanes_ebits = 64

    def __init__(self, system: SystemConfig) -> None:
        self.system = system
        self.lanes = system.lanes_for(self.lanes_ebits)
        self._memo: dict | None = None
        self._key = ("loop-cost", self.kind) + self._key_extra() + (
            system.vlen_bits,
            system.lat_gather_base,
            system.lat_vector_arith,
            system.lat_predicate,
            system.mispredict_penalty,
            system.l1d.load_to_use,
        )

    def _key_extra(self) -> tuple:
        return ()

    # -- subclass hooks -------------------------------------------------
    def _setup(self) -> tuple[VectorMachine, object]:
        """Build a scratch machine + context with long all-match sequences."""
        raise NotImplementedError

    def _run(self, machine, ctx, v, h, act, length, hook) -> None:
        raise NotImplementedError

    # -- measurement ----------------------------------------------------
    def _measure(self) -> dict:
        table: dict = {}
        for k in range(0, self.lanes + 1):
            machine, ctx = self._setup()
            length = 4096
            v0 = np.where(np.arange(self.lanes) < k, 0, length)
            v = machine.from_values(v0, self.lanes_ebits)
            h = machine.from_values(v0, self.lanes_ebits)
            act = machine.ptrue(self.lanes_ebits)
            machine.barrier()
            if k == 0:
                before = machine.snapshot()
                self._run(machine, ctx, v, h, act, length, None)
                machine.barrier()
                table["entry"] = machine.snapshot().delta(before)
                continue
            snaps: list[MachineStats] = []
            seen = [0]

            def hook(m, _s=snaps, _n=seen):
                _s.append(m.snapshot())
                _n[0] += 1
                if _n[0] >= 6:
                    raise _StopLoop()

            try:
                self._run(machine, ctx, v, h, act, length, hook)
            except _StopLoop:
                pass
            table[k] = snaps[4].delta(snaps[3])
        return table

    def _table(self) -> dict:
        if self._memo is None:
            table = CALIBRATION.get(self._key)
            if table is None:
                table = self._measure()
                CALIBRATION.put(self._key, table)
            self._memo = table
        return self._memo

    # -- replay ---------------------------------------------------------
    def per_iteration(self, k: int) -> MachineStats:
        if not 0 <= k <= self.lanes:
            raise MachineError(f"active count {k} out of range")
        if k == 0:
            return MachineStats()
        return self._table()[k]

    def entry(self) -> MachineStats:
        return self._table()["entry"]

    @property
    def stall_category(self) -> str:
        """Category carrying exposed dependency latency in fast replays."""
        return "vector"


class ExtendCostModel(LoopCostModel):
    """Cost of the VEC word-window extend loop."""

    kind = "vec-window"
    lanes_ebits = 64

    def _setup(self):
        machine = VectorMachine(self.system)
        length = 4096
        data = np.zeros(length, dtype=np.uint8)
        pbuf = machine.new_buffer("p", data, elem_bytes=1)
        tbuf = machine.new_buffer("t", data, elem_bytes=1)
        machine.mem.touch(pbuf.base, length)
        machine.mem.touch(tbuf.base, length)
        consts = ExtendConsts(machine, length, length, VEC_WINDOW)
        return machine, (pbuf, tbuf, consts)

    def _run(self, machine, ctx, v, h, act, length, hook):
        pbuf, tbuf, consts = ctx
        vec_extend(
            machine, pbuf, tbuf, v, h, act, length, length,
            consts=consts, iter_hook=hook,
        )

    @property
    def stall_category(self) -> str:
        return "memory"


def account_wave_extend(
    machine: VectorMachine, cost_model: LoopCostModel, iters: np.ndarray
) -> int:
    """Fast-path replay of one interleaved wave of extend chunks.

    ``iters`` holds each lane's loop iterations, one row per chunk.  A
    chunk's iteration ``j`` runs the lanes with at least ``j`` iterations,
    so with a row sorted descending (``s``) exactly ``s[k-1] - s[k]`` of
    its iterations have ``k`` active lanes.  Instruction and busy (issue)
    counters sum exactly; the clock advances by ``max(total issue,
    longest chunk's serial time)`` — the software-pipelining bound.
    Returns total iterations (for QBUFFER read accounting by QUETZAL
    callers).
    """
    entry = cost_model.entry()
    n_chunks, width = iters.shape
    desc = np.sort(iters, axis=1)[:, ::-1]
    # cnt[c, k-1]: iterations of chunk c with exactly k active lanes.
    cnt = desc.copy()
    cnt[:, :-1] -= desc[:, 1:]
    present = cnt > 0
    ks = np.flatnonzero(present.any(axis=0)) + 1
    # Counter keys keep the order an iteration-by-iteration walk would
    # insert them in (chunk by chunk, k descending within a chunk): the
    # order reaches the emitted records.
    first = present.argmax(axis=0)[ks - 1]
    hist = cnt.sum(axis=0).tolist()
    instructions: Counter = Counter()
    busy: Counter = Counter()
    per_cycles = np.zeros(width, dtype=np.int64)
    for k in ks[np.lexsort((-ks, first))].tolist():
        per = cost_model.per_iteration(k)
        times = hist[k - 1]
        for cat, n in per.instructions.items():
            instructions[cat] += n * times
        for cat, n in per.busy.items():
            busy[cat] += n * times
        per_cycles[k - 1] = per.cycles
    serial_worst = entry.cycles + int((cnt @ per_cycles).max())
    for cat, n in entry.instructions.items():
        instructions[cat] += n * n_chunks
    for cat, n in entry.busy.items():
        busy[cat] += n * n_chunks
    # The interleaved schedule branches once per *round*, so only one
    # wave-exit branch mispredicts; the measured per-chunk entry includes
    # one mispredict, credited back for all chunks but the first.
    penalty = machine.system.mispredict_penalty
    extra_stall = max(
        0,
        entry.stall.get("control", 0) * n_chunks
        - penalty * max(0, n_chunks - 1),
    )
    issue_total = sum(busy.values())
    extra = max(extra_stall, serial_worst - issue_total)
    machine.account_mix(
        instructions, busy, extra_stall=extra,
        stall_category=cost_model.stall_category,
    )
    return sum(hist)


def account_extend_memory(
    machine: VectorMachine,
    pbuf: SimBuffer,
    tbuf: SimBuffer,
    v0: np.ndarray,
    h0: np.ndarray,
    iters: np.ndarray,
) -> None:
    """Fast-path memory accounting for a wave of VEC extend chunks.

    ``v0``/``h0``/``iters`` are ``(chunk, lane)`` matrices.  The
    instruction-level loop issues one 8-byte window access per active
    lane per iteration to each sequence.  The fast path touches each
    chunk's distinct cache lines once, in one sorted batch per chunk and
    in chunk order (keeping hierarchy contents truthful and charging
    cold-line penalties), and accounts the remaining requests as the L1
    hits they would have been.
    """
    requests = 2 * iters.sum(axis=1)
    if not requests.any():
        return
    line = machine.system.l1d.line_bytes
    l1_lat = machine.system.l1d.load_to_use
    chunk, lane = np.nonzero(iters > 0)
    it = iters[chunk, lane]
    firsts, counts = [], []
    for buf, starts in ((pbuf, v0), (tbuf, h0)):
        s = starts[chunk, lane]
        a0 = buf.base + s * buf.elem_bytes
        a1 = buf.base + np.minimum(
            len(buf.data) - 1, s + it * VEC_WINDOW
        ) * buf.elem_bytes
        firsts.append(a0 // line)
        counts.append(np.maximum(a1 // line - a0 // line + 1, 0))
    first = np.concatenate(firsts)
    count = np.concatenate(counts)
    # Expand each lane's [first, last] line interval, then dedupe and sort
    # per chunk through (chunk, line) keys.
    lines = np.repeat(first - (np.cumsum(count) - count), count)
    lines += np.arange(lines.size)
    owner = np.repeat(np.concatenate((chunk, chunk)), count)
    span = int(lines.max()) + 1 if lines.size else 1
    keys = np.sort(owner * span + lines)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    keys = keys[fresh]
    addrs = (keys % span) * line
    bounds = np.searchsorted(keys // span, np.arange(len(requests) + 1))
    touched = np.flatnonzero(requests)
    latencies = [
        machine.mem.access_line_batch(addrs[lo:hi])
        for lo, hi in zip(bounds[touched].tolist(), bounds[touched + 1].tolist())
    ]
    machine.mem.account_extra_hits(
        int(np.maximum(requests - np.diff(bounds), 0).sum())
    )
    # The latencies line up with ``addrs``; the hierarchy does not read
    # the machine clock, so the stalls can follow the whole walk.
    excess = np.cumsum(np.maximum(np.concatenate(latencies) - l1_lat, 0))
    excess = np.concatenate(([0], excess))
    stalls = excess[bounds[1:]] - excess[bounds[:-1]]
    for c in np.flatnonzero(stalls).tolist():
        machine.account_block(
            "memory", stall=int(stalls[c]), stall_category="memory"
        )


# ----------------------------------------------------------------------
# Kernel strategies + the shared chunk orchestrator
# ----------------------------------------------------------------------
class ExtendKernel:
    """One extend style (VEC / QZ / QZ+C, forward or backward).

    Bundles the loop-body step, the window size, the functional view of
    the sequences, the cost model used by the fast path, and how the fast
    path accounts the style's memory traffic.
    """

    window: int = VEC_WINDOW

    def consts(self, machine: VectorMachine, m_len: int, n_len: int) -> ExtendConsts:
        return ExtendConsts(machine, m_len, n_len, self.window)

    def step(self, machine: VectorMachine, consts: ExtendConsts, st: ChunkState):
        raise NotImplementedError

    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Functional symbol arrays (pattern, text) the loop compares."""
        raise NotImplementedError

    def cost_model(self, machine: VectorMachine) -> LoopCostModel:
        raise NotImplementedError

    def account_memory(
        self,
        machine: VectorMachine,
        v0: np.ndarray,
        h0: np.ndarray,
        iters: np.ndarray,
        total_iters: int,
    ) -> None:
        """Fast-path traffic accounting for one wave; ``v0``/``h0``/``iters``
        are its ``(chunk, lane)`` matrices."""
        raise NotImplementedError


class VecExtendKernel(ExtendKernel):
    """Word-window gathers from cached sequence buffers."""

    window = VEC_WINDOW

    def __init__(self, pbuf: SimBuffer, tbuf: SimBuffer) -> None:
        self.pbuf = pbuf
        self.tbuf = tbuf

    def step(self, machine, consts, st):
        vec_step(machine, self.pbuf, self.tbuf, consts, st)

    def codes(self):
        return self.pbuf.data, self.tbuf.data

    def cost_model(self, machine):
        return ExtendCostModel(machine.system)

    def account_memory(self, machine, v0, h0, iters, total_iters):
        account_extend_memory(machine, self.pbuf, self.tbuf, v0, h0, iters)


def extend_chunks(
    machine: VectorMachine,
    kernel: ExtendKernel,
    consts: ExtendConsts,
    chunks: list[tuple[VReg, VReg, Pred]],
    fast: bool,
    cost_model: LoopCostModel | None = None,
) -> list[tuple[VReg, np.ndarray]]:
    """Extend a set of lane chunks; returns per-chunk (h', runs).

    Slow mode interleaves every chunk's loop (software pipelining);
    fast mode derives iteration counts from run lengths and replays the
    measured wave bound.  This is the inline driver over
    :func:`extend_chunks_gen` — the fleet scheduler drives the same
    generator across pairs.
    """
    return drive_serial(
        extend_chunks_gen(machine, kernel, consts, chunks, fast, cost_model)
    )


def extend_chunks_gen(
    machine: VectorMachine,
    kernel: ExtendKernel,
    consts: ExtendConsts,
    chunks: list[tuple[VReg, VReg, Pred]],
    fast: bool,
    cost_model: LoopCostModel | None = None,
):
    """Generator form of :func:`extend_chunks` yielding fleet requests.

    Each loop-body iteration is yielded as a
    :class:`~repro.vector.fleet.FleetStep` so the fleet scheduler can fuse
    it with the matching iteration of other pairs; the fast path never
    yields.  Returns the same per-chunk ``(h', runs)`` list (via
    ``StopIteration.value`` / ``yield from``).
    """
    if not chunks:
        return []
    m_len, n_len = consts.m_len, consts.n_len
    if not fast:
        states = enter_extend_many(machine, consts, chunks)
        if ReplaySession.enabled(machine):
            # All chunks share one captured body (they run the same
            # straight-line step); the session lives on the kernel so
            # successive columns/waves of one pair keep replaying it.
            cached = getattr(kernel, "_replay_session", None)
            if (
                cached is None
                or cached[0] is not machine
                or cached[1] is not consts
            ):
                session = ReplaySession(
                    machine,
                    lambda mm, ss: kernel.step(mm, consts, ss),
                    name=type(kernel).__name__,
                )
                kernel._replay_session = cached = (machine, consts, session)
            session = cached[2]
            request_fn = lambda ss: session_step(session, ss)  # noqa: E731
        else:
            request_fn = lambda ss: FleetStep(  # noqa: E731
                machine, lambda ss=ss: kernel.step(machine, consts, ss)
            )
        yield from interleave_requests(machine, states, request_fn)
        out = []
        for st, (v, h, valid) in zip(states, chunks):
            out.append((st.h, st.h.data - h.data))
        return out
    if cost_model is None:
        cost_model = kernel.cost_model(machine)
    p_codes, t_codes = kernel.codes()
    # The whole wave as (chunk, lane) matrices; callers pass equal-width
    # chunks.
    valid = np.array([a.data for _v, _h, a in chunks])
    h = np.array([hc.data for _v, hc, _a in chunks])
    v0 = np.where(valid, np.array([vc.data for vc, _h, _a in chunks]), 0)
    h0 = np.where(valid, h, 0)
    runs = run_lengths(p_codes, t_codes, v0, h0, valid)
    bounds = np.minimum(m_len - v0, n_len - h0)
    entered = valid & (v0 < m_len) & (h0 < n_len)
    iters = window_iterations(runs, bounds, entered, kernel.window)
    total = account_wave_extend(machine, cost_model, iters)
    kernel.account_memory(machine, v0, h0, iters, total)
    new_h = np.where(valid, h + runs, h)
    # The last iteration's arithmetic tail is still in flight when the
    # accounting block ends; consumers (the wavefront stores) wait for it.
    ready = machine.clock + 2 * machine.system.lat_vector_arith
    category = cost_model.stall_category
    return [
        (VReg._wrap(row, 64, ready, category), r) for row, r in zip(new_h, runs)
    ]
