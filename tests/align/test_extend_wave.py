"""The wave-wide extend fast path against the per-chunk path it replaced.

``extend_chunks(..., fast=True)`` treats a wave as one ``(chunk, lane)``
matrix: one run-length pass, a closed-form iteration replay and one line
set per chunk built from vectorized intervals.  The oracle below is the
earlier per-chunk implementation (scalar ``lcp`` per lane, one
``Counter`` update per loop iteration, Python line sets per lane), kept
verbatim.  Both run on identical machines and must leave identical
results, counters (in key order), clocks, memory and QBUFFER state and
trace events.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.quetzal_impl.qz_extend import QzKernel, stage_pair_in_qbuffers
from repro.align.vectorized.extend_loop import (
    VEC_WINDOW,
    LoopCostModel,
    VecExtendKernel,
    account_wave_extend,
    extend_chunks,
    run_lengths,
    window_iterations,
)
from repro.align.wavefront import lcp
from repro.config import SystemConfig
from repro.errors import MachineError
from repro.eval.runner import make_machine
from repro.genomics.sequence import Sequence
from repro.vector.machine import VectorMachine
from repro.vector.register import Pred, VReg
from repro.vector.stats import MachineStats


# ----------------------------------------------------------------------
# Oracle: the per-chunk fast path
# ----------------------------------------------------------------------
def oracle_lane_iterations(p_codes, t_codes, v, h, valid, m_len, n_len, window):
    mask = valid.data
    v0 = np.where(mask, v.data, 0)
    h0 = np.where(mask, h.data, 0)
    runs = np.zeros(len(mask), dtype=np.int64)
    for i in np.flatnonzero(mask):
        runs[i] = lcp(p_codes, t_codes, int(v0[i]), int(h0[i]))
    bounds = np.minimum(m_len - v0, n_len - h0)
    entered = mask & (v0 < m_len) & (h0 < n_len)
    iters = window_iterations(runs, bounds, entered, window)
    return runs, iters, v0, h0


def oracle_active_counts(iters):
    """Per-iteration active-lane counts: ``a_j = #{i: iters_i >= j}``."""
    iters = np.asarray(iters, dtype=np.int64)
    max_iter = int(iters.max()) if iters.size else 0
    if max_iter == 0:
        return np.zeros(0, dtype=np.int64)
    hist = np.bincount(iters[iters > 0], minlength=max_iter + 1)
    return np.cumsum(hist[::-1])[::-1][1:]


def oracle_account_wave_extend(machine, cost_model, chunk_iter_series):
    entry = cost_model.entry()
    penalty = machine.system.mispredict_penalty
    instructions = Counter()
    busy = Counter()
    extra_stall = 0
    total_iters = 0
    serial_worst = 0
    n_chunks = len(chunk_iter_series)
    for counts in chunk_iter_series:
        serial = entry.cycles
        for k in counts.tolist():
            if k == 0:
                continue
            per = cost_model.per_iteration(int(k))
            instructions.update(per.instructions)
            busy.update(per.busy)
            serial += per.cycles
            total_iters += 1
        serial_worst = max(serial_worst, serial)
    for _ in range(n_chunks):
        instructions.update(entry.instructions)
        busy.update(entry.busy)
    extra_stall += entry.stall.get("control", 0) * n_chunks - penalty * max(
        0, n_chunks - 1
    )
    extra_stall = max(0, extra_stall)
    issue_total = sum(busy.values())
    extra = max(extra_stall, serial_worst - issue_total)
    machine.account_mix(
        instructions, busy, extra_stall=extra,
        stall_category=cost_model.stall_category,
    )
    return total_iters


def oracle_account_extend_memory(machine, pbuf, tbuf, v0, h0, iters):
    total_requests = 2 * int(iters.sum())
    if total_requests == 0:
        return
    line = machine.system.l1d.line_bytes
    l1_lat = machine.system.l1d.load_to_use
    lines = set()
    for buf, starts in ((pbuf, v0), (tbuf, h0)):
        for s, it in zip(starts.tolist(), iters.tolist()):
            if it <= 0:
                continue
            a0 = buf.addr_of(int(s))
            a1 = buf.addr_of(min(len(buf.data) - 1, int(s) + int(it) * VEC_WINDOW))
            lines.update(range(a0 - a0 % line, a1 + 1, line))
    latencies = machine.mem.access_line_batch(
        np.fromiter(sorted(lines), dtype=np.int64, count=len(lines))
    )
    extra = int(np.maximum(latencies - l1_lat, 0).sum())
    machine.mem.account_extra_hits(max(0, total_requests - len(lines)))
    if extra:
        machine.account_block("memory", stall=extra, stall_category="memory")


def oracle_extend_chunks(machine, kernel, consts, chunks, cost_model):
    p_codes, t_codes = kernel.codes()
    series, chunk_mem, results = [], [], []
    for v, h, valid in chunks:
        runs, iters, v0, h0 = oracle_lane_iterations(
            p_codes, t_codes, v, h, valid, consts.m_len, consts.n_len,
            kernel.window,
        )
        series.append(oracle_active_counts(iters))
        chunk_mem.append((v0, h0, iters))
        results.append((np.where(valid.data, h.data + runs, h.data), runs))
    total = oracle_account_wave_extend(machine, cost_model, series)
    if isinstance(kernel, VecExtendKernel):
        for v0, h0, iters in chunk_mem:
            oracle_account_extend_memory(
                machine, kernel.pbuf, kernel.tbuf, v0, h0, iters
            )
    else:
        kernel.qz.qbuf[0].reads += total
        kernel.qz.qbuf[1].reads += total
    ready = machine.clock + 2 * machine.system.lat_vector_arith
    return [
        (VReg(new_h, 64, ready, category=cost_model.stall_category), runs)
        for new_h, runs in results
    ]


# ----------------------------------------------------------------------
# Set-up and state capture
# ----------------------------------------------------------------------
KERNELS = ("vec", "qz", "qzc", "qz-rev", "qzc-rev")


def make_kernel(kind: str, pattern: str, text: str):
    """A traced machine with ``pattern``/``text`` staged for ``kind``."""
    if kind == "vec":
        machine = VectorMachine(SystemConfig())
        pbuf = machine.new_buffer("p", Sequence(pattern).codes, elem_bytes=1)
        tbuf = machine.new_buffer("t", Sequence(text).codes, elem_bytes=1)
        kernel = VecExtendKernel(pbuf, tbuf)
    else:
        machine = make_machine(quetzal=True)
        stage_pair_in_qbuffers(machine, Sequence(pattern), Sequence(text))
        style, _, rev = kind.partition("-")
        kernel = QzKernel(machine, style, backward=bool(rev))
    machine.attach_tracer(capacity=1 << 16)
    consts = kernel.consts(machine, len(pattern), len(text))
    return machine, kernel, consts


def machine_state(machine: VectorMachine) -> dict:
    l1 = machine.mem.l1
    qz = machine.quetzal
    return {
        "instructions": list(machine._instructions.items()),
        "busy": list(machine._busy.items()),
        "stall": list(machine._stall.items()),
        "clock": machine.clock,
        "max_complete": machine._max_complete,
        "mem": machine.mem.stats(),
        "l1": (sorted(l1._slot_of.items()), list(l1._tick), l1._clock),
        "qz_reads": None if qz is None else [b.reads for b in qz.qbuf],
        "events": machine.tracer.events(),
        "trace": machine.tracer.summary(),
    }


def as_chunks(wave):
    """Fresh registers for one wave: [(v, h, valid)] of equal width."""
    return [
        (VReg(np.array(v), 64), VReg(np.array(h), 64), Pred(np.array(ok), 64))
        for v, h, ok in wave
    ]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def random_dna(length: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    return "".join(np.array(list("ACGT"))[rng.integers(0, 4, length)])


@st.composite
def similar_pair(draw):
    """A pattern and a text that mostly agrees with it, so some lanes run
    well past the first compare block; sometimes an unrelated text.  Up
    to ~1.5 Kbp, so chunks of one wave can touch disjoint cold lines."""
    pattern = random_dna(draw(st.integers(1, 1500)), draw(st.integers(0, 999)))
    if draw(st.booleans()):
        return pattern, random_dna(
            draw(st.integers(1, 1500)), draw(st.integers(1000, 1999))
        )
    text = list(pattern)
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(text) - 1))
        op = draw(st.sampled_from(("sub", "ins", "del")))
        base = draw(st.sampled_from("ACGT"))
        if op == "sub":
            text[pos] = base
        elif op == "ins":
            text.insert(pos, base)
        elif len(text) > 1:
            del text[pos]
    return pattern, "".join(text)


@st.composite
def waves_for(draw, m: int, n: int):
    """One to three waves of chunks; lanes are masked, on or near the
    main diagonals, or at or past either sequence end."""
    width = draw(st.sampled_from((1, 8)))
    waves = []
    for _ in range(draw(st.integers(1, 3))):
        wave = []
        for _ in range(draw(st.integers(1, 5))):
            vs, hs, oks = [], [], []
            for _ in range(width):
                v = draw(st.integers(0, m + 2))
                if draw(st.booleans()):
                    h = max(0, v + draw(st.integers(-3, 3)))
                else:
                    h = draw(st.integers(0, n + 2))
                vs.append(v)
                hs.append(h)
                oks.append(draw(st.booleans()) or draw(st.booleans()))
            wave.append((vs, hs, oks))
        waves.append(wave)
    return waves


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestRunLengths:
    @given(similar_pair(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_lcp(self, pair, data):
        p = Sequence(pair[0]).codes.astype(np.int64)
        t = Sequence(pair[1]).codes.astype(np.int64)
        waves = data.draw(waves_for(len(p), len(t)))
        for wave in waves:
            v = np.array([c[0] for c in wave], dtype=np.int64)
            h = np.array([c[1] for c in wave], dtype=np.int64)
            live = np.array([c[2] for c in wave], dtype=bool)
            expect = np.zeros_like(v)
            for i in zip(*np.nonzero(live)):
                expect[i] = lcp(p, t, int(v[i]), int(h[i]))
            assert run_lengths(p, t, v, h, live).tolist() == expect.tolist()

    def test_long_run_spans_several_blocks(self):
        p = np.zeros(10_000, dtype=np.int64)
        t = p.copy()
        t[9_000] = 1
        v = np.array([[0, 5, 9_000, 9_999, 10_000]])
        live = np.ones_like(v, dtype=bool)
        assert run_lengths(p, t, v, v, live).tolist() == [[9_000, 8_995, 0, 1, 0]]

    def test_stops_at_the_shorter_end(self):
        p = np.zeros(50, dtype=np.int64)
        t = np.zeros(30, dtype=np.int64)
        v = np.array([[0, 40, 49]])
        h = np.array([[0, 0, 29]])
        live = np.ones_like(v, dtype=bool)
        assert run_lengths(p, t, v, h, live).tolist() == [[30, 10, 1]]


class TestWaveMatchesPerChunkPath:
    @pytest.mark.parametrize("kind", KERNELS)
    @given(pair=similar_pair(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_identical_state(self, kind, pair, data):
        pattern, text = pair
        waves = data.draw(waves_for(len(pattern), len(text)))
        fast, kernel_f, consts_f = make_kernel(kind, pattern, text)
        ref, kernel_r, consts_r = make_kernel(kind, pattern, text)
        model = kernel_f.cost_model(fast)
        for wave in waves:
            got = extend_chunks(
                fast, kernel_f, consts_f, as_chunks(wave), True, model
            )
            want = oracle_extend_chunks(
                ref, kernel_r, consts_r, as_chunks(wave), model
            )
            assert len(got) == len(want)
            for (gh, gruns), (wh, wruns) in zip(got, want):
                assert gh.data.tolist() == wh.data.tolist()
                assert (gh.ready, gh.category, gh.ebits) == (
                    wh.ready, wh.category, wh.ebits
                )
                assert gruns.tolist() == wruns.tolist()
            assert machine_state(fast) == machine_state(ref)


class _ShuffledCostModel(LoopCostModel):
    """Synthetic per-iteration costs whose counter keys come in a
    different order for every active-lane count, zero entries included,
    so the replay's key order is observable."""

    kind = "shuffled-test"

    def __init__(self) -> None:
        super().__init__(SystemConfig())
        cats = ["vector", "memory", "control", "scalar", "qbuffer"]
        table = {
            "entry": MachineStats(
                cycles=40,
                instructions=Counter({"scalar": 3, "control": 2}),
                busy=Counter({"control": 2, "scalar": 3}),
                stall=Counter({"control": 12}),
            )
        }
        for k in range(1, self.lanes + 1):
            order = cats[k % 5:] + cats[: k % 5]
            table[k] = MachineStats(
                cycles=3 * k + 5,
                instructions=Counter({c: (k + i) % 3 for i, c in enumerate(order)}),
                busy=Counter({c: (k * i) % 4 for i, c in enumerate(order[::-1])}),
            )
        self._memo = table


class TestClosedFormReplay:
    @given(
        st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 12), min_size=8, max_size=8),
                min_size=c, max_size=c,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_iteration_walk(self, rows):
        iters = np.array(rows, dtype=np.int64)
        model = _ShuffledCostModel()
        fast = VectorMachine(SystemConfig())
        ref = VectorMachine(SystemConfig())
        fast.attach_tracer(capacity=1 << 12)
        ref.attach_tracer(capacity=1 << 12)
        total = account_wave_extend(fast, model, iters)
        want = oracle_account_wave_extend(
            ref, model, [oracle_active_counts(r) for r in iters]
        )
        # One loop iteration per round of a chunk: its longest lane.
        assert total == want == int(iters.max(axis=1).sum())
        assert machine_state(fast) == machine_state(ref)

    def test_too_many_active_lanes_rejected(self):
        model = _ShuffledCostModel()
        with pytest.raises(MachineError):
            account_wave_extend(
                VectorMachine(SystemConfig()), model,
                np.ones((1, model.lanes + 1), dtype=np.int64),
            )


class TestActiveCounts:
    """The oracle's per-iteration active-lane counts."""

    def test_active_counts(self):
        counts = oracle_active_counts(np.array([0, 1, 3, 3]))
        assert counts.tolist() == [3, 2, 2]

    def test_active_counts_empty(self):
        assert oracle_active_counts(np.array([0, 0])).size == 0

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_active_counts_sum_equals_total_iters(self, iters):
        arr = np.asarray(iters)
        assert oracle_active_counts(arr).sum() == arr.sum()
