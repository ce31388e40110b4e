"""Serial-vs-replay identity tests for the recorded-program engine.

Every test runs the same op block twice — step-by-step on one machine,
capture-then-replay on another — and requires *bit-identical* machine
state: ``MachineStats`` (instructions, busy, per-category stall
attribution, memory counters), the clock, ``_max_complete``, and the
functional register values.
"""

import dataclasses
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import MachineError
from repro.vector.machine import VectorMachine, _clz_values, _ctz_values, _rbit_values
from repro.vector.program import REPLAY_METER, ReplaySession, capture


def fresh_machine():
    m = VectorMachine(SystemConfig())
    data = np.arange(4096, dtype=np.int64) % 251
    buf = m.new_buffer("b", data, elem_bytes=1)
    return m, buf


def run_both(body, iters=6, n_state=3):
    """Run ``body(machine, buf, *state) -> state`` serially and via
    capture/replay; return both (clock, maxc, snapshot, values) tuples."""
    results = []
    for mode in ("serial", "replay"):
        m, buf = fresh_machine()
        state = _initial_state(m, n_state)
        if mode == "serial":
            for _ in range(iters):
                state = body(m, buf, *state)
        else:
            prog = None
            for _ in range(iters):
                if prog is None:
                    state, prog = capture(
                        m, lambda rm, *ss: body(rm, buf, *ss), state
                    )
                    assert prog is not None, "block failed to capture"
                else:
                    out = prog.replay(m, state)
                    if out is None:  # declined: interpret this iteration
                        state = body(m, buf, *state)
                    else:
                        state = out
        m.barrier()
        values = tuple(
            tuple(np.asarray(s.data).tolist()) for s in state
        )
        results.append((m.clock, m._max_complete, m.snapshot(), values))
    return results


def _initial_state(m, n_state):
    lanes = m.lanes(64)
    v = m.from_values(np.arange(lanes) * 11, 64)
    h = m.from_values(np.arange(lanes) * 7 + 1, 64)
    inb = m.ptrue(64)
    return (v, h, inb)[:n_state]


def assert_identical(serial, replay):
    assert serial[0] == replay[0], f"clock {serial[0]} != {replay[0]}"
    assert serial[1] == replay[1], "_max_complete diverged"
    assert serial[2] == replay[2], (
        f"stats diverged:\nserial {serial[2]}\nreplay {replay[2]}"
    )
    assert serial[3] == replay[3], "register values diverged"


# ----------------------------------------------------------------------
# Op-by-op coverage
# ----------------------------------------------------------------------
BINOPS = ["add", "sub", "mul", "min", "max", "and", "or", "xor"]


class TestOpByOp:
    @pytest.mark.parametrize("op", BINOPS)
    def test_binop_reg_reg(self, op):
        def body(m, buf, v, h, inb):
            r = m.binop(op, v, h, pred=inb)
            v2 = m.add(v, 1, pred=inb)
            p = m.cmp("lt", v2, 4000, pred=inb)
            return v2, r, p

        assert_identical(*run_both(body))

    @pytest.mark.parametrize("op", BINOPS)
    def test_binop_reg_scalar(self, op):
        def body(m, buf, v, h, inb):
            r = m.binop(op, v, 13, pred=inb)
            v2 = m.add(v, 1, pred=inb)
            p = m.cmp("lt", v2, 4000, pred=inb)
            return v2, r, p

        assert_identical(*run_both(body))

    @pytest.mark.parametrize("op", ["eq", "ne", "lt", "le", "gt", "ge"])
    def test_cmp(self, op):
        def body(m, buf, v, h, inb):
            p = m.cmp(op, v, h, pred=inb)
            v2 = m.add(v, 3, pred=p)
            p2 = m.cmp("lt", v2, 4000, pred=inb)
            return v2, h, p2

        assert_identical(*run_both(body))

    def test_shifts(self):
        def body(m, buf, v, h, inb):
            a = m.shl(v, 2, pred=inb)
            b = m.shr(a, 3, pred=inb)
            v2 = m.add(b, 1, pred=inb)
            return v2, h, inb

        assert_identical(*run_both(body))

    def test_rbit_clz_pair_fuses_to_ctz(self):
        # The compiler fuses clz(rbit(x)) when the intermediate is dead;
        # timing and values must stay identical to the serial pair.
        def body(m, buf, v, h, inb):
            x = m.xor(v, h, pred=inb)
            tz = m.clz(m.rbit(x, pred=inb), pred=inb)
            v2 = m.add(v, m.shr(tz, 3, pred=inb), pred=inb)
            return v2, h, inb

        assert_identical(*run_both(body))

    def test_rbit_alone_and_clz_alone(self):
        # rbit whose result is *used* (not just fed to clz) must not fuse.
        def body(m, buf, v, h, inb):
            r = m.rbit(v, pred=inb)
            c = m.clz(r, pred=inb)
            keep = m.min(r, c, pred=inb)  # rbit output escapes
            return keep, h, inb

        assert_identical(*run_both(body))

    def test_sel_and_pred_logic(self):
        def body(m, buf, v, h, inb):
            p = m.cmp("lt", v, h, pred=inb)
            q = m.cmp("gt", v, 50, pred=inb)
            both = m.pand(p, q)
            either = m.por(p, q)
            picked = m.sel(both, v, h)
            v2 = m.add(picked, 1, pred=either)
            return v2, h, inb

        assert_identical(*run_both(body))

    def test_const_generators(self):
        def body(m, buf, v, h, inb):
            k = m.dup(9, ebits=64)
            i = m.iota(64, start=2, step=3)
            w = m.whilelt(0, 5, ebits=64)
            v2 = m.add(v, m.add(k, i, pred=w), pred=inb)
            return v2, h, inb

        assert_identical(*run_both(body))

    def test_gather64(self):
        def body(m, buf, v, h, inb):
            idx = m.and_(v, 1023, pred=inb)
            g = m.gather64(buf, idx, pred=inb)
            v2 = m.add(v, 7, pred=inb)
            h2 = m.xor(h, g, pred=inb)
            return v2, h2, inb

        assert_identical(*run_both(body))

    def test_load_store_roundtrip(self):
        def body(m, buf, v, h, inb):
            x = m.load(buf, 16, 64, pred=inb)
            s = m.add(x, 1, pred=inb)
            m.store(buf, 16, s, pred=inb)
            v2 = m.add(v, 1, pred=inb)
            return v2, s, inb

        assert_identical(*run_both(body))


# ----------------------------------------------------------------------
# Predicate edges (satellite: all-false and partially-active lanes)
# ----------------------------------------------------------------------
class TestPredicateEdges:
    def test_all_false_predicate(self):
        def body(m, buf, v, h, inb):
            dead = m.pfalse(64)
            idx = m.and_(v, 1023, pred=dead)
            g = m.gather64(buf, idx, pred=dead)
            x = m.xor(g, h, pred=dead)
            tz = m.clz(m.rbit(x, pred=dead), pred=dead)
            v2 = m.add(v, tz, pred=dead)
            p = m.cmp("lt", v2, 4000, pred=inb)
            return v2, h, p

        assert_identical(*run_both(body))

    def test_partially_active_predicate(self):
        def body(m, buf, v, h, inb):
            half = m.whilelt(0, 4, ebits=64)
            idx = m.and_(v, 1023, pred=half)
            g = m.gather64(buf, idx, pred=half)
            x = m.xor(g, h, pred=half)
            tz = m.clz(m.rbit(x, pred=half), pred=half)
            cnt = m.shr(tz, 3, pred=half)
            v2 = m.add(v, cnt, pred=half)
            h2 = m.min(h, v2, pred=half)
            p = m.cmp("lt", v2, 4000, pred=half)
            return v2, h2, p

        assert_identical(*run_both(body))

    def test_predicate_narrowing_loop(self):
        # The carried predicate shrinks across iterations (the WFA exit
        # shape): every mix of active lane counts must stay identical.
        # Lanes start at 0, 11, 22, ... and advance by 5 per active
        # iteration, so they cross the fixed bound on different steps.
        def body(m, buf, v, h, inb):
            idx = m.and_(v, 1023, pred=inb)
            g = m.gather64(buf, idx, pred=inb)
            h2 = m.xor(h, g, pred=inb)
            v2 = m.add(v, 5, pred=inb)
            p = m.cmp("lt", v2, 40, pred=inb)
            return v2, h2, p

        assert_identical(*run_both(body, iters=10))


# ----------------------------------------------------------------------
# Randomized straight-line programs (property test)
# ----------------------------------------------------------------------
def _random_body(seed):
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(3, 14))
    plan = []
    for _ in range(n_ops):
        kind = rng.choice(["binop", "scalar_binop", "cmp", "shift",
                           "ctz", "sel", "gather"])
        plan.append((
            kind,
            int(rng.integers(0, len(BINOPS))),
            int(rng.integers(0, 8)),
            int(rng.integers(0, 3)),
        ))

    def body(m, buf, v, h, inb):
        regs = [v, h]
        preds = [inb]
        for kind, a, b, c in plan:
            x = regs[a % len(regs)]
            y = regs[(a + 1 + b) % len(regs)]
            p = preds[c % len(preds)] if c else None
            if kind == "binop":
                regs.append(m.binop(BINOPS[a % len(BINOPS)], x, y, pred=p))
            elif kind == "scalar_binop":
                regs.append(m.binop(BINOPS[b % len(BINOPS)], x, 3 + a, pred=p))
            elif kind == "cmp":
                preds.append(m.cmp(["lt", "ge", "eq"][b % 3], x, y, pred=p))
            elif kind == "shift":
                regs.append(m.shr(m.shl(x, b % 4, pred=p), (a % 4) + 1, pred=p))
            elif kind == "ctz":
                regs.append(m.clz(m.rbit(x, pred=p), pred=p))
            elif kind == "sel":
                regs.append(m.sel(preds[b % len(preds)], x, y))
            else:
                idx = m.and_(x, 1023, pred=p)
                regs.append(m.gather64(buf, idx, pred=p))
        v2 = m.add(regs[-1], 1)
        p2 = m.cmp("lt", v2, 1 << 40)
        return v2, regs[-2], p2

    return body


class TestRandomPrograms:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_block_is_bit_identical(self, seed):
        assert_identical(*run_both(_random_body(seed), iters=5))


# ----------------------------------------------------------------------
# Guard points and the decline protocol
# ----------------------------------------------------------------------
class TestGuardsAndDecline:
    def test_loop_invariant_external_register(self):
        # A register produced before the loop and read by every
        # iteration (the ``ExtendConsts`` shape) is pre-absorbed by the
        # compiler; timing must still match the interpreter exactly.
        def run(replay):
            m, buf = fresh_machine()
            v, h, inb = _initial_state(m, 3)
            ext = m.mul(m.add(v, 5), h)  # long-latency external

            def body(mm, s):
                s.v = mm.add(s.v, mm.min(ext, mm.dup(3, ebits=64), pred=s.inb),
                             pred=s.inb)
                s.h = mm.add(s.h, 1, pred=s.inb)
                s.inb = mm.cmp("lt", s.v, 1 << 50, pred=s.inb)

            class S:
                pass

            s = S()
            s.v, s.h, s.inb = v, h, inb
            m.use_replay = replay
            session = ReplaySession(m, body)
            for _ in range(6):
                session.step(s)
            m.barrier()
            return m.clock, m._max_complete, m.snapshot(), tuple(s.v.data)

        before = REPLAY_METER.snapshot()
        serial = run(False)
        replayed = run(True)
        assert serial == replayed
        delta = REPLAY_METER.delta(before)
        assert delta["replayed_blocks"] > 0

    def test_decline_when_external_still_in_flight(self):
        # The compiled block opens with an entry guard on the latest
        # external ready-time; replaying while that register is still in
        # flight returns None and leaves the machine untouched.
        m, buf = fresh_machine()
        state = _initial_state(m, 3)
        ext = m.mul(m.add(state[0], 5), state[1])  # in-flight external

        def body(mm, v, h, inb):
            v2 = mm.add(v, mm.min(ext, v, pred=inb), pred=inb)
            return v2, h, inb

        _state, prog = capture(m, body, state)
        assert prog is not None
        # A fresh machine sits at clock 0, before the external's baked
        # ready stamp: the program must decline rather than replay.
        m2, _ = fresh_machine()
        state2 = _initial_state(m2, 3)
        m2.barrier()
        clock2, snap2 = m2.clock, m2.snapshot()
        assert prog._fn(m2, state2, ()) is None
        assert (m2.clock, m2.snapshot()) == (clock2, snap2)

    def test_broken_capture_falls_back_forever(self):
        def run(replay):
            m, buf = fresh_machine()
            v, h, inb = _initial_state(m, 3)

            def body(mm, s):
                s.v = mm.add(s.v, 1, pred=s.inb)
                mm.reduce_max(s.v)  # serialising op: not recordable

            class S:
                pass

            s = S()
            s.v, s.h, s.inb = v, h, inb
            m.use_replay = replay
            session = ReplaySession(m, body)
            for _ in range(4):
                session.step(s)
            m.barrier()
            return m.clock, m.snapshot(), tuple(s.v.data)

        assert run(False) == run(True)


class S:
    __slots__ = ("v", "h", "inb")


# ----------------------------------------------------------------------
# Store range guard
# ----------------------------------------------------------------------
class TestStoreRangeGuard:
    """A masked store whose active lanes reach past the buffer end raises
    ``MachineError`` in the interpreter and in a replayed kernel alike.
    The store sits half a vector before the end with two lanes on; one
    more lane turns on per iteration, so the fourth iteration (a
    replayed one) stores past the end and must raise."""

    @staticmethod
    def _run():
        m = VectorMachine(SystemConfig())
        lanes = m.lanes(64)
        buf = m.new_buffer("g", np.zeros(64, dtype=np.int64), elem_bytes=8)
        start = len(buf.data) - lanes // 2

        def body(mm, st):
            mm.store(buf, start, st.v, pred=st.inb)
            st.h = mm.add(st.h, 1)
            st.inb = mm.cmp("lt", mm.iota(64), st.h)

        st = S()
        st.v = m.from_values(np.arange(lanes), 64)
        st.h = m.dup(lanes // 2 - 2, ebits=64)
        st.inb = m.cmp("lt", m.iota(64), st.h)
        session = ReplaySession(m, body)
        for _ in range(8):
            session.step(st)

    @staticmethod
    def _raised_in(excinfo) -> "set[str]":
        return {
            frame.f_code.co_filename
            for frame, _ in traceback.walk_tb(excinfo.tb)
        }

    def test_interpreter_raises(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", False)
            with pytest.raises(MachineError, match="store out of range"):
                self._run()

    def test_replayed_kernel_raises(self):
        with pytest.raises(MachineError, match="store out of range") as exc:
            self._run()
        assert "<recorded-program>" in self._raised_in(exc)

    @pytest.mark.parametrize("replay", (False, True))
    def test_prefix_predicated_store_raises(self, replay):
        """A ``whilelt``-predicated store captured in range raises once
        its last active lane lands one past the end."""
        m = VectorMachine(SystemConfig())
        buf = m.new_buffer("g", np.zeros(40, dtype=np.int64), elem_bytes=4)

        def block(rm, start, count):
            act = rm.whilelt(0, count)
            rm.store(buf, start, rm.dup(7), pred=act)
            return ()

        _outs, prog = capture(m, block, (), (20, 16))
        assert prog is not None
        with pytest.raises(MachineError, match="store out of range") as exc:
            if replay:
                prog.replay(m, (), (25, 16))
            else:
                block(m, 25, 16)
        assert ("<recorded-program>" in self._raised_in(exc)) == replay


# ----------------------------------------------------------------------
# Prefix predicates: whilelt-predicated contiguous loads and stores
# ----------------------------------------------------------------------
#: (start, count) per step; the block loads at ``start`` and stores at
#: ``start - 40`` on 40-element buffers.  Loads cover starts below 0,
#: spans past the end and spans wholly outside on either side; stores
#: cover spans wholly and partly below 0, in range and ending exactly at
#: the end (an active store lane past the end raises, see
#: TestStoreRangeGuard).  Counts cover 0, partial, the lane count and
#: above it.
PREFIX_STEPS = (
    (20, 16), (0, 16), (16, 16), (-8, 16), (-30, 16), (-16, 16),
    (30, 16), (35, 20), (40, 16), (50, 16), (64, 16), (30, 5), (-3, 5),
    (2, 1), (100, 0), (-100, 0), (10, 0), (24, 16), (56, 16), (63, 3),
)


class TestPrefixPredicate:
    """A load or store predicated by a recorded ``whilelt`` replays as
    two integer bounds and a slice; every step must leave the machine
    bit-identical to interpreting the same block."""

    @staticmethod
    def _machine():
        m = VectorMachine(SystemConfig())
        f4 = m.new_buffer(
            "f4", 1000 + np.arange(40, dtype=np.int64) * 3, elem_bytes=4
        )
        f4.track_forwarding = True
        b1 = m.new_buffer("b1", np.arange(40, dtype=np.int64) % 5, elem_bytes=1)
        return m, f4, b1

    @staticmethod
    def _block(f4, b1):
        def block(rm, start, count):
            act = rm.whilelt(0, count)
            a = rm.load(f4, start, 32, pred=act)
            b = rm.load(b1, start, 32, pred=act)
            s = rm.add(rm.add(a, b, pred=act), 3, pred=act)
            rm.store(f4, start - 40, s, pred=act)
            rm.store(b1, start - 40, b, pred=act)
            return (s, b)

        return block

    @staticmethod
    def _state(m, f4, b1, outs):
        return (
            tuple(tuple(r.data.tolist()) for r in outs),
            f4.data.tolist(), b1.data.tolist(),
            m.clock, m._max_complete, m.snapshot(), m.mem.stats(),
            dict(m._store_visible),
        )

    def test_replay_matches_interpreter(self):
        mi, f4i, b1i = self._machine()
        mr, f4r, b1r = self._machine()
        interp, replay = self._block(f4i, b1i), self._block(f4r, b1r)
        prog = None
        for step, (start, count) in enumerate(PREFIX_STEPS):
            want = interp(mi, start, count)
            if prog is None:
                got, prog = capture(mr, replay, (), (start, count))
                assert prog is not None
            else:
                got = prog.replay(mr, (), (start, count))
            assert self._state(mr, f4r, b1r, got) == self._state(
                mi, f4i, b1i, want
            ), f"step {step}: start {start}, count {count}"
        assert "_ar(" not in prog.source and "w0 = tw" in prog.source

    def test_one_lane_predicate_over_wider_access(self):
        """On a 64-bit machine a 1-lane whilelt broadcasts over a 2-lane
        load in the interpreter, so that load keeps the index-vector
        form while a 1-lane load under the same predicate is sliced."""
        m = VectorMachine(dataclasses.replace(SystemConfig(), vlen_bits=64))
        buf = m.new_buffer("b", np.arange(10, dtype=np.int64), elem_bytes=4)

        def block(rm, start, count):
            act = rm.whilelt(0, count, ebits=64)
            return (rm.load(buf, start, 64, pred=act),
                    rm.load(buf, start, 32, pred=act))

        _outs, prog = capture(m, block, (), (3, 1))
        got = [r.data.tolist() for r in prog.replay(m, (), (4, 1))]
        assert got == [r.data.tolist() for r in block(m, 4, 1)]
        assert got == [[4], [4, 5]]
        assert "_ar(" in prog.source and "w0 = tw" in prog.source


#: (pattern start, text start, count) per step of the QBUFFER run
#: block, whose pattern count is 100 and text count 60.  Counts cover 0,
#: partial and the lane count; runs cover word boundaries and runs that
#: end at either buffer's configured count.
QZ_RUN_STEPS = (
    (10, 0, 16), (0, 44, 16), (84, 3, 16), (20, 20, 0), (5, 50, 7),
    (33, 59, 1), (31, 30, 16), (99, 0, 0), (57, 57, 0),
)


class TestQzRunRead:
    """A qzload of a unit-step iota under a prefix predicate replays as
    one ``_read_run``; every step must leave the machine bit-identical
    to interpreting the same block."""

    @staticmethod
    def _machine():
        from repro.config import QZ_ESIZE_2BIT
        from repro.eval.runner import make_machine
        from repro.genomics.sequence import Sequence

        m = make_machine(quetzal=True)
        qz = m.quetzal
        qz.load_sequence(0, Sequence("ACGTTGCAAC" * 10))
        qz.load_sequence(1, Sequence("GATTACA" * 9)[:60])
        qz.qzconf(100, 60, QZ_ESIZE_2BIT)
        return m

    @staticmethod
    def _block(rm, s0, s1, count, step=1):
        act = rm.whilelt(0, count)
        qz = rm.quetzal
        a = qz.qzload(rm.iota(32, start=s0, step=step), 0, pred=act)
        b = qz.qzload(rm.iota(32, start=s1), 1, pred=act, window=True)
        return (a, b)

    @staticmethod
    def _state(m, outs):
        return (
            tuple(tuple(r.data.tolist()) for r in outs),
            m.clock, m._max_complete, m.snapshot(), m.quetzal.reads,
        )

    def test_replay_matches_interpreter(self):
        mi, mr = self._machine(), self._machine()
        prog = None
        for step, params in enumerate(QZ_RUN_STEPS):
            want = self._block(mi, *params)
            if prog is None:
                got, prog = capture(mr, self._block, (), params)
                assert prog is not None
            else:
                got = prog.replay(mr, (), params)
            assert self._state(mr, got) == self._state(mi, want), (
                f"step {step}: {params}"
            )
        assert prog.source.count("_qz._read_run(") == 2
        assert "_read_raw(" not in prog.source

    def test_run_past_configured_count_raises(self):
        from repro.errors import QuetzalError

        mi, mr = self._machine(), self._machine()
        _outs, prog = capture(mr, self._block, (), (10, 0, 16))
        with pytest.raises(QuetzalError) as want:
            self._block(mi, 10, 50, 16)
        with pytest.raises(QuetzalError) as got:
            prog.replay(mr, (), (10, 50, 16))
        assert str(got.value) == str(want.value)
        assert "<recorded-program>" in TestStoreRangeGuard._raised_in(got)

    def test_other_steps_keep_the_index_read(self):
        """An iota of step 2 is not a run: its qzload keeps ``_read_raw``
        and still replays bit-identically."""
        mi, mr = self._machine(), self._machine()
        _outs, prog = capture(
            mr, lambda rm, *ps: self._block(rm, *ps, step=2), (), (10, 0, 16)
        )
        self._block(mi, 10, 0, 16, step=2)
        for params in ((3, 40, 16), (0, 0, 5), (30, 30, 0)):
            want = self._block(mi, *params, step=2)
            got = prog.replay(mr, (), params)
            assert self._state(mr, got) == self._state(mi, want)
        assert prog.source.count("_qz._read_run(") == 1
        assert prog.source.count("_qz._read_raw(") >= 1


@pytest.mark.parametrize("impl", ("ksw-vec", "ksw-qz"))
def test_dp_chunk_kernels_use_prefix_bounds(monkeypatch, impl):
    """Every DP chunk access is whilelt-predicated, so no captured chunk
    kernel builds an index vector, and the QZ kernels read their
    pattern and text as QBUFFER runs."""
    from repro.align import dp_machine
    from repro.align.quetzal_impl import KswQz
    from repro.eval.runner import make_machine
    from repro.genomics.generator import ReadPairGenerator

    progs = []

    def recording_capture(*args, **kwargs):
        outs, prog = capture(*args, **kwargs)
        progs.append(prog)
        return outs, prog

    monkeypatch.setattr(dp_machine, "capture", recording_capture)
    monkeypatch.setattr(VectorMachine, "use_replay", True)
    cls = dp_machine.KswVec if impl == "ksw-vec" else KswQz
    pair = ReadPairGenerator(length=60, seed=5).pair()
    cls(fast=False).run_pair(make_machine(quetzal=True), pair)
    assert progs and all(p is not None for p in progs)
    for prog in progs:
        assert "_mem.access" in prog.source
        assert "_ar(" not in prog.source
        assert "_read_raw(" not in prog.source
    if impl == "ksw-qz":
        assert all("_qz._read_run(" in prog.source for prog in progs)


# ----------------------------------------------------------------------
# Meter conservation
# ----------------------------------------------------------------------
class TestMeterConservation:
    """Every block execution through ``run_loop`` lands in exactly one
    outcome bucket, with replay on or off, on a loop whose lanes retire
    at strongly staggered iteration counts."""

    @pytest.mark.parametrize("replay", (False, True))
    def test_conservation_over_modes(self, replay):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", replay)
            m, buf = fresh_machine()
            lanes = m.lanes(64)
            bounds = m.from_values(10 + 9 * np.arange(lanes), 64)

            def body(mm, s):
                idx = mm.and_(s.v, 1023, pred=s.inb)
                g = mm.gather64(buf, idx, pred=s.inb)
                s.h = mm.add(s.h, mm.min(g, 7, pred=s.inb), pred=s.inb)
                s.v = mm.add(s.v, 1, pred=s.inb)
                s.inb = mm.cmp("lt", s.v, bounds, pred=s.inb)

            session = ReplaySession(m, body)
            before = REPLAY_METER.snapshot()
            for rep in range(3):
                s = S()
                s.v = m.from_values(np.arange(lanes) + rep, 64)
                s.h = m.from_values(np.arange(lanes) * 3, 64)
                s.inb = m.ptrue(64)
                session.run_loop(s)
            d = REPLAY_METER.delta(before)
            assert d["total_blocks"] > 0
            assert (
                d["captures"] + d["replayed_blocks"]
                + d["interpreted_blocks"] + d["broken"]
                == d["total_blocks"]
            ), f"conservation violated: {d}"
            assert (d["replayed_blocks"] > 0) == replay

    def test_recorded_program_replay_meters_kernel_time(self):
        """DP chunks replay through ``RecordedProgram.replay``, which
        times its kernel call like ``ReplaySession.step``."""
        from repro.align.dp_machine import KswVec
        from repro.eval.runner import make_machine
        from repro.genomics.generator import ReadPairGenerator

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", True)
            pair = ReadPairGenerator(length=60, seed=5).pair()
            before = REPLAY_METER.snapshot()
            KswVec(fast=False).run_pair(make_machine(), pair)
            d = REPLAY_METER.delta(before)
        assert d["replayed_blocks"] > 0 and d["kernel_run_s"] > 0, d
        assert (
            d["captures"] + d["replayed_blocks"]
            + d["interpreted_blocks"] + d["broken"]
            == d["total_blocks"]
        ), f"conservation violated: {d}"


# ----------------------------------------------------------------------
# Carried-predicate loops through ReplaySession.run_loop
# ----------------------------------------------------------------------
def staggered_body(m, buf):
    """Lanes retire at strongly staggered iteration counts, so every rep
    has an all-active prefix and a long partially active tail."""
    lanes = m.lanes(64)
    bounds = m.from_values(10 + 9 * np.arange(lanes), 64)

    def body(mm, s):
        idx = mm.and_(s.v, 1023, pred=s.inb)
        g = mm.gather64(buf, idx, pred=s.inb)
        s.h = mm.add(s.h, mm.min(g, 7, pred=s.inb), pred=s.inb)
        s.v = mm.add(s.v, 1, pred=s.inb)
        s.inb = mm.cmp("lt", s.v, bounds, pred=s.inb)

    def init(rep):
        s = S()
        s.v = m.from_values(np.arange(lanes) + rep, 64)
        s.h = m.from_values(np.arange(lanes) * 3, 64)
        s.inb = m.ptrue(64)
        return s

    return body, init


def run_loop_both(make_body, reps=3, trace=False):
    """Drive ``session.run_loop`` interpreted and with replay on; return
    both (clock, maxc, snapshot, values, tracer-totals) tuples."""
    results = []
    for replay in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", replay)
            m, buf = fresh_machine()
            tracer = m.attach_tracer(capacity=64) if trace else None
            body, init = make_body(m, buf)
            session = ReplaySession(m, body)
            before = REPLAY_METER.snapshot()
            finals = []
            for rep in range(reps):
                s = init(rep)
                session.run_loop(s)
                finals.append(tuple(
                    tuple(np.asarray(r.data).tolist())
                    for r in (s.v, s.h, s.inb)
                ))
            m.barrier()
            d = REPLAY_METER.delta(before)
            assert (d["replayed_blocks"] > 0) == replay, d
            totals = (
                (
                    dict(tracer.instructions_by_category),
                    dict(tracer.busy_by_category),
                    dict(tracer.stall_by_category),
                )
                if tracer is not None
                else None
            )
            results.append(
                (m.clock, m._max_complete, m.snapshot(), finals, totals)
            )
    return results


def assert_loop_identical(interp, replay):
    assert_identical(interp[:4], replay[:4])
    assert interp[4] == replay[4], "tracer totals diverged"


def _random_guarded_body(seed):
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(2, 7))
    plan = [
        (
            str(rng.choice(["binop", "scalar", "shift", "sel", "gather"])),
            int(rng.integers(0, len(BINOPS))),
            int(rng.integers(0, 8)),
        )
        for _ in range(n_ops)
    ]
    stride = int(rng.integers(3, 17))
    base = int(rng.integers(5, 20))

    def make(m, buf):
        lanes = m.lanes(64)
        bounds = m.from_values(base + stride * np.arange(lanes), 64)

        def body(mm, s):
            x = s.h
            for kind, a, b in plan:
                op = BINOPS[a % len(BINOPS)]
                if kind == "binop":
                    x = mm.binop(op, x, s.v, pred=s.inb)
                elif kind == "scalar":
                    x = mm.binop(op, x, 3 + b, pred=s.inb)
                elif kind == "shift":
                    x = mm.shr(mm.shl(x, b % 4, pred=s.inb), 1, pred=s.inb)
                elif kind == "sel":
                    x = mm.sel(s.inb, x, s.v)
                else:
                    idx = mm.and_(x, 1023, pred=s.inb)
                    x = mm.gather64(buf, idx, pred=s.inb)
            s.h = x
            s.v = mm.add(s.v, 1, pred=s.inb)
            s.inb = mm.cmp("lt", s.v, bounds, pred=s.inb)

        def init(rep):
            s = S()
            s.v = m.from_values(np.arange(lanes) % 5 + rep, 64)
            s.h = m.from_values(np.arange(lanes) * 7 + 1, 64)
            s.inb = m.ptrue(64)
            return s

        return body, init

    return make


class TestRunLoopIdentity:
    """A loop whose carried predicate goes partial replays the captured
    block on every later iteration; machine state, register values and
    tracer totals must equal the interpreted loop's."""

    def test_staggered_retirement_bit_identical(self):
        assert_loop_identical(*run_loop_both(staggered_body, reps=4))

    def test_tracer_totals_bit_identical(self):
        assert_loop_identical(
            *run_loop_both(staggered_body, reps=3, trace=True)
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_divergent_loop_bit_identical(self, seed):
        assert_loop_identical(
            *run_loop_both(_random_guarded_body(seed), reps=3)
        )

    def test_forced_mismatch_tail_bit_identical(self):
        # A mismatch comb: lanes started at staggered offsets hit
        # mismatches on different iterations, so the WFA extend loop's
        # active predicate goes partial while the block replays.
        from repro.align.vectorized.extend_loop import ExtendConsts, vec_extend

        results = []
        for replay in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(VectorMachine, "use_replay", replay)
                m = VectorMachine(SystemConfig())
                length = 2048
                rng = np.random.default_rng(3)
                pattern = rng.integers(0, 4, length).astype(np.int64)
                text = pattern.copy()
                text[::13] = (text[::13] + 1) % 4
                pbuf = m.new_buffer("p", pattern, elem_bytes=1)
                tbuf = m.new_buffer("t", text, elem_bytes=1)
                consts = ExtendConsts(m, length, length, 8)
                lanes = m.lanes(64)
                outs = []
                for rep in range(4):
                    starts = rep * 31 + 3 * np.arange(lanes)
                    v = m.from_values(starts, 64)
                    h = m.from_values(starts, 64)
                    r = vec_extend(
                        m, pbuf, tbuf, v, h, m.ptrue(64),
                        length, length, consts=consts,
                    )
                    outs.append(tuple(
                        tuple(np.asarray(x.data).tolist()) for x in r
                    ))
                m.barrier()
                results.append((m.clock, m._max_complete, m.snapshot(), outs))
        interp, replayed = results
        assert interp == replayed, "extend diverged with replay on"


class TestCaptureOnFirstExecution:
    def test_first_step_captures_and_second_replays(self):
        m, buf = fresh_machine()
        body, init = staggered_body(m, buf)
        session = ReplaySession(m, body)
        s = init(0)
        before = REPLAY_METER.snapshot()
        session.step(s)
        d = REPLAY_METER.delta(before)
        assert d["captures"] == 1 and d["interpreted_blocks"] == 0, d
        session.step(s)
        d = REPLAY_METER.delta(before)
        assert d["captures"] == 1 and d["replayed_blocks"] == 1, d


# ----------------------------------------------------------------------
# ctz kernel (backs the rbit+clz fusion)
# ----------------------------------------------------------------------
class TestCtzKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([1, 8, 16, 17, 64, 200]))
    def test_ctz_equals_clz_of_rbit(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.integers(-2**63, 2**63 - 1, size=n, dtype=np.int64)
        x[rng.random(n) < 0.3] = 0
        ref = _clz_values(_rbit_values(x), 64)
        got = _ctz_values(x)
        assert (ref == got).all()

    def test_ctz_edge_values(self):
        x = np.array([0, 1, -2**63, -1, 2, 1 << 62], dtype=np.int64)
        assert _ctz_values(x).tolist() == [64, 0, 63, 0, 1, 62]


# ----------------------------------------------------------------------
# Tracer reconciliation under replay + batched memory + account_mix
# ----------------------------------------------------------------------
class TestTracerReconciliation:
    def test_trace_bulk_reconciles_with_interleaved_paths(self):
        # Satellite regression for ``_trace_bulk`` drift: replayed
        # blocks, batched memory ops, and ``account_mix`` bulk blocks
        # interleave freely; tracer totals must still equal the machine
        # counters (and the per-category stall attribution).
        from collections import Counter

        m, buf = fresh_machine()
        tracer = m.attach_tracer(capacity=128)
        state = _initial_state(m, 3)

        def body(mm, v, h, inb):
            idx = mm.and_(v, 1023, pred=inb)
            g = mm.gather64(buf, idx, pred=inb)
            x = mm.xor(g, h, pred=inb)
            tz = mm.clz(mm.rbit(x, pred=inb), pred=inb)
            v2 = mm.add(v, mm.shr(tz, 3, pred=inb), pred=inb)
            p = mm.cmp("lt", v2, 1 << 40, pred=inb)
            return v2, h, p

        prog = None
        for i in range(8):
            if prog is None:
                state, prog = capture(m, body, state)
                assert prog is not None
            else:
                out = prog.replay(m, state)
                assert out is not None
                state = out
            # Interleave the other accounting paths between replays.
            m.load(buf, 32 * i, 64)  # batched-memory contiguous leg
            m.account_mix(
                Counter({"scalar": 3}), Counter({"scalar": 3}),
                extra_stall=2, stall_category="memory",
            )
            m.scalar(2)
        m.barrier()
        snap = m.snapshot()
        assert dict(tracer.instructions_by_category) == dict(snap.instructions)
        assert dict(tracer.busy_by_category) == dict(snap.busy)
        assert dict(tracer.stall_by_category) == dict(snap.stall)

    def test_trace_reconciles_on_replayed_alignment(self):
        from repro.align.vectorized import WfaVec
        from repro.genomics.generator import ReadPairGenerator

        pair = ReadPairGenerator(length=200, seed=21).pair()
        m = VectorMachine(SystemConfig())
        assert m.use_replay  # default-on: this run exercises replay
        tracer = m.attach_tracer(capacity=64)
        WfaVec().run_pair(m, pair)
        snap = m.snapshot()
        assert dict(tracer.instructions_by_category) == dict(snap.instructions)
        assert dict(tracer.busy_by_category) == dict(snap.busy)
        assert dict(tracer.stall_by_category) == dict(snap.stall)


# ----------------------------------------------------------------------
# End-to-end identity: replay on vs off over the routed hot loops
# ----------------------------------------------------------------------
def _run_identity(impl_factory, pair):
    from repro.eval.runner import make_machine

    out = {}
    for replay in (False, True):
        m = make_machine(quetzal=True)
        m.use_replay = replay
        r = impl_factory().run_pair(m, pair)
        m.barrier()
        out[replay] = (m.clock, m._max_complete, m.snapshot(), r.cycles, r.output)
    assert out[False] == out[True], (
        f"replay diverged from interpreter:\noff {out[False]}\non  {out[True]}"
    )


class TestEndToEndIdentity:
    @pytest.fixture(scope="class")
    def pair(self):
        from repro.genomics.generator import ReadPairGenerator

        return ReadPairGenerator(length=220, seed=31).pair()

    def test_wfa_extend_identity(self, pair):
        from repro.align.vectorized import WfaVec

        _run_identity(lambda: WfaVec(), pair)

    def test_dp_identity(self, pair):
        from repro.align.dp_machine import KswVec

        _run_identity(lambda: KswVec(fast=False), pair)

    def test_qz_dp_identity(self, pair):
        from repro.align.quetzal_impl import KswQz

        _run_identity(lambda: KswQz(fast=False), pair)

    def test_qz_extend_identity(self, pair):
        from repro.align.quetzal_impl import WfaQzc

        _run_identity(lambda: WfaQzc(), pair)

    def test_ss_identity(self, pair):
        from repro.align.vectorized.ss_vec import SsVec

        _run_identity(lambda: SsVec(threshold=10, fast=False), pair)
