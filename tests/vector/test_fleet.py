"""Fleet-vs-serial identity tests for the cross-pair fused executor.

Every test runs the same loop body over N independent "pairs" twice —
each pair alone through the ordinary :class:`ReplaySession` path, and
all N together through :func:`drive_fleet` — and requires *bit-identical*
per-pair machine state: clock, ``_max_complete``, the full
``MachineStats`` snapshot (including memory counters — every machine is
fresh, so fleet width cannot leak across pairs), and register values.

This is the satellite property test extending the PR 4 randomized
harness: fleet-of-N stats must equal N independent single-pair runs,
per pair, for randomized programs.
"""

import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import MachineError
from repro.vector.fleet import drive_fleet, drive_serial, session_step
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER, ReplaySession

BINOPS = ["add", "sub", "mul", "min", "max", "and", "or", "xor"]


class S:
    __slots__ = ("v", "h", "inb")


def fresh_machine(row):
    m = VectorMachine(SystemConfig())
    data = (np.arange(4096, dtype=np.int64) * (row + 3)) % 251
    buf = m.new_buffer(f"b{m.name_uid('b')}", data, elem_bytes=1)
    return m, buf


def initial_state(m, row):
    lanes = m.lanes(64)
    s = S()
    s.v = m.from_values(np.arange(lanes) * 11 + row, 64)
    s.h = m.from_values(np.arange(lanes) * 7 + 1 + 2 * row, 64)
    s.inb = m.ptrue(64)
    return s


def make_fiber(body, row, iters):
    """One pair's generator fiber: iters steps, then a state summary."""
    def fiber():
        m, buf = fresh_machine(row)
        s = initial_state(m, row)
        session = ReplaySession(m, lambda mm, ss: body(mm, buf, ss))
        for _ in range(iters):
            if not m.ptest_spec(s.inb):
                break
            yield session_step(session, s)
        m.barrier()
        return (
            m.clock,
            m._max_complete,
            m.snapshot(),
            tuple(np.asarray(s.v.data).tolist()),
            tuple(np.asarray(s.h.data).tolist()),
            tuple(np.asarray(s.inb.data).tolist()),
        )
    return fiber()


def run_both_ways(body, n_pairs=4, iters=6):
    serial = [
        drive_serial(make_fiber(body, row, iters)) for row in range(n_pairs)
    ]
    fleet = drive_fleet([make_fiber(body, row, iters) for row in range(n_pairs)])
    return serial, fleet


def assert_fleet_identical(body, n_pairs=4, iters=6, expect_fused=True):
    before = REPLAY_METER.snapshot()
    serial, fleet = run_both_ways(body, n_pairs, iters)
    for row, (s, f) in enumerate(zip(serial, fleet)):
        assert s[0] == f[0], f"pair {row}: clock {s[0]} != {f[0]}"
        assert s[1] == f[1], f"pair {row}: _max_complete diverged"
        assert s[2] == f[2], (
            f"pair {row}: stats diverged:\nserial {s[2]}\nfleet  {f[2]}"
        )
        assert s[3:] == f[3:], f"pair {row}: register values diverged"
    if expect_fused:
        delta = REPLAY_METER.delta(before)
        assert delta.get("fleet_batches", 0) > 0, "no block ever fused"
    return serial


# ----------------------------------------------------------------------
# Op coverage through the fused kernel
# ----------------------------------------------------------------------
class TestFusedOps:
    def test_arith_chain(self):
        def body(m, buf, s):
            s.v = m.add(s.v, m.mul(s.h, 3, pred=s.inb), pred=s.inb)
            s.h = m.sub(s.h, 2, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

        assert_fleet_identical(body)

    def test_gather_ctz_extend_shape(self):
        # The WFA extend-loop block shape: gather, xor, ctz, advance.
        def body(m, buf, s):
            idx = m.and_(s.v, 1023, pred=s.inb)
            g = m.gather64(buf, idx, pred=s.inb)
            x = m.xor(g, s.h, pred=s.inb)
            tz = m.clz(m.rbit(x, pred=s.inb), pred=s.inb)
            s.v = m.add(s.v, m.shr(tz, 3, pred=s.inb), pred=s.inb)
            s.h = m.add(s.h, 5, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 44, pred=s.inb)

        assert_fleet_identical(body)

    def test_load_store_roundtrip(self):
        def body(m, buf, s):
            x = m.load(buf, 16, 64, pred=s.inb)
            y = m.add(x, 1, pred=s.inb)
            m.store(buf, 16, y, pred=s.inb)
            s.v = m.add(s.v, y, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

        assert_fleet_identical(body)

    def test_const_generators_and_sel(self):
        def body(m, buf, s):
            k = m.dup(9, ebits=64)
            i = m.iota(64, start=2, step=3)
            w = m.whilelt(0, 5, ebits=64)
            p = m.cmp("lt", s.v, s.h, pred=s.inb)
            q = m.por(p, w)
            s.v = m.add(s.v, m.sel(q, k, i), pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

        assert_fleet_identical(body)

    def test_external_register(self):
        # Loop-invariant externals bake per pair; the fused kernel must
        # honour each row's own entry guard and data.
        def body_factory():
            cache = {}

            def body(m, buf, s):
                if m not in cache:
                    cache[m] = m.mul(m.add(s.v, 5), s.h)
                ext = cache[m]
                s.v = m.add(s.v, m.min(ext, m.dup(3, ebits=64), pred=s.inb),
                            pred=s.inb)
                s.h = m.add(s.h, 1, pred=s.inb)
                s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

            return body

        assert_fleet_identical(body_factory())


# ----------------------------------------------------------------------
# Divergence and retirement
# ----------------------------------------------------------------------
class TestRetirement:
    def test_mid_fleet_retirement(self):
        # Lanes advance by 5 per live iteration and pairs start offset,
        # so each pair's guard dies on a different step: the fleet must
        # shrink pair by pair with no cross-pair contamination.
        def body(m, buf, s):
            idx = m.and_(s.v, 1023, pred=s.inb)
            g = m.gather64(buf, idx, pred=s.inb)
            s.h = m.xor(s.h, g, pred=s.inb)
            s.v = m.add(s.v, 5, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 40, pred=s.inb)

        before = REPLAY_METER.snapshot()
        assert_fleet_identical(body, n_pairs=4, iters=12)
        delta = REPLAY_METER.delta(before)
        retired = delta.get("fleet_retired", {})
        assert retired, "no pair ever retired mid-fleet"

    def test_occupancy_metrics(self):
        def body(m, buf, s):
            s.v = m.add(s.v, 1, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

        REPLAY_METER.reset()
        run_both_ways(body, n_pairs=3, iters=5)
        assert REPLAY_METER.fleet_batches > 0
        assert REPLAY_METER.fleet_pairs >= 2 * REPLAY_METER.fleet_batches
        assert REPLAY_METER.fleet_occupancy >= 2.0

    def test_singleton_fallback_accounting(self):
        # Three pairs; two retire after 4 rounds, one runs 8 more rounds
        # alone.  The survivor's bucket shrinks to a single pair: those
        # rows must run serially, meter ``fleet_singleton`` (not the
        # never-fusable ``fleet_serial``), and leave the fused-batch
        # occupancy undiluted.  The retirement histogram must record
        # one retirement at 2 live pairs and one at 1.
        def body(m, buf, s):
            s.v = m.add(s.v, 1, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

        iters_by_row = (12, 4, 4)

        def fibers():
            return [
                make_fiber(body, row, iters)
                for row, iters in enumerate(iters_by_row)
            ]

        serial = [drive_serial(f) for f in fibers()]
        before = REPLAY_METER.snapshot()
        fleet = drive_fleet(fibers())
        delta = REPLAY_METER.delta(before)
        for row, (s, f) in enumerate(zip(serial, fleet)):
            assert s == f, f"pair {row} diverged through the fleet"
        # Round 1 captures (never fusable); rounds 2-4 fuse all three
        # pairs; rounds 5-12 are the singleton survivor.
        assert delta.get("fleet_batches", 0) == 3, delta
        assert delta.get("fleet_pairs", 0) == 9, delta
        assert delta.get("fleet_singleton", 0) == 8, delta
        assert delta.get("fleet_serial", 0) == 3, delta
        occupancy = delta["fleet_pairs"] / delta["fleet_batches"]
        assert occupancy == 3.0, (
            f"singleton rounds diluted fused occupancy: {occupancy}"
        )
        retired = delta.get("fleet_retired", {})
        assert retired == {2: 1, 1: 1}, (
            f"retirement histogram wrong: {retired}"
        )


# ----------------------------------------------------------------------
# Serial fallbacks inside a fleet
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_broken_capture_runs_serially(self):
        def body(m, buf, s):
            s.v = m.add(s.v, 1, pred=s.inb)
            m.reduce_max(s.v)  # serialising op: not recordable

        before = REPLAY_METER.snapshot()
        assert_fleet_identical(body, expect_fused=False)
        delta = REPLAY_METER.delta(before)
        assert delta.get("fleet_batches", 0) == 0
        assert delta.get("fleet_serial", 0) > 0

    def test_replay_disabled_runs_serially(self):
        def body(m, buf, s):
            s.v = m.add(s.v, 1, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", False)
            assert_fleet_identical(body, expect_fused=False)

    def test_single_fiber_fleet(self):
        def body(m, buf, s):
            s.v = m.add(s.v, 1, pred=s.inb)
            s.inb = m.cmp("lt", s.v, 1 << 50, pred=s.inb)

        assert_fleet_identical(body, n_pairs=1, expect_fused=False)


# ----------------------------------------------------------------------
# Store range guard
# ----------------------------------------------------------------------
class TestStoreRangeGuard:
    """A masked store whose active lanes reach past the buffer end raises
    ``MachineError`` in the interpreter, in a replayed kernel and in a
    fleet-fused kernel alike.  The store sits half a vector before the
    end with two lanes on; one more lane turns on per iteration, so the
    fourth iteration (a replayed one) stores past the end and must
    raise."""

    @staticmethod
    def _fiber(row):
        def fiber():
            m = VectorMachine(SystemConfig())
            lanes = m.lanes(64)
            buf = m.new_buffer("g", np.zeros(64, dtype=np.int64), elem_bytes=8)
            start = len(buf.data) - lanes // 2

            def body(mm, st):
                mm.store(buf, start, st.v, pred=st.inb)
                st.h = mm.add(st.h, 1)
                st.inb = mm.cmp("lt", mm.iota(64), st.h)

            st = S()
            st.v = m.from_values(np.arange(lanes) + row, 64)
            st.h = m.dup(lanes // 2 - 2, ebits=64)
            st.inb = m.cmp("lt", m.iota(64), st.h)
            session = ReplaySession(m, body)
            for _ in range(8):
                yield session_step(session, st)
            return buf.data.tolist()

        return fiber()

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
                drive_serial(self._fiber(0))

    def test_replayed_kernel_raises(self):
        with pytest.raises(MachineError, match="store out of range") as exc:
            drive_serial(self._fiber(0))
        assert "<recorded-program>" in self._raised_in(exc)

    def test_fused_kernel_raises(self):
        with pytest.raises(MachineError, match="store out of range") as exc:
            drive_fleet([self._fiber(row) for row in range(3)])
        assert "<fleet-program>" in self._raised_in(exc)


# ----------------------------------------------------------------------
# Randomized programs (the fleet property test)
# ----------------------------------------------------------------------
def _random_body(seed):
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(3, 12))
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

    def body(m, buf, s):
        regs = [s.v, s.h]
        preds = [s.inb]
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
        s.v = m.add(regs[-1], 1)
        s.h = regs[-2]
        s.inb = m.cmp("lt", s.v, 1 << 40)

    return body


class TestRandomFleets:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_fleet_is_bit_identical(self, seed):
        assert_fleet_identical(_random_body(seed), n_pairs=3, iters=4,
                               expect_fused=False)
