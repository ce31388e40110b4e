"""Replay-emitter tests: identity with the interpreter, the persistent
kernel cache, and the optimizer passes.

The identity contract mirrors ``test_program``: a run replayed through
the emitted kernels must be *bit-identical* to the interpreter —
register values, ``MachineStats``, the clock, and the tracer event
totals — whether the kernels were just compiled or loaded from the
disk cache.  On top of that this module pins the cache behaviour (warm hits
with zero recompiles, corruption tolerance) and the arena's zero-alloc
steady state, which are performance contracts the bench harness relies
on but the end-to-end suites never observe directly.
"""

import pickle
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CALIBRATION
from repro.config import SystemConfig
from repro.vector import backends, kernel_cache, program
from repro.vector.backends import (
    ARENA,
    CODEGEN_METER,
    _fast_imem,
    _fuse_ctz,
    _helpers_env,
    _make_fast_imem,
    _share_tolist,
)
from repro.vector.machine import VectorMachine, _ctz_values
from repro.vector.program import ReplaySession

BINOPS = ["add", "sub", "mul", "min", "max", "and", "or", "xor"]


def fresh_machine():
    m = VectorMachine(SystemConfig())
    data = np.arange(4096, dtype=np.int64) % 251
    buf = m.new_buffer("b", data, elem_bytes=1)
    return m, buf


class _State:
    __slots__ = ("v", "h", "inb")


def _seed_state(m):
    st = _State()
    lanes = m.lanes(64)
    st.v = m.from_values(np.arange(lanes) * 11, 64)
    st.h = m.from_values(np.arange(lanes) * 7 + 1, 64)
    st.inb = m.ptrue(64)
    return st


def run_session(body_factory, replay, iters=5, loop=False,
                make=fresh_machine):
    """Drive ``body_factory(buf) -> body(mm, st)`` through a
    :class:`ReplaySession`, replayed or (``replay=False``) purely
    interpreted.  ``make`` builds the machine and the argument handed
    to ``body_factory`` (default: the shared byte buffer).

    Returns (clock, max_complete, stats snapshot, register values,
    tracer totals) — everything the identity contract covers.
    """
    m, buf = make()
    tracer = m.attach_tracer(capacity=8192)
    m.use_replay = replay
    st = _seed_state(m)
    session = ReplaySession(m, body_factory(buf))
    for _ in range(iters):
        if loop:
            session.run_loop(st)
            lanes = m.lanes(64)
            st.v = m.from_values(np.arange(lanes) % 13, 64)
            st.inb = m.ptrue(64)
        else:
            session.step(st)
    m.barrier()
    values = tuple(
        tuple(np.asarray(r.data).tolist()) for r in (st.v, st.h)
    )
    totals = (
        dict(tracer.instructions_by_category),
        dict(tracer.busy_by_category),
        dict(tracer.stall_by_category),
    )
    return m.clock, m._max_complete, m.snapshot(), values, totals


def assert_replay_identical(body_factory, iters=5, loop=False):
    interp = run_session(body_factory, False, iters=iters, loop=loop)
    replay = run_session(body_factory, True, iters=iters, loop=loop)
    assert interp[0] == replay[0], "clock diverged"
    assert interp[1] == replay[1], "_max_complete diverged"
    assert interp[2] == replay[2], "MachineStats diverged"
    assert interp[3] == replay[3], "register values diverged"
    assert interp[4] == replay[4], "tracer totals diverged"


# ----------------------------------------------------------------------
# Fixed workloads: one gather-heavy block, one carried-predicate loop
# ----------------------------------------------------------------------
def _gather_body(buf):
    def body(m, st):
        idx = m.and_(st.v, 1023, pred=st.inb)
        g = m.gather64(buf, idx, pred=st.inb)
        x = m.xor(st.h, g, pred=st.inb)
        c = m.clz(m.rbit(x, pred=st.inb), pred=st.inb)
        st.h = m.shr(c, 2, pred=st.inb)
        st.v = m.add(st.v, 5, pred=st.inb)
        st.inb = m.cmp("lt", st.v, 1 << 40, pred=st.inb)

    return body


def _loop_body(buf):
    def body(m, st):
        step = m.add(st.v, 3, pred=st.inb)
        idx = m.and_(step, 1023, pred=st.inb)
        g = m.gather64(buf, idx, pred=st.inb)
        st.h = m.add(st.h, m.min(g, step, pred=st.inb), pred=st.inb)
        st.v = step
        st.inb = m.cmp("lt", st.v, 60, pred=st.inb)

    return body


# ----------------------------------------------------------------------
# Identity with the interpreter
# ----------------------------------------------------------------------
def assert_identical_from(source, body_factory, **kw):
    """:func:`assert_replay_identical` with the replayed run's kernels
    from ``source``: ``compiled`` (empty caches, disk off: every kernel
    is lowered and compiled) or ``disk`` (a new process over a warm
    disk cache: every kernel is loaded, none compiled).  Needs the
    ``disk_cache`` fixture."""
    backends._MEMORY.clear()
    if source == "compiled":
        CALIBRATION.disable_disk()
    else:
        run_session(body_factory, True, **kw)  # compile and store
        backends._MEMORY.clear()
    hits0 = CODEGEN_METER.kernel_cache_hits
    compiles0 = CODEGEN_METER.kernel_compiles
    assert_replay_identical(body_factory, **kw)
    if source == "compiled":
        assert CODEGEN_METER.kernel_compiles > compiles0
    else:
        assert CODEGEN_METER.kernel_compiles == compiles0
        assert CODEGEN_METER.kernel_cache_hits > hits0


@pytest.mark.parametrize("source", ("compiled", "disk"))
class TestEmitterIdentity:
    def test_gather_block(self, disk_cache, source):
        assert_identical_from(source, _gather_body, iters=6)

    def test_carried_predicate_loop(self, disk_cache, source):
        assert_identical_from(source, _loop_body, iters=4, loop=True)


def _plan_body(plan, scalar=3, sid=None):
    """Deterministic body from a hypothesis-drawn op plan (the
    ``test_program`` random-program shape, including gathers so the
    ``_imf`` fast path is on the randomized surface).  ``scalar`` offsets
    the ``"scalar"`` ops' constants; ``sid`` is the gathers' stream id
    (None: the buffer's default)."""

    def factory(buf):
        def body(m, st):
            regs = [st.v, st.h]
            preds = [st.inb]
            for kind, a, b, c in plan:
                x = regs[a % len(regs)]
                y = regs[(a + 1 + b) % len(regs)]
                p = preds[c % len(preds)] if c else None
                if kind == "binop":
                    regs.append(m.binop(BINOPS[a % len(BINOPS)], x, y, pred=p))
                elif kind == "scalar":
                    regs.append(
                        m.binop(BINOPS[b % len(BINOPS)], x, scalar + a, pred=p)
                    )
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
                    regs.append(m.gather64(buf, idx, pred=p, stream_id=sid))
            st.v = m.add(regs[-1], 1)
            st.h = regs[-2]
            st.inb = m.cmp("lt", st.v, 1 << 40)

        return body

    return factory


_OP = st.tuples(
    st.sampled_from(
        ["binop", "scalar", "cmp", "shift", "ctz", "sel", "gather"]
    ),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2),
)


class TestRandomPrograms:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(_OP, min_size=3, max_size=12))
    def test_replay_matches_the_interpreter(self, plan):
        factory = _plan_body(plan)
        interp = run_session(factory, False, iters=4)
        assert run_session(factory, True, iters=4) == interp


# ----------------------------------------------------------------------
# Per-shape emission: one source per block shape, values bound per capture
# ----------------------------------------------------------------------
def _instance(scalar, modulus, sid, length, warm):
    """One capture's per-instance values for :func:`_instance_factory`:
    the scalar-op constant, the gathered buffer (its contents) and its
    stream id, the contiguous-load buffer's length, and the ready stamp
    of an external register (``warm`` ops issued before it)."""

    def make():
        m = VectorMachine(SystemConfig())
        gbuf = m.new_buffer(
            "g", np.arange(4096, dtype=np.int64) % modulus, elem_bytes=1
        )
        lbuf = m.new_buffer(
            "l", np.arange(length, dtype=np.int64) * 5 % 97, elem_bytes=8
        )
        lanes = m.lanes(64)
        x = m.from_values(np.arange(lanes), 64)
        for _ in range(warm):
            x = m.add(x, 1)
        ext = m.dup(7, 64)
        return m, (gbuf, lbuf, ext)

    return scalar, sid, make


def _instance_factory(plan, scalar, sid):
    """``_plan_body``'s block plus a contiguous load and a use of an
    external register."""
    inner = _plan_body(plan, scalar=scalar, sid=sid)

    def factory(res):
        gbuf, lbuf, ext = res
        body = inner(gbuf)

        def wrapped(m, st):
            body(m, st)
            ld = m.load(lbuf, 0, 64, pred=st.inb)
            st.h = m.add(m.max(st.h, ld, pred=st.inb), ext, pred=st.inb)

        return wrapped

    return factory


_INSTANCE = st.tuples(
    st.integers(min_value=0, max_value=60),  # scalar-op constant
    st.integers(min_value=200, max_value=251),  # gathered buffer contents
    st.integers(min_value=1, max_value=1 << 20),  # stream id
    st.integers(min_value=2, max_value=40),  # load buffer length
    st.integers(min_value=0, max_value=6),  # external's ready stamp
)


class TestEmissionTable:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(_OP, min_size=3, max_size=10), _INSTANCE, _INSTANCE)
    def test_equal_shapes_share_one_emission(self, plan, first, second):
        program._EMISSIONS.clear()
        before = CODEGEN_METER.emissions
        for values in (first, second):
            scalar, sid, make = _instance(*values)
            factory = _instance_factory(plan, scalar, sid)
            interp = run_session(factory, False, iters=4, make=make)
            assert run_session(factory, True, iters=4, make=make) == interp
        assert CODEGEN_METER.emissions == before + 1, (
            "two captures of one shape must share one emission"
        )

    @staticmethod
    def _capture(system=None, partial=False, ready=5):
        m = VectorMachine(system or SystemConfig())
        st_ = _seed_state(m)
        if partial:
            st_.inb = m.whilelt(0, m.lanes(64) - 1, 64)
        ext = m.dup(7, 64)
        ext.ready = ready

        def body(mm, v, h, inb):
            h2 = mm.xor(h, mm.add(v, ext, pred=inb), pred=inb)
            v2 = mm.add(v, 1, pred=inb)
            return v2, h2, mm.cmp("lt", v2, 1 << 40, pred=inb)

        before = CODEGEN_METER.emissions
        _outs, prog = program.capture(m, body, (st_.v, st_.h, st_.inb))
        assert prog is not None
        return CODEGEN_METER.emissions - before, prog

    def test_each_shape_factor_forces_its_own_emission(self):
        program._EMISSIONS.clear()
        emitted, base = self._capture()
        assert emitted == 1
        # A second capture of the same shape binds its own values.
        emitted, again = self._capture(ready=9)
        assert emitted == 0
        assert again.source == base.source
        assert base._fn.__globals__["_eg"] == 5
        assert again._fn.__globals__["_eg"] == 9
        # The entry predicate's lanes are a value, not part of the shape.
        emitted, partial = self._capture(partial=True)
        assert emitted == 0 and partial.source == base.source
        # No external in flight: the entry guard line drops out.
        emitted, unguarded = self._capture(ready=0)
        assert emitted == 1 and "_eg" not in unguarded.source
        slower = replace(SystemConfig(), lat_vector_arith=7)
        assert self._capture(system=slower)[0] == 1
        # Every variant above is now a table hit.
        for kwargs in ({}, {"partial": True}, {"ready": 0},
                       {"system": slower}):
            assert self._capture(**kwargs)[0] == 0, kwargs


# ----------------------------------------------------------------------
# Persistent kernel cache
# ----------------------------------------------------------------------
@pytest.fixture
def disk_cache(tmp_path):
    """Point the shared disk switch at a scratch dir; restore after."""
    saved_dir = CALIBRATION.directory
    CALIBRATION.enable_disk(tmp_path / "cache")
    saved_memory = dict(backends._MEMORY)
    try:
        yield tmp_path / "cache"
    finally:
        CALIBRATION.directory = saved_dir
        backends._MEMORY.clear()
        backends._MEMORY.update(saved_memory)


def _compiled_entry(source="d0 = 1\n"):
    dig = kernel_cache.digest(1, source)
    code = compile(source, "<kernel>", "exec")
    kernel_cache.store(dig, code, {"bufs": []})
    return dig, kernel_cache._path(dig)


class TestKernelCacheCorruption:
    def test_roundtrip(self, disk_cache):
        dig, path = _compiled_entry()
        assert path.exists()
        got = kernel_cache.load(dig)
        assert got is not None and got["meta"] == {"bufs": []}
        ns = {}
        exec(got["code"], {}, ns)
        assert ns["d0"] == 1

    def test_disabled_disk_is_a_silent_noop(self, disk_cache):
        dig, path = _compiled_entry()
        CALIBRATION.disable_disk()
        assert kernel_cache.load(dig) is None
        kernel_cache.store(dig, compile("", "<k>", "exec"), {})

    def test_truncated_entry(self, disk_cache):
        dig, path = _compiled_entry()
        path.write_bytes(path.read_bytes()[:3])
        with pytest.warns(RuntimeWarning, match="truncated"):
            assert kernel_cache.load(dig) is None

    def test_flipped_bit(self, disk_cache):
        dig, path = _compiled_entry()
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="CRC mismatch"):
            assert kernel_cache.load(dig) is None

    def test_garbage_pickle_with_valid_crc(self, disk_cache):
        dig, path = _compiled_entry()
        body = b"certainly not a pickle"
        path.write_bytes(zlib.crc32(body).to_bytes(4, "little") + body)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert kernel_cache.load(dig) is None

    def test_foreign_format_with_valid_crc(self, disk_cache):
        dig, path = _compiled_entry()
        body = pickle.dumps({"format": "someone-elses", "digest": dig})
        path.write_bytes(zlib.crc32(body).to_bytes(4, "little") + body)
        with pytest.warns(RuntimeWarning, match="different cache format"):
            assert kernel_cache.load(dig) is None

    def test_digest_mismatch_rejected(self, disk_cache):
        # A payload copied under the wrong filename must not be served.
        dig, path = _compiled_entry()
        other = kernel_cache.digest(1, "d0 = 2\n")
        path.rename(kernel_cache._path(other))
        with pytest.warns(RuntimeWarning, match="different cache format"):
            assert kernel_cache.load(other) is None

    def test_bad_marshal_with_valid_crc(self, disk_cache):
        dig, path = _compiled_entry()
        body = pickle.dumps(
            {
                "format": kernel_cache._FORMAT,
                "digest": dig,
                "code": b"\xffnot bytecode",
                "meta": {},
            }
        )
        path.write_bytes(zlib.crc32(body).to_bytes(4, "little") + body)
        with pytest.warns(RuntimeWarning, match="bad bytecode"):
            assert kernel_cache.load(dig) is None

    def test_digest_separates_versions_and_sources(self):
        src = "d0 = 1\n"
        digs = {
            kernel_cache.digest(1, src),
            kernel_cache.digest(2, src),
            kernel_cache.digest(2, src + "x = 0\n"),
        }
        assert len(digs) == 3
        assert kernel_cache.digest(1, src) == kernel_cache.digest(1, src)


class TestKernelCacheEndToEnd:
    def test_warm_cache_hits_without_recompiles(self, disk_cache):
        backends._MEMORY.clear()
        first = run_session(_gather_body, True, iters=5)
        # Simulate a new process: in-memory kernel cache gone, disk kept.
        backends._MEMORY.clear()
        hits0 = CODEGEN_METER.kernel_cache_hits
        compiles0 = CODEGEN_METER.kernel_compiles
        second = run_session(_gather_body, True, iters=5)
        assert second == first
        assert CODEGEN_METER.kernel_cache_hits > hits0
        assert CODEGEN_METER.kernel_compiles == compiles0, (
            "warm kernel cache must serve every kernel without recompiling"
        )

    def test_corrupted_entries_recompile_identically(self, disk_cache):
        backends._MEMORY.clear()
        first = run_session(_gather_body, True, iters=5)
        for entry in kernel_cache.kernel_dir().glob("k-*.bin"):
            raw = bytearray(entry.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            entry.write_bytes(bytes(raw))
        backends._MEMORY.clear()
        compiles0 = CODEGEN_METER.kernel_compiles
        with pytest.warns(RuntimeWarning, match="recompiling"):
            second = run_session(_gather_body, True, iters=5)
        assert second == first
        assert CODEGEN_METER.kernel_compiles > compiles0


# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------
class TestArenaSteadyState:
    def test_zero_growth_when_warm(self):
        m, buf = fresh_machine()
        st = _seed_state(m)
        session = ReplaySession(m, _gather_body(buf))
        for _ in range(3):  # capture + warm the arena
            session.step(st)
        warm = ARENA.nbytes
        assert warm > 0
        for _ in range(8):
            session.step(st)
        assert ARENA.nbytes == warm, (
            "steady-state replay must not lease new arena buffers"
        )

    def test_lease_is_shape_and_dtype_stable(self):
        key = ("t", "int64", (7,), "", 0)
        a = ARENA.lease(key, (7,), "int64")
        b = ARENA.lease(key, (7,), "int64")
        assert a is b and a.dtype == np.int64 and a.shape == (7,)


# ----------------------------------------------------------------------
# Optimizer-pass units
# ----------------------------------------------------------------------
class TestCtzsHelper:
    def test_matches_machine_ctz_on_edge_lanes(self):
        ctzs = _helpers_env()["_ctzs"]
        a = np.array(
            [0, 1, -(2 ** 63), 2 ** 63 - 1, 8, 12345, -1, 1 << 62],
            dtype=np.int64,
        )
        b = np.array([0, 1, 0, -1, 8, 54321, -1, 0], dtype=np.int64)
        for s in (0, 1, 3):
            expect = _ctz_values(a ^ b) >> s
            np.testing.assert_array_equal(ctzs(a, b, np.int64(s)), expect)
            out = np.empty_like(a)
            result = ctzs(a, b, s, out)
            assert result is out
            np.testing.assert_array_equal(out, expect)

    def test_ctz_of_zero_is_64_shifted(self):
        ctzs = _helpers_env()["_ctzs"]
        same = np.array([5, -9], dtype=np.int64)
        np.testing.assert_array_equal(
            ctzs(same, same, np.int64(2)), np.array([16, 16])
        )


class TestFuseCtz:
    TEMPS = {5: ((8,), "int64"), 6: ((8,), "int64"), 7: ((8,), "int64")}

    def test_fuses_single_use_chain(self):
        lines = [
            "d5 = _b_xor(d1, d2)",
            "d6 = _ctz(d5)",
            "d7 = _b_shr(d6, x3)",
            "d8 = _b_add(d7, d1)",
        ]
        out = _fuse_ctz(lines, self.TEMPS, {"x3": np.int64(2)})
        assert out == ["d7 = _ctzs(d1, d2, x3)", "d8 = _b_add(d7, d1)"]

    def test_declines_multi_use_intermediate(self):
        lines = [
            "d5 = _b_xor(d1, d2)",
            "d6 = _ctz(d5)",
            "d7 = _b_shr(d6, x3)",
            "d8 = _b_add(d5, d1)",  # d5 read again: fusing would drop it
        ]
        out = _fuse_ctz(lines, self.TEMPS, {"x3": np.int64(2)})
        assert out == lines

    def test_declines_array_shift(self):
        lines = [
            "d5 = _b_xor(d1, d2)",
            "d6 = _ctz(d5)",
            "d7 = _b_shr(d6, x3)",
        ]
        out = _fuse_ctz(
            lines, self.TEMPS, {"x3": np.arange(8, dtype=np.int64)}
        )
        assert out == lines

    def test_declines_operand_reassigned_between(self):
        lines = [
            "d5 = _b_xor(d1, d2)",
            "d1 = _b_add(d1, d2)",
            "d6 = _ctz(d5)",
            "d7 = _b_shr(d6, x3)",
        ]
        out = _fuse_ctz(lines, self.TEMPS, {"x3": np.int64(1)})
        assert out == lines


class TestFastImemAndSharedTolist:
    def test_fast_imem_rewrites_and_collects(self):
        lines = [
            "tw = _mach._indexed_memory(x2, ti, 8, _k0)",
            "tz = _mach._indexed_memory(x5, ti, 8, _k1)",
            "d3 = _b_add(d1, d2)",
        ]
        imem = set()
        out = _fast_imem(lines, imem)
        assert imem == {2, 5}
        assert out[0] == "tw = _imf2(_mach, ti, 8, _k0)"
        assert out[1] == "tz = _imf5(_mach, ti, 8, _k1)"
        assert out[2] == lines[2]

    def test_share_tolist_feeds_guard_and_issue(self):
        # The emitter shape: ti assign, lane count, guard, issue.
        lines = [
            "ti = d0",
            "tn = 8",
            "if tn and min(ti.tolist()) < 0: _rg64(x2, ti)",
            "tw = _imf2(_mach, ti, 8, _k0)",
        ]
        out = _share_tolist(lines)
        assert out == [
            "ti = d0",
            "tn = 8",
            "tj = ti.tolist()",
            "if tn and min(tj) < 0: _rg64(x2, ti)",
            "tw = _imf2(_mach, tj, 8, _k0)",
        ]

    def test_share_tolist_declines_unguarded_rebind(self):
        lines = [
            "ti = d0",
            "if tn and min(ti.tolist()) < 0: _rg64(x2, ti)",
            "ti = d4",  # rebinding with no matching guard: tj may be stale
            "tw = _imf2(_mach, ti, 8, _k0)",
        ]
        assert _share_tolist(lines) == lines

    def test_fast_imem_matches_generic_path(self):
        def gather(machine, buffer, use_fast):
            indices = [3, 900, 41, 41, 7]
            if use_fast:
                imf = _make_fast_imem(buffer)
                return [imf(machine, indices, 8, 0) for _ in range(3)]
            arr = np.asarray(indices, dtype=np.int64)
            return [
                machine._indexed_memory(buffer, arr, 8, 0) for _ in range(3)
            ]

        m1, b1 = fresh_machine()
        m2, b2 = fresh_machine()
        assert gather(m1, b1, False) == gather(m2, b2, True)

    def test_fast_imem_serial_fallback_delegates(self):
        m1, b1 = fresh_machine()
        m2, b2 = fresh_machine()
        m1.use_batched_memory = False
        m2.use_batched_memory = False
        arr = np.array([3, 900, 41], dtype=np.int64)
        expect = m1._indexed_memory(b1, arr, 8, 0)
        assert _make_fast_imem(b2)(m2, arr, 8, 0) == expect
