"""Trace capture & fused replay of straight-line vector-op blocks.

The hot inner loops of every figure re-execute the *same* straight-line
sequence of vector ops thousands of times per pair, paying Python
dispatch, ``_issue`` bookkeeping, register allocation and dict-counter
updates on every instruction.  This module records such a block once (a
:class:`RecordedProgram` of op descriptors + register dataflow) and
replays subsequent iterations as one compiled function: the numpy
functional work runs back to back, the scoreboard timing is tracked in
local variables with the exact ``_issue`` semantics (first-strict-max
blocker, per-category stall attribution), and the instruction/busy/stall
counters are committed in a single bulk update at the end of the block.

Replay is **bit-identical** to step-by-step interpretation: the same
``MachineStats`` (instructions, busy, stall, memory, QBUFFER counters),
the same clock and ``_max_complete``, and tracer *totals* that reconcile
with ``snapshot()`` (replayed blocks appear as ``block`` events, exactly
like the existing fast-forward accounting paths).  Memory and QBUFFER
operations inside a trace call the live hierarchy/accelerator (through
the PR 3 batch path), so cache and scratchpad state stay truthful.

Capture is *eager*: the recording pass executes every op on the real
machine while noting descriptors, so the first iteration is accounted
normally and an unsupported op simply marks the trace broken (the block
then stays interpreted — never wrong, at worst slow).  Data-dependent
loop exits (``ptest``/``ptest_spec``) are guard points *between* blocks:
loops replay the body, then branch interpretively on the carried
predicate.

Scalar parameters (the DP kernels' diagonal/offset/count) are threaded
through as :class:`SymInt` values: plain ints during the capture run,
linear expressions over the replay-time parameter tuple in the compiled
code.

A *prefix predicate* is the output of a recorded ``whilelt``: lanes
``0..w-1`` are active, where ``w`` is the clamped lane count the
kernel computes from the op's scalars.  A contiguous load or store
under it has one live index range, ``max(ts, 0)`` to ``min(ts + w,
len)``, so the emitter lowers it to two integer bounds and a slice copy
instead of an index vector, a lane mask and a fancy-index copy.  The
store range guard becomes ``w and ts + w > len``.  A ``qzload`` under
it whose index is a recorded unit-step ``iota`` (the op keeps its
step) reads elements ``start .. start+w-1``: it becomes one
``QuetzalUnit._read_run(start, w, sel, window)`` and a ``[:w]`` copy,
with the checks, values, port occupancy and read count of the
fancy-indexed ``_read_raw``.  The choice follows the recorded op kinds
and lane counts alone, which the shape keys on; every other predicate
keeps the index-vector form.  The DP chunk kernels predicate all of
their loads, stores and QBUFFER reads this way.

Captured programs live on per-pair objects, so the same block is
captured again for every pair.  The kernel source is therefore emitted
once per *block shape* (:class:`_Shape`: everything the emitter reads —
op structure, inlined constants, slot layout, latencies) and kept in a
bounded table; every later capture of that shape only binds its own
values (buffers, baked constants, stream ids, externals, the machine)
into a fresh env and hands the shared source to the emitter
(:func:`repro.vector.backends.emit`), whose memory and disk caches
serve the code.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from time import perf_counter as _pc

from repro.errors import MachineError
from repro.vector.backends import CODEGEN_METER, KernelIR, emit
from repro.vector.machine import (
    _BINOPS,
    _CMPOPS,
    MEM_MODEL_CLOCK,
    _clz_values,
    _ctz_values,
    _raise_gather64_range,
    _rbit_values,
)
from repro.vector.register import Pred, VReg


class CaptureUnsupported(MachineError):
    """Raised internally when a block cannot be recorded faithfully."""


# ----------------------------------------------------------------------
# Effectiveness meter (surfaced by repro.eval.timing)
# ----------------------------------------------------------------------
class ReplayMeter:
    """Process-wide counts of captured / replayed / interpreted blocks.

    ``total_blocks`` counts every block execution routed through a
    replay-aware site, and the conservation invariant ``captures +
    replayed_blocks + interpreted_blocks + broken == total_blocks``
    must hold at all times.  ``kernel_run_s`` is the wall time spent
    inside compiled kernels.
    """

    __slots__ = (
        "captures", "replayed_blocks", "replayed_instructions",
        "interpreted_blocks", "interpreted_instructions", "broken",
        "total_blocks", "kernel_run_s",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        from repro.memory.memvec import MEMVEC_METER

        # The codegen counters share the replay meter's window (the
        # parallel engine resets per run); the arena itself survives —
        # its buffers are the whole point of warm steady state.  The
        # memvec counters ride the same window; the pattern tables
        # survive (like the arena, warm patterns are the point).
        CODEGEN_METER.reset()
        MEMVEC_METER.reset()
        self.captures = 0
        self.replayed_blocks = 0
        self.replayed_instructions = 0
        self.interpreted_blocks = 0
        self.interpreted_instructions = 0
        self.broken = 0
        self.total_blocks = 0
        self.kernel_run_s = 0.0
        MEM_MODEL_CLOCK.reset()

    def snapshot(self) -> dict:
        from repro.memory.memvec import MEMVEC_METER
        from repro.vector.backends import ARENA

        return {
            "memvec_pattern_hits": MEMVEC_METER.pattern_hits,
            "memvec_pattern_misses": MEMVEC_METER.pattern_misses,
            "memvec_patterns_compiled": MEMVEC_METER.patterns_compiled,
            "memvec_pattern_declined": MEMVEC_METER.pattern_declined,
            "kernel_cache_hits": CODEGEN_METER.kernel_cache_hits,
            "kernel_compiles": CODEGEN_METER.kernel_compiles,
            "emissions": CODEGEN_METER.emissions,
            "compile_s": CODEGEN_METER.compile_s,
            "arena_bytes": ARENA.nbytes,
            "captures": self.captures,
            "replayed_blocks": self.replayed_blocks,
            "replayed_instructions": self.replayed_instructions,
            "interpreted_blocks": self.interpreted_blocks,
            "interpreted_instructions": self.interpreted_instructions,
            "broken": self.broken,
            "total_blocks": self.total_blocks,
            "kernel_run_s": self.kernel_run_s,
            "mem_model_s": MEM_MODEL_CLOCK.s,
        }

    def delta(self, before: dict) -> dict:
        return {k: v - before.get(k, 0) for k, v in self.snapshot().items()}

    @property
    def hit_rate(self) -> float:
        total = self.replayed_blocks + self.interpreted_blocks + self.captures
        return self.replayed_blocks / total if total else 0.0


REPLAY_METER = ReplayMeter()


# ----------------------------------------------------------------------
# Symbolic scalar parameters
# ----------------------------------------------------------------------
class LinExpr:
    """Integer-linear expression over the replay parameter tuple."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict, const: int) -> None:
        self.coeffs = coeffs
        self.const = const

    def src(self) -> str:
        parts = [str(self.const)]
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            if c == 1:
                parts.append(f"+ p[{i}]")
            elif c == -1:
                parts.append(f"- p[{i}]")
            elif c >= 0:
                parts.append(f"+ {c} * p[{i}]")
            else:
                parts.append(f"- {-c} * p[{i}]")
        return "(" + " ".join(parts) + ")"


class SymInt:
    """A captured scalar parameter: an int value + its linear expression.

    Supported arithmetic (+, -, int *) stays symbolic; anything else
    collapses to the plain value and marks the recorder broken, so the
    block falls back to interpretation rather than baking a varying
    scalar as a constant.
    """

    __slots__ = ("value", "expr", "rec")

    def __init__(self, value: int, expr: LinExpr, rec: "Recorder") -> None:
        self.value = value
        self.expr = expr
        self.rec = rec

    def _lift(self, other):
        if isinstance(other, SymInt):
            return other
        if isinstance(other, (int, np.integer)):
            return SymInt(int(other), LinExpr({}, int(other)), self.rec)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return self._bail(lambda: self.value + other)
        coeffs = dict(self.expr.coeffs)
        for i, c in o.expr.coeffs.items():
            coeffs[i] = coeffs.get(i, 0) + c
        return SymInt(
            self.value + o.value,
            LinExpr({i: c for i, c in coeffs.items() if c},
                    self.expr.const + o.expr.const),
            self.rec,
        )

    __radd__ = __add__

    def __neg__(self):
        return SymInt(
            -self.value,
            LinExpr({i: -c for i, c in self.expr.coeffs.items()},
                    -self.expr.const),
            self.rec,
        )

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return self._bail(lambda: self.value - other)
        return self.__add__(o.__neg__())

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return self._bail(lambda: other - self.value)
        return o.__add__(self.__neg__())

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            k = int(other)
            return SymInt(
                self.value * k,
                LinExpr({i: c * k for i, c in self.expr.coeffs.items() if c * k},
                        self.expr.const * k),
                self.rec,
            )
        return self._bail(lambda: self.value * other)

    __rmul__ = __mul__

    def _bail(self, thunk):
        """Unsupported use: give up on the capture, keep the value right."""
        self.rec.broken = True
        return thunk()

    def __mod__(self, other):
        return self._bail(lambda: self.value % other)

    def __floordiv__(self, other):
        return self._bail(lambda: self.value // other)

    def __index__(self):
        self.rec.broken = True
        return self.value

    __int__ = __index__

    def __eq__(self, other):
        return self._bail(lambda: self.value == other)

    def __lt__(self, other):
        return self._bail(lambda: self.value < other)

    def __le__(self, other):
        return self._bail(lambda: self.value <= other)

    def __gt__(self, other):
        return self._bail(lambda: self.value > other)

    def __ge__(self, other):
        return self._bail(lambda: self.value >= other)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"SymInt({self.value}, {self.expr.src()})"


# ----------------------------------------------------------------------
# The recorder (machine proxy)
# ----------------------------------------------------------------------
class RecorderQz:
    """QUETZAL-unit proxy used while a Recorder is capturing."""

    def __init__(self, rec: "Recorder", qz) -> None:
        self._rec = rec
        self._qz = qz

    @property
    def element_bits(self) -> int:
        return self._qz.element_bits

    @property
    def config(self):
        return self._qz.config

    def qzload(self, idx, sel, pred=None, window=False):
        rec = self._rec
        si, sp = rec._slot(idx), rec._pslot(pred)
        out = self._qz.qzload(idx, sel, pred=pred, window=window)
        so = rec._new_slot(out)
        rec.ops.append({
            "kind": "qzload", "i": si, "p": sp, "o": so,
            "sel": int(sel), "window": bool(window), "n": len(idx.data),
        })
        return out

    def qzmhm(self, op, idx0, idx1, pred=None):
        rec = self._rec
        if op not in ("count", "rcount"):
            rec.broken = True
            return self._qz.qzmhm(op, idx0, idx1, pred=pred)
        s0, s1, sp = rec._slot(idx0), rec._slot(idx1), rec._pslot(pred)
        out = self._qz.qzmhm(op, idx0, idx1, pred=pred)
        so = rec._new_slot(out)
        rec.ops.append({
            "kind": "qzmhm", "op": op, "a": s0, "b": s1, "p": sp, "o": so,
            "n": len(idx0.data), "bits": self._qz.element_bits,
        })
        return out

    def __getattr__(self, name):
        self._rec.broken = True
        return getattr(self._qz, name)


class Recorder:
    """Executes a block on the real machine while recording descriptors.

    Every supported op runs normally (the capture iteration is accounted
    instruction by instruction) and appends one descriptor; an
    unsupported op (or an unsupported scalar use) still runs but marks
    the capture ``broken`` so no program is produced.
    """

    def __init__(self, machine, regs=(), scalars=()) -> None:
        self.machine = machine
        self.ops: list[dict] = []
        self.env: dict = {}
        self.nslots = 0
        self.slots: dict[int, int] = {}
        self.keep: list = []
        self.ebits: dict[int, int] = {}
        self.ispred: dict[int, bool] = {}
        self.externals: list[tuple[int, object]] = []
        self.broken = False
        self._nbaked = 0
        self.inputs = [self._new_slot(r) for r in regs]
        self.params = tuple(
            SymInt(int(v), LinExpr({i: 1}, 0), self)
            for i, v in enumerate(scalars)
        )

    # -- slot bookkeeping ----------------------------------------------
    def _new_slot(self, reg) -> int:
        slot = self.nslots
        self.nslots += 1
        self.slots[id(reg)] = slot
        self.keep.append(reg)
        self.ebits[slot] = reg.ebits
        self.ispred[slot] = isinstance(reg, Pred)
        return slot

    def _slot(self, reg) -> int:
        slot = self.slots.get(id(reg))
        if slot is None:
            # Not produced inside the block: a loop-invariant external
            # (broadcast constants hoisted before the loop).  Its data,
            # ready cycle and category are baked into the program.
            slot = self._new_slot(reg)
            self.externals.append((slot, reg))
        return slot

    def _pslot(self, pred):
        return None if pred is None else self._slot(pred)

    def _bake(self, value) -> str:
        name = f"x{self._nbaked}"
        self._nbaked += 1
        self.env[name] = value
        return name

    def _scalar(self, value):
        if isinstance(value, SymInt):
            if value.rec is not self:
                self.broken = True
                return ("k", int(value.value))
            return ("e", value.expr)
        return ("k", int(value))

    @staticmethod
    def _real(value):
        return value.value if isinstance(value, SymInt) else value

    # -- machine surface (pure queries) --------------------------------
    @property
    def system(self):
        return self.machine.system

    @property
    def quetzal(self):
        qz = self.machine.quetzal
        return None if qz is None else RecorderQz(self, qz)

    def lanes(self, ebits: int) -> int:
        return self.machine.lanes(ebits)

    # -- arithmetic / logic --------------------------------------------
    def binop(self, op, a, b, pred=None):
        sa = self._slot(a)
        if isinstance(b, VReg):
            sb, rb = ("s", self._slot(b)), b
        else:
            sb, rb = self._scalar(b), self._real(b)
        sp = self._pslot(pred)
        out = self.machine.binop(op, a, rb, pred)
        so = self._new_slot(out)
        self.ops.append({"kind": "binop", "op": op, "a": sa, "b": sb,
                         "p": sp, "o": so})
        return out

    def add(self, a, b, pred=None):
        return self.binop("add", a, b, pred)

    def sub(self, a, b, pred=None):
        return self.binop("sub", a, b, pred)

    def mul(self, a, b, pred=None):
        return self.binop("mul", a, b, pred)

    def and_(self, a, b, pred=None):
        return self.binop("and", a, b, pred)

    def or_(self, a, b, pred=None):
        return self.binop("or", a, b, pred)

    def xor(self, a, b, pred=None):
        return self.binop("xor", a, b, pred)

    def min(self, a, b, pred=None):
        return self.binop("min", a, b, pred)

    def max(self, a, b, pred=None):
        return self.binop("max", a, b, pred)

    def shl(self, a, b, pred=None):
        return self.binop("shl", a, b, pred)

    def shr(self, a, b, pred=None):
        return self.binop("shr", a, b, pred)

    def cmp(self, op, a, b, pred=None):
        sa = self._slot(a)
        if isinstance(b, VReg):
            sb, rb = ("s", self._slot(b)), b
        else:
            sb, rb = self._scalar(b), self._real(b)
        sp = self._pslot(pred)
        out = self.machine.cmp(op, a, rb, pred)
        so = self._new_slot(out)
        self.ops.append({"kind": "cmp", "op": op, "a": sa, "b": sb,
                         "p": sp, "o": so})
        return out

    def rbit(self, a, pred=None):
        sa, sp = self._slot(a), self._pslot(pred)
        out = self.machine.rbit(a, pred)
        so = self._new_slot(out)
        self.ops.append({"kind": "rbit", "a": sa, "p": sp, "o": so})
        return out

    def clz(self, a, pred=None):
        sa, sp = self._slot(a), self._pslot(pred)
        out = self.machine.clz(a, pred)
        so = self._new_slot(out)
        self.ops.append({"kind": "clz", "a": sa, "p": sp, "o": so,
                         "width": a.ebits})
        return out

    def sel(self, pred, a, b):
        sp, sa, sb = self._slot(pred), self._slot(a), self._slot(b)
        out = self.machine.sel(pred, a, b)
        so = self._new_slot(out)
        self.ops.append({"kind": "sel", "a": sa, "b": sb, "p": sp, "o": so})
        return out

    # -- constants / lane generators -----------------------------------
    def _baked_const(self, out, category):
        so = self._new_slot(out)
        self.ops.append({
            "kind": "const", "o": so, "cat": category,
            "data": self._bake(out.data.copy()),
        })
        return out

    def dup(self, value, ebits=32):
        if isinstance(value, SymInt) and value.rec is self:
            out = self.machine.dup(value.value, ebits)
            so = self._new_slot(out)
            self.ops.append({"kind": "dup", "o": so, "n": len(out.data),
                             "value": self._scalar(value)})
            return out
        if isinstance(value, SymInt):
            self.broken = True
        return self._baked_const(
            self.machine.dup(self._real(value), ebits), "vector"
        )

    def iota(self, ebits=32, start=0, step=1):
        if isinstance(step, SymInt):
            self.broken = True
            step = step.value
        if not isinstance(start, SymInt):
            return self._baked_const(
                self.machine.iota(ebits, start=start, step=step), "vector"
            )
        out = self.machine.iota(ebits, start=start.value, step=step)
        so = self._new_slot(out)
        n = len(out.data)
        base = self._bake(step * np.arange(n, dtype=np.int64))
        self.ops.append({"kind": "iota", "o": so, "start": self._scalar(start),
                         "step": int(step), "base": base})
        return out

    def from_values(self, values, ebits=32):
        if any(isinstance(v, SymInt) for v in np.ravel(np.asarray(values, dtype=object))):
            self.broken = True
        return self._baked_const(self.machine.from_values(values, ebits), "vector")

    def ptrue(self, ebits=32):
        return self._baked_const(self.machine.ptrue(ebits), "control")

    def pfalse(self, ebits=32):
        return self._baked_const(self.machine.pfalse(ebits), "control")

    def whilelt(self, start, end, ebits=32):
        if not isinstance(start, SymInt) and not isinstance(end, SymInt):
            return self._baked_const(
                self.machine.whilelt(start, end, ebits), "control"
            )
        out = self.machine.whilelt(self._real(start), self._real(end), ebits)
        so = self._new_slot(out)
        n = len(out.data)
        self.ops.append({
            "kind": "whilelt", "o": so, "n": n,
            "start": self._scalar(start), "end": self._scalar(end),
            "base": self._bake(np.arange(n)),
        })
        return out

    def pand(self, a, b):
        sa, sb = self._slot(a), self._slot(b)
        out = self.machine.pand(a, b)
        so = self._new_slot(out)
        self.ops.append({"kind": "pbool", "op": "and", "a": sa, "b": sb, "o": so})
        return out

    def por(self, a, b):
        sa, sb = self._slot(a), self._slot(b)
        out = self.machine.por(a, b)
        so = self._new_slot(out)
        self.ops.append({"kind": "pbool", "op": "or", "a": sa, "b": sb, "o": so})
        return out

    def pnot(self, a):
        sa = self._slot(a)
        out = self.machine.pnot(a)
        so = self._new_slot(out)
        self.ops.append({"kind": "pbool", "op": "not", "a": sa, "b": None, "o": so})
        return out

    # -- memory ---------------------------------------------------------
    def load(self, buf, start=0, ebits=32, pred=None, stream_id=None):
        if pred is None:
            # The serial path may take the contiguous no-mask branch
            # depending on runtime bounds; keep those loads interpreted.
            self.broken = True
        sp = self._pslot(pred)
        out = self.machine.load(buf, self._real(start), ebits, pred, stream_id)
        so = self._new_slot(out)
        sid = stream_id if stream_id is not None else buf.default_sid
        self.ops.append({
            "kind": "load", "o": so, "p": sp, "buf": self._bake(buf),
            "start": self._scalar(start), "n": len(out.data),
            "len": len(buf.data), "eb": buf.elem_bytes, "sid": int(sid),
            "fwd": bool(buf.track_forwarding),
        })
        return out

    def store(self, buf, start, value, pred=None, stream_id=None):
        if pred is None:
            self.broken = True
        sv, sp = self._slot(value), self._pslot(pred)
        sid = stream_id if stream_id is not None else buf.default_sid
        self.ops.append({
            "kind": "store", "v": sv, "p": sp, "buf": self._bake(buf),
            "start": self._scalar(start), "n": len(value.data),
            "len": len(buf.data), "eb": buf.elem_bytes, "sid": int(sid),
            "fwd": bool(buf.track_forwarding),
        })
        return self.machine.store(buf, self._real(start), value, pred, stream_id)

    def gather64(self, buf, idx, pred=None, stream_id=None):
        si, sp = self._slot(idx), self._pslot(pred)
        out = self.machine.gather64(buf, idx, pred, stream_id)
        so = self._new_slot(out)
        sid = stream_id if stream_id is not None else buf.default_sid
        self.ops.append({
            "kind": "gather64", "i": si, "p": sp, "o": so,
            "buf": self._bake(buf), "n": len(idx.data), "sid": int(sid),
        })
        return out

    # -- everything else falls back (and voids the capture) -------------
    def __getattr__(self, name):
        attr = getattr(self.machine, name)
        if not callable(attr):
            self.broken = True
            return attr

        def wrapper(*args, **kwargs):
            self.broken = True
            args = [self._real(a) for a in args]
            kwargs = {k: self._real(v) for k, v in kwargs.items()}
            return attr(*args, **kwargs)

        return wrapper

    # -- program assembly ----------------------------------------------
    def finish(self, outputs) -> "RecordedProgram | None":
        if self.broken or not self.ops:
            REPLAY_METER.broken += 1
            return None
        out_slots = [self._slot(r) for r in (outputs or ())]
        return _compile(self, out_slots)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
#: Emitted kernels by recording shape.  Bounded like the emitter's
#: in-memory kernel cache: cleared whole once it holds 256 shapes.
_EMISSIONS: dict = {}


def _compile(rec: Recorder, out_slots: list[int]) -> "RecordedProgram":
    """Compile the recorded block into one replay function.

    The source is emitted once per :class:`_Shape` (metered on
    ``CODEGEN_METER.emissions``); every capture binds its own values
    into a fresh env and goes through :func:`emit`, so kernel code
    still comes from the emitter's memory and disk caches.
    """
    shape = _shape(rec, out_slots)
    em = _EMISSIONS.get(shape)
    if em is None:
        em = _emit(shape)
        CODEGEN_METER.emissions += 1
        if len(_EMISSIONS) >= 256:
            _EMISSIONS.clear()
        _EMISSIONS[shape] = em
    ir = KernelIR(em.head, em.body, em.tail, em.bind(rec), em.temps,
                  outs=em.outs)
    return RecordedProgram(emit(ir), len(shape.ops), ir.source)


class _Shape(NamedTuple):
    """Everything the emitter reads about a recording, canonical and
    hashable: two captures with equal shapes emit identical source.

    Per-instance values are left out and bound per capture instead
    (:meth:`_Emission.bind`): baked buffers and constant arrays (the
    source names them ``xN``), binop/cmp scalar constants, load/store
    buffer lengths and stream ids, external registers and their ready
    stamps, and the machine's memory, QUETZAL unit and occupancy table.
    """

    #: lat_vector_arith, lat_predicate, L1 load-to-use, lat_gather_base,
    #: lat_vector_load_extra.
    latencies: tuple
    #: Per op, its ``(field, value)`` items minus the bound fields.
    ops: tuple
    #: Recorder bakes before this emission: numbers the emitter's own.
    nbaked: int
    inputs: tuple
    #: Per slot (the recorder numbers slots in creation order).
    ebits: tuple
    ispred: tuple
    externals: tuple
    out_slots: tuple
    #: Input predicates used as op predicates.
    pall: frozenset
    #: Whether the head checks the externals' ready bound (``_eg``).
    ext_guard: bool
    #: Per slot, ``(data shape, dtype)``; None for inputs and externals.
    temps: tuple


#: Op fields the source reaches through the env (``_kN``), never inlines.
_BOUND_FIELDS = ("len", "sid")
#: Op kinds with neither a scalar operand nor a bound field: their
#: recorded items are already canonical.
_PLAIN_KINDS = frozenset(
    ("const", "rbit", "clz", "sel", "pbool", "qzload", "qzmhm")
)


def _op_shape(op: dict) -> tuple:
    kind = op["kind"]
    if kind in _PLAIN_KINDS or (
        (kind == "binop" or kind == "cmp") and op["b"][0] == "s"
    ):
        return tuple(op.items())
    items = []
    for key, value in op.items():
        if key in _BOUND_FIELDS:
            continue
        if type(value) is tuple:
            if value[0] == "e":
                value = ("e", value[1].src())
            elif value[0] == "k" and key == "b":
                # A binop/cmp scalar is baked, not inlined (see bsrc).
                value = ("k",)
        items.append((key, value))
    return tuple(items)


def _ext_bound(rec: Recorder, out_slots) -> int:
    """Latest ready stamp among the externals the entry guard covers
    (those not handed back as outputs); 0 when none is in flight."""
    bound = 0
    for slot, reg in rec.externals:
        if slot not in out_slots and int(reg.ready) > bound:
            bound = int(reg.ready)
    return bound


def _shape(rec: Recorder, out_slots) -> _Shape:
    sys_ = rec.machine.system
    used_as_pred = {op.get("p") for op in rec.ops}
    pall = frozenset(
        s for s in rec.inputs if rec.ispred.get(s) and s in used_as_pred
    )
    externals = tuple(slot for slot, _reg in rec.externals)
    fixed = set(rec.inputs).union(externals)
    temps = []
    for slot, reg in enumerate(rec.keep):
        data = None if slot in fixed else getattr(reg, "data", None)
        temps.append(None if data is None else (data.shape, data.dtype))
    return _Shape(
        (sys_.lat_vector_arith, sys_.lat_predicate, sys_.l1d.load_to_use,
         sys_.lat_gather_base, sys_.lat_vector_load_extra),
        tuple(_op_shape(op) for op in rec.ops),
        rec._nbaked,
        tuple(rec.inputs),
        tuple(rec.ebits.values()),
        tuple(rec.ispred.values()),
        externals,
        tuple(out_slots),
        pall,
        _ext_bound(rec, out_slots) > 0,
        tuple(temps),
    )


class _Emission(NamedTuple):
    """One emitted kernel source and its binding plan.

    ``kbinds`` lists ``(env name, op index, op field)`` for the bound
    op fields; ``bakes`` the emitter's own constants as ``(env name,
    kind, arg)`` — kind ``"scalar"`` for op ``arg``'s binop/cmp
    constant, ``"mask"`` for an all-true rcount mask of ``arg`` lanes.
    """

    head: list
    body: list
    tail: list
    temps: dict
    outs: frozenset
    out_slots: tuple
    kbinds: tuple
    bakes: tuple
    #: Whether the source checks ``_eg``, and whether it calls ``_cnt``.
    guard: bool
    cnt: bool

    def bind(self, rec: Recorder) -> dict:
        """A fresh env holding ``rec``'s values under the source's names."""
        m = rec.machine
        env = dict(_BASE_ENV)
        env["_occ"] = m._occ_lut
        env["_mem"] = m.mem
        env["_qz"] = m.quetzal
        ops = rec.ops
        env.update(rec.env)
        for name, kind, arg in self.bakes:
            if kind == "scalar":
                env[name] = np.int64(ops[arg]["b"][1])
            else:
                env[name] = np.ones(arg, dtype=bool)
        for slot, reg in rec.externals:
            env[f"e{slot}"] = reg
        for name, k, field in self.kbinds:
            env[name] = ops[k][field]
        if self.guard:
            # The guard bound goes through the env, not the source text:
            # ready stamps vary run to run, and an inlined int would
            # defeat the shared bytecode cache for equal-shape blocks.
            env["_eg"] = _ext_bound(rec, self.out_slots)
        if self.cnt:
            env["_cnt"] = _count_matches()
        return env


def _emit(shape: _Shape) -> _Emission:
    """Emit the kernel source for one recording shape (see
    :func:`_compile`).  Reads nothing but ``shape``, so every value
    that shapes the source is part of the table key."""
    lat_arith, lat_pred, l1_ltu, gather_base, load_extra = shape.latencies
    ops = [dict(items) for items in shape.ops]
    inputs = shape.inputs
    out_slots = shape.out_slots
    pall = shape.pall
    kbinds: list = []
    bakes: list = []
    cnt = False

    instr = Counter()
    busy = Counter()
    dyn_mem = False
    dyn_qz = False

    L: list[str] = []
    I = "    "

    def w(line: str, depth: int = 1) -> None:
        L.append(I * depth + line)

    def ssrc(sv) -> str:
        return str(sv[1]) if sv[0] == "k" else sv[1]

    def bake(kind, arg) -> str:
        name = f"x{shape.nbaked + len(bakes)}"
        bakes.append((name, kind, arg))
        return name

    def bsrc(sv, k: int) -> str:
        """Scalar operand of a binop/cmp, matching np.int64(b) in serial."""
        if sv[0] == "s":
            return f"d{sv[1]}"
        if sv[0] == "k":
            return bake("scalar", k)
        return f"_i64({sv[1]})"

    # ------------------------------------------------------------------
    # Timing emission with compile-time constant folding.
    #
    # The scoreboard arithmetic between variable-latency operations is
    # deterministic: constant occupancies, constant latencies, and a
    # first-strict-max blocker rule over values we can track relative to
    # the running clock.  We therefore fold whole runs of arithmetic ops
    # into compile-time offsets (clock delta, per-category stall, max
    # completion) and only emit runtime code around memory/QBUFFER ops
    # and the first uses of block inputs/externals, whose readiness is
    # only known at replay time.
    #
    # Register readiness is tracked in one of three states:
    #   * const   — ready == clock_var + k for a compile-time k
    #                (``const_k[slot]``; category in ``static_cat``)
    #   * runtime — an ``r{slot}`` local holds the exact ready value
    #   * absorbed — known <= clock forever (clock is monotonic), so the
    #                register can never stall a consumer again and is
    #                dropped from dependence chains.  An absorbed value
    #                strictly predates any *stalling* ready, so skipping
    #                it cannot steal or shadow a blocker attribution.
    # ------------------------------------------------------------------
    last_use: dict = {}
    consumers: dict = {}
    for k, op in enumerate(ops):
        for key in ("a", "b", "i", "v", "p"):
            v = op.get(key)
            if isinstance(v, tuple) and v and v[0] == "s":
                v = v[1]
            if isinstance(v, int):
                last_use[v] = k
                consumers.setdefault(v, []).append((op, key))
    out_set = set(out_slots)
    BIG = len(ops) + 1
    for slot in out_set:
        last_use[slot] = BIG

    # Prefix predicates (see the module docstring): the whilelt outputs
    # that predicate a load or store of the same lane count (a 1-lane
    # predicate would broadcast over a wider access), or a qzload of a
    # unit-step iota (a run read).  Their whilelt keeps its clamped lane
    # count in ``w{slot}`` for those accesses.
    wlanes = {op["o"]: op["n"] for op in ops if op["kind"] == "whilelt"}
    unit_iotas = {
        op["o"]: op for op in ops if op["kind"] == "iota" and op["step"] == 1
    }

    def run_read(op) -> bool:
        return op["i"] in unit_iotas and wlanes.get(op["p"]) == op["n"]

    prefix = {
        op["p"] for op in ops
        if (op["kind"] in ("load", "store") and wlanes.get(op["p"]) == op["n"])
        or (op["kind"] == "qzload" and run_read(op))
    }

    # ------------------------------------------------------------------
    # Merge sinking.  A predicated op's inactive lanes are *dead* when
    # every consumer is a same-pred merging op (binop/cmp/rbit/clz) that
    # discards its operands' inactive lanes: their own merge (or the
    # ``& pred`` for cmp) overwrites them.  The one leak is the merge
    # fallback itself — binop/rbit/clz fall back to operand "a", so an
    # "a"-position use propagates inactive lanes into the consumer's
    # output and is fine only if that output's inactive lanes are dead
    # too.  Dead-lane ops skip their merge entirely; values never
    # escape (outputs always merge), so replayed results stay exact.
    # ------------------------------------------------------------------
    _MERGING = ("binop", "cmp", "rbit", "clz")
    lanes_dead: dict = {}
    for k in range(len(ops) - 1, -1, -1):
        op = ops[k]
        o = op.get("o")
        if o is None or op.get("p") is None or op["kind"] not in _MERGING:
            continue
        if o in out_set:
            continue
        dead = True
        for opj, pos in consumers.get(o, ()):
            if (
                opj["kind"] not in _MERGING
                or opj.get("p") != op["p"]
                or pos == "p"
                or (
                    pos == "a"
                    and opj["kind"] != "cmp"
                    and not lanes_dead.get(opj["o"], False)
                )
            ):
                dead = False
                break
        if dead:
            lanes_dead[o] = True

    const_k: dict = {}
    static_cat: dict = {}
    absorbed: set = set()
    cstall = Counter()
    fold = {"off": 0, "segmax": None}

    # Loop-invariant externals carry a fixed ready stamp (the register
    # object itself is baked into the program), so they can be absorbed
    # up front behind a single entry guard: if one is still in flight at
    # block entry — only possible immediately after capture — the
    # program declines (returns None) and the caller interprets that
    # iteration instead.
    guarded_ext: set = set()
    for slot in shape.externals:
        if slot in out_set:
            continue
        guarded_ext.add(slot)
        absorbed.add(slot)

    def kbake(k: int, field: str) -> str:
        """Pass a per-instance int (stream ids, buffer lengths) through
        the env under a position-deterministic name, keeping the
        generated source identical across structurally equal blocks so
        the shared bytecode cache can hit."""
        name = f"_k{len(kbinds)}"
        kbinds.append((name, k, field))
        return name

    def flush(cur_k: int) -> None:
        """Emit the folded segment: max-complete check, clock advance,
        and materialisation of still-live const-tracked registers."""
        off = fold["off"]
        if fold["segmax"] is not None:
            w(f"tc = clock + {fold['segmax']}")
            w("if tc > maxc: maxc = tc")
            fold["segmax"] = None
        for slot in sorted(const_k):
            kk = const_k[slot]
            if last_use.get(slot, -1) >= cur_k or slot in out_set:
                if kk <= off and slot not in out_set:
                    absorbed.add(slot)
                else:
                    w(f"r{slot} = clock + {kk}")
                    if kk <= off:
                        absorbed.add(slot)
        const_k.clear()
        if off:
            w(f"clock += {off}")
            fold["off"] = 0

    def csrc(slot: int) -> str:
        cat = static_cat.get(slot)
        return repr(cat) if cat is not None else f"c{slot}"

    def issue(deps, occ, lat, out, rcat: str, opk: int) -> None:
        # ``rcat`` is the result register's category (what stall
        # attribution sees when the value blocks a consumer) — the
        # *counter* category of the issue is accounted by the caller.
        # Serial predicate ops count under 'control' but their result
        # registers keep the default 'vector' category.
        deps = [s for s in deps if s is not None]
        live_rt = [
            s for s in deps if s not in const_k and s not in absorbed
        ]
        if isinstance(occ, int) and isinstance(lat, int) and not live_rt:
            # Fully deterministic: fold into compile-time offsets.
            off = fold["off"]
            kmax = None
            bcat = None
            for s in deps:
                if s in absorbed:
                    continue
                kk = const_k[s]
                if kmax is None or kk > kmax:
                    kmax = kk
                    bcat = static_cat[s]
            if kmax is not None and kmax > off:
                cstall[bcat] += kmax - off
                off = kmax
            off += occ
            fold["off"] = off
            done = off + lat
            if fold["segmax"] is None or done > fold["segmax"]:
                fold["segmax"] = done
            if out is not None:
                const_k[out] = done
                static_cat[out] = rcat
            return
        # Runtime path: close the folded segment, then emit the exact
        # dependence chain over materialised / runtime readies.
        flush(opk)
        kept = [s for s in deps if s not in absorbed]
        if kept:
            w(f"ready = r{kept[0]}; bc = {csrc(kept[0])}")
            for s in kept[1:]:
                w(f"if r{s} > ready: ready = r{s}; bc = {csrc(s)}")
            w("if ready > clock: stall[bc] += ready - clock; clock = ready")
            absorbed.update(kept)
        if occ == 1:
            w("clock += 1")
        else:
            w(f"clock += {occ}")
        if out is None:
            w(f"tc = clock + {lat}")
            w("if tc > maxc: maxc = tc")
        elif isinstance(lat, int):
            # Constant latency relative to the fresh clock base.
            const_k[out] = lat
            static_cat[out] = rcat
            fold["segmax"] = lat
        else:
            w(f"r{out} = clock + {lat}")
            w(f"if r{out} > maxc: maxc = r{out}")
            w(f"c{out} = {rcat!r}")

    def mask(op, o: str, a: str) -> None:
        """Predicated merge after the functional compute of slot ``o``."""
        p = op.get("p")
        if p is None or lanes_dead.get(op.get("o"), False):
            return
        merge = f"d{o} = _wh(d{p}, d{o}, d{a})"
        if p in pall:
            w(f"if not g{p}: {merge}")
        else:
            w(merge)

    fused: set = set()
    for k, op in enumerate(ops):
        if k in fused:
            continue
        kind = op["kind"]
        o = op.get("o")
        if kind == "const":
            w(f"d{o} = {op['data']}")
            issue((), 1, lat_arith if op["cat"] == "vector" else lat_pred,
                  o, "vector", k)
            instr[op["cat"]] += 1
            busy[op["cat"]] += 1
        elif kind == "iota":
            w(f"d{o} = {ssrc(op['start'])} + {op['base']}")
            issue((), 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "dup":
            w(f"d{o} = _full({op['n']}, {ssrc(op['value'])})")
            issue((), 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "whilelt":
            w(f"tw = {ssrc(op['end'])} - {ssrc(op['start'])}")
            w("if tw < 0: tw = 0")
            w(f"elif tw > {op['n']}: tw = {op['n']}")
            w(f"d{o} = {op['base']} < tw")
            if o in prefix:
                w(f"w{o} = tw")
            issue((), 1, lat_pred, o, "vector", k)
            instr["control"] += 1
            busy["control"] += 1
        elif kind == "binop":
            a = op["a"]
            deps = [a] + ([op["b"][1]] if op["b"][0] == "s" else []) + [op["p"]]
            w(f"d{o} = _b_{op['op']}(d{a}, {bsrc(op['b'], k)})")
            mask(op, o, f"{a}")
            issue(deps, 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "cmp":
            a = op["a"]
            deps = [a] + ([op["b"][1]] if op["b"][0] == "s" else []) + [op["p"]]
            w(f"d{o} = _c_{op['op']}(d{a}, {bsrc(op['b'], k)})")
            p = op.get("p")
            if p is not None:
                merge = f"d{o} = d{o} & d{p}"
                if p in pall:
                    w(f"if not g{p}: {merge}")
                else:
                    w(merge)
            issue(deps, 1, lat_pred, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "rbit":
            a = op["a"]
            p = op.get("p")
            nxt = ops[k + 1] if k + 1 < len(ops) else None
            if (
                nxt is not None
                and nxt["kind"] == "clz"
                and nxt["a"] == o
                and nxt.get("p") == p
                and nxt["width"] == 64
                and last_use.get(o, -1) == k + 1
                and o not in out_set
                and (p is None or p in pall)
            ):
                # clz(rbit(x)) == count-trailing-zeros(x): fuse the
                # pair into one kernel when the reversed intermediate
                # is dead (timing still accounts both instructions).
                # Inactive lanes pass the input through both serial
                # ops (rbit then clz leave them at d{a}), so the usual
                # single merge against the input is exact.
                o2 = nxt["o"]
                w(f"d{o2} = _ctz(d{a})")
                mask(nxt, o2, f"{a}")
                issue([a, p], 1, lat_arith, o, "vector", k)
                issue([o, p], 1, lat_arith, o2, "vector", k + 1)
                instr["vector"] += 2
                busy["vector"] += 2
                fused.add(k + 1)
                continue
            w(f"d{o} = _rbit(d{a})")
            mask(op, o, f"{a}")
            issue([a, op["p"]], 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "clz":
            a = op["a"]
            w(f"d{o} = _clz(d{a}, {op['width']})")
            mask(op, o, f"{a}")
            issue([a, op["p"]], 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "sel":
            w(f"d{o} = _wh(d{op['p']}, d{op['a']}, d{op['b']})")
            issue([op["a"], op["b"], op["p"]], 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "pbool":
            a, b = op["a"], op["b"]
            if op["op"] == "and":
                w(f"d{o} = d{a} & d{b}")
            elif op["op"] == "or":
                w(f"d{o} = d{a} | d{b}")
            else:
                w(f"d{o} = ~d{a}")
            issue([a, b], 1, lat_pred, o, "vector", k)
            instr["control"] += 1
            busy["control"] += 1
        elif kind == "gather64":
            flush(k)
            i, p, buf = op["i"], op["p"], op["buf"]
            n = op["n"]
            if p is None or p in pall:
                cond = "" if p is None else f"if g{p}:"
                if cond:
                    w(cond)
                d = 2 if cond else 1
                w(f"ti = d{i}", d)
                w(f"tn = {n}", d)
                w(f"if tn and int(ti.min()) < 0: _rg64({buf}, ti)", d)
                w("try:", d)
                w(f"    d{o} = {buf}.packed_windows()[d{i}]", d)
                w("except IndexError:", d)
                w(f"    _rg64({buf}, ti)", d)
                if cond:
                    w("else:")
                    _emit_gather64_masked(w, i, p, o, buf, n, depth=2)
            else:
                _emit_gather64_masked(w, i, p, o, buf, n, depth=1)
            w("_mach.clock = clock")
            w(f"tw = _mach._indexed_memory({buf}, ti, 8, {kbake(k, 'sid')})")
            w(f"tx = tw - {l1_ltu}")
            w("if tx < 0: tx = 0")
            w("to = _occ[tn]")
            w(f"tl = {gather_base} - to + {l1_ltu}")
            w(f"if tl < {l1_ltu}: tl = {l1_ltu}")
            w("tl += tx")
            issue([i, p], "to", "tl", o, "memory", k)
            w("bmem += to")
            instr["memory"] += 1
            dyn_mem = True
        elif kind == "load":
            flush(k)
            p, buf, n, eb = op["p"], op["buf"], op["n"], op["eb"]
            w(f"ts = {ssrc(op['start'])}")
            # Buffer length goes through the env (kbake), not the source:
            # the same block over different-length sequences must keep an
            # identical source so the bytecode cache can hit.
            if wlanes.get(p) == n:
                # Lanes 0..w-1 clipped to the buffer: live indices
                # tlo..thi-1, zero elsewhere.
                kl = kbake(k, "len")
                w("tlo = ts if ts > 0 else 0")
                w(f"thi = ts + w{p}")
                w(f"if thi > {kl}: thi = {kl}")
                w(f"d{o} = _zi64({n})")
                w("if thi > tlo:")
                w(f"    d{o}[tlo - ts:thi - ts] = {buf}.data[tlo:thi]")
                w(f"    tnb = (thi - tlo) * {eb}")
                nbytes = "tnb"
            else:
                w(f"ti = _ar(ts, ts + {n})")
                w(f"tr = d{p} & (ti >= 0) & (ti < {kbake(k, 'len')})")
                # ``ti`` ascends, so the live lanes span tl2[0]..tl2[-1].
                w("tl2 = ti[tr]")
                w(f"d{o} = _zi64({n})")
                w(f"d{o}[tr] = {buf}.data[tl2]")
                w("if tl2.size:")
                w("    tlo = int(tl2[0]); tsp = int(tl2[-1]) - tlo + 1")
                w("else:")
                w("    tlo = 0; tsp = 0")
                w("if tsp:")
                nbytes = f"tsp * {eb}"
            w(f"    ta = {buf}.base + tlo * {eb}")
            w("    _mach.clock = clock")
            w(f"    tlat = _mem.access(ta, {nbytes}, {kbake(k, 'sid')})")
            if op["fwd"]:
                w("    if _mach._store_visible:"
                  f" tlat += _mach._forwarding_stall(ta, {nbytes})")
            w("else:")
            w(f"    tlat = {l1_ltu}")
            w(f"tlat += {load_extra}")
            issue([p], 1, "tlat", o, "memory", k)
            instr["memory"] += 1
            busy["memory"] += 1
        elif kind == "store":
            flush(k)
            v, p, buf, n, eb = op["v"], op["p"], op["buf"], op["n"], op["eb"]
            w(f"ts = {ssrc(op['start'])}")
            kl = kbake(k, "len")
            if wlanes.get(p) == n:
                # An active lane past the end raises; past the guard,
                # ts + w <= len, so only the low bound needs clipping.
                w(f"if w{p} and ts + w{p} > {kl}: _oob({buf})")
                w("tlo = ts if ts > 0 else 0")
                w(f"thi = ts + w{p}")
                w(f"{buf}._win64 = None")
                w("if thi > tlo:")
                w(f"    {buf}.data[tlo:thi] = d{v}[tlo - ts:thi - ts]")
                w(f"    tnb = (thi - tlo) * {eb}")
                nbytes = "tnb"
            else:
                w(f"ti = _ar(ts, ts + {n})")
                w(f"tr = d{p} & (ti >= 0) & (ti < {kl})")
                w(f"if _any(d{p} & ~tr & (ti >= {kl})): _oob({buf})")
                w("tl2 = ti[tr]")
                w(f"{buf}.data[tl2] = d{v}[tr]")
                w("if tl2.size:")
                w("    tlo = int(tl2[0]); tsp = int(tl2[-1]) - tlo + 1")
                w("else:")
                w("    tlo = 0; tsp = 0")
                w(f"{buf}._win64 = None")
                w("if tsp:")
                nbytes = f"tsp * {eb}"
            w(f"    ta = {buf}.base + tlo * {eb}")
            w("    _mach.clock = clock")
            w(f"    _mem.access(ta, {nbytes}, {kbake(k, 'sid')})")
            if op["fwd"]:
                w(f"    _mach._record_store(ta, {nbytes})")
            issue([v, p], 1, 1, None, "memory", k)
            instr["memory"] += 1
            busy["memory"] += 1
        elif kind == "qzload":
            i, p, n = op["i"], op["p"], op["n"]
            sel_, win = op["sel"], op["window"]
            if run_read(op):
                # Lanes 0..w-1 read elements start..start+w-1; the iota
                # itself is dead unless something else reads it.
                w(f"ts = {ssrc(unit_iotas[i]['start'])}")
                w(f"traw, tq = _qz._read_run(ts, w{p}, {sel_}, {win})")
                w(f"d{o} = _zi64({n})")
                w(f"d{o}[:w{p}] = traw")
            elif p is None or p in pall:
                cond = "" if p is None else f"if g{p}:"
                if cond:
                    w(cond)
                d = 2 if cond else 1
                w(f"traw, tq = _qz._read_raw(d{i}, {sel_}, {win})", d)
                w(f"d{o} = traw.astype(_i64)", d)
                if cond:
                    w("else:")
                    _emit_qzload_masked(w, i, p, o, sel_, win, n, depth=2)
            else:
                _emit_qzload_masked(w, i, p, o, sel_, win, n, depth=1)
            issue([i, p], "tq", 1, o, "qbuffer", k)
            w("bqz += tq")
            instr["qbuffer"] += 1
            dyn_qz = True
        elif kind == "qzmhm":
            a, b, p, n, bits = op["a"], op["b"], op["p"], op["n"], op["bits"]
            if op["op"] == "rcount":
                mask_src = bake("mask", n) if p is None else f"d{p}"
                w(f"d{o}, tq = _qz._rcount_raw(d{a}, d{b}, {mask_src})")
                issue([a, b, p], "tq", 2, o, "qbuffer", k)
            else:
                if p is None or p in pall:
                    cond = "" if p is None else f"if g{p}:"
                    if cond:
                        w(cond)
                    d = 2 if cond else 1
                    w(f"t0, ta = _qz._read_raw(d{a}, 0, True)", d)
                    w(f"t1, tb = _qz._read_raw(d{b}, 1, True)", d)
                    if cond:
                        w("else:")
                        _emit_qzmhm_masked(w, a, b, p, n, depth=2)
                else:
                    _emit_qzmhm_masked(w, a, b, p, n, depth=1)
                w("tq = ta if ta > tb else tb")
                w(f"d{o} = _asai64(_cnt(t0, t1, {bits}))")
                cnt = True
                issue([a, b, p], "tq", 2, o, "qbuffer", k)
            w("bqz += tq")
            instr["qbuffer"] += 1
            dyn_qz = True
        else:  # pragma: no cover - recorder only emits known kinds
            raise CaptureUnsupported(f"unknown recorded op kind {kind!r}")

    # Close the trailing folded segment; materialise the outputs.
    flush(BIG)

    # ------------------------------------------------------------------
    # Prologue / epilogue
    # ------------------------------------------------------------------
    head = ["def _rp(_mach, a, p):"]
    head.append(I + "clock = _mach.clock")
    head.append(I + "maxc = _mach._max_complete")
    head.append(I + "stall = _dd(int)")
    if dyn_mem:
        head.append(I + "bmem = 0")
    if dyn_qz:
        head.append(I + "bqz = 0")
    if shape.ext_guard:
        # The bound comes from the env (see _Emission.bind).
        head.append(I + "if _eg > clock: return None")
    for j, slot in enumerate(inputs):
        head.append(I + f"d{slot} = a[{j}].data; r{slot} = a[{j}].ready; "
                    f"c{slot} = a[{j}].category")
    for slot in shape.externals:
        if slot in guarded_ext:
            head.append(I + f"d{slot} = e{slot}.data")
        else:
            head.append(I + f"d{slot} = e{slot}.data; r{slot} = e{slot}.ready; "
                        f"c{slot} = e{slot}.category")
    for slot in sorted(pall):
        head.append(I + f"g{slot} = bool(d{slot}.all())")

    tail: list[str] = []
    tail.append(I + "_mach.clock = clock")
    tail.append(I + "if maxc > _mach._max_complete: _mach._max_complete = maxc")
    instr_src = {cat: str(n) for cat, n in instr.items() if n}
    busy_src = {cat: str(n) for cat, n in busy.items() if n}
    if dyn_mem:
        base = busy.get("memory", 0)
        busy_src["memory"] = f"{base} + bmem" if base else "bmem"
    if dyn_qz:
        base = busy.get("qbuffer", 0)
        busy_src["qbuffer"] = f"{base} + bqz" if base else "bqz"
    tail.append(I + "t = _mach._instructions")
    for cat in sorted(instr_src):
        tail.append(I + f"t[{cat!r}] += {instr_src[cat]}")
    tail.append(I + "t = _mach._busy")
    for cat in sorted(busy_src):
        tail.append(I + f"t[{cat!r}] += {busy_src[cat]}")
    for cat in sorted(cstall):
        if cstall[cat]:
            tail.append(I + f"stall[{cat!r}] += {cstall[cat]}")
    tail.append(I + "if stall:")
    tail.append(I + "    t = _mach._stall")
    tail.append(I + "    for tk, tv in stall.items(): t[tk] += tv")
    instr_dict = "{" + ", ".join(
        f"{c!r}: {instr_src[c]}" for c in sorted(instr_src)) + "}"
    busy_dict = "{" + ", ".join(
        f"{c!r}: {busy_src[c]}" for c in sorted(busy_src)) + "}"
    tail.append(I + "if _mach.tracer is not None:")
    tail.append(I + f"    _mach._trace_bulk({instr_dict}, {busy_dict}, stall)")
    rets = []
    for slot in out_slots:
        wrap = "_pw" if shape.ispred[slot] else "_vw"
        rets.append(
            f"{wrap}(d{slot}, {shape.ebits[slot]}, r{slot}, {csrc(slot)})"
        )
    tail.append(I + "return (" + ", ".join(rets)
                + ("," if len(rets) == 1 else "") + ")")

    # Non-escaping slots (not handed in, not handed back, not external)
    # are the emitter's to manage: the optimizer may retarget their
    # computes into arena scratch storage.  Escaping slots keep their
    # freshly allocated arrays — callers hold them across kernel calls.
    temps = {}
    outs = set()
    for slot, temp in enumerate(shape.temps):
        if temp is None:
            continue
        temps[slot] = (temp[0], str(temp[1]))
        if slot in out_set:
            outs.add(slot)
    return _Emission(head, L, tail, temps, frozenset(outs), out_slots,
                     tuple(kbinds), tuple(bakes), shape.ext_guard, cnt)


def _np_full_i64(n: int, value) -> np.ndarray:
    return np.full(n, value, dtype=np.int64)


def _emit_gather64_masked(w, i, p, o, buf, n, depth):
    w(f"ti = d{i}[d{p}]", depth)
    w("tn = ti.size", depth)
    w(f"if tn and int(ti.min()) < 0: _rg64({buf}, ti)", depth)
    w(f"d{o} = _zi64({n})", depth)
    w("try:", depth)
    w(f"    if tn: d{o}[d{p}] = {buf}.packed_windows()[ti]", depth)
    w("except IndexError:", depth)
    w(f"    _rg64({buf}, ti)", depth)


def _emit_qzload_masked(w, i, p, o, sel_, win, n, depth):
    w(f"traw, tq = _qz._read_raw(d{i}[d{p}], {sel_}, {win})", depth)
    w(f"tv = _zu64({n})", depth)
    w(f"tv[d{p}] = traw", depth)
    w(f"d{o} = tv.astype(_i64)", depth)


def _emit_qzmhm_masked(w, a, b, p, n, depth):
    w(f"tm = d{p}", depth)
    w(f"traw, ta = _qz._read_raw(d{a}[tm], 0, True)", depth)
    w(f"t0 = _zu64({n}); t0[tm] = traw", depth)
    w(f"traw, tb = _qz._read_raw(d{b}[tm], 1, True)", depth)
    w(f"t1 = _zu64({n}); t1[tm] = traw", depth)


def _count_matches():
    from repro.quetzal.count_alu import count_matches_vector

    return count_matches_vector


def _store_oob(buf) -> None:
    raise MachineError(f"store out of range on buffer {buf.name!r}")


def _zi64(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def _zu64(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.uint64)


def _asai64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64)


#: The names every kernel env starts from (:meth:`_Emission.bind`).
_BASE_ENV = {
    "np": np,
    "_dd": defaultdict,
    "_wh": np.where,
    # The store range guard: count_nonzero is one C call, where
    # np.any goes through NumPy's Python-level reduction wrapper.
    "_any": np.count_nonzero,
    "_ar": np.arange,
    "_i64": np.int64,
    "_zi64": _zi64,
    "_zu64": _zu64,
    "_asai64": _asai64,
    "_clz": _clz_values,
    "_full": _np_full_i64,
    "_ctz": _ctz_values,
    "_rbit": _rbit_values,
    "_rg64": _raise_gather64_range,
    "_oob": _store_oob,
    "_vw": VReg._wrap,
    "_pw": Pred._wrap,
    **{f"_b_{name}": ufn for name, ufn in _BINOPS.items()},
    **{f"_c_{name}": ufn for name, ufn in _CMPOPS.items()},
}


# ----------------------------------------------------------------------
# Programs and sessions
# ----------------------------------------------------------------------
_replay_coupling_warned = False


def _warn_replay_without_batched() -> None:
    """Surface the replay/batched-memory coupling instead of silently
    interpreting every block (see ``ReplaySession.enabled``)."""
    global _replay_coupling_warned
    if _replay_coupling_warned:
        return
    _replay_coupling_warned = True
    import warnings

    warnings.warn(
        "use_replay=True has no effect while use_batched_memory=False: "
        "the replay engine compiles the batched memory legs, so every "
        "block is interpreted. Enable use_batched_memory (the default) "
        "or disable replay explicitly (--no-replay / REPRO_NO_REPLAY=1).",
        RuntimeWarning,
        stacklevel=3,
    )



class RecordedProgram:
    """A compiled straight-line block: one call replays the whole trace."""

    __slots__ = ("_fn", "n_ops", "source")

    def __init__(self, fn, n_ops: int, source: str) -> None:
        self._fn = fn
        self.n_ops = n_ops
        self.source = source

    def replay(self, machine, regs=(), scalars=()):
        """Run the compiled block; ``None`` means the program declined
        (an external register was not ready yet at block entry) and the
        caller must interpret this iteration instead."""
        t0 = _pc()
        out = self._fn(machine, regs, scalars)
        REPLAY_METER.kernel_run_s += _pc() - t0
        if out is not None:
            REPLAY_METER.replayed_blocks += 1
            REPLAY_METER.replayed_instructions += self.n_ops
        return out


def capture(machine, fn, regs=(), scalars=()):
    """Record one block: runs ``fn(recorder, *regs, *params)`` eagerly on
    ``machine`` (the capture iteration is fully accounted) and returns
    ``(outputs, program)``.  ``program`` is None when the block used an
    unrecordable op — the caller keeps interpreting in that case.

    Exactly one meter advances per call: ``captures`` on success,
    ``broken`` (inside :meth:`Recorder.finish`) when no program could
    be produced — never both, so the conservation invariant
    ``captures + replayed + interpreted + broken == total_blocks``
    stays op-exact."""
    rec = Recorder(machine, regs, scalars)
    ins = [rec.keep[s] for s in rec.inputs]
    outs = fn(rec, *ins, *rec.params)
    prog = rec.finish(outs)
    if prog is not None:
        REPLAY_METER.captures += 1
    return outs, prog


class ReplaySession:
    """Capture/replay wrapper for a loop-body step.

    ``body(machine, st)`` must be a straight-line block over the carried
    state ``st`` (``.v``/``.h``/``.inb`` registers — the shared
    ``ChunkState`` shape).  The first execution is captured; every
    later one replays the compiled program.  The machine's loop branch
    (``ptest_spec``) stays outside :meth:`step`: data-dependent exits
    are decided interpretively between blocks.
    """

    __slots__ = ("machine", "body", "name", "_prog", "_broken")

    def __init__(self, machine, body, name: str = "block") -> None:
        self.machine = machine
        self.body = body
        self.name = name
        self._prog = None
        self._broken = False

    @staticmethod
    def enabled(machine) -> bool:
        """Replay needs the batched memory engine: the compiled memory
        ops are its packed-window / access-batch legs, so with
        ``use_batched_memory`` off every block stays interpreted.  That
        combination is legal (the conformance grid runs it) but silently
        loses the replay speedup, so it warns once per process.
        """
        if machine.use_replay and not machine.use_batched_memory:
            _warn_replay_without_batched()
            return False
        return machine.use_replay and machine.use_batched_memory

    def _interpret(self, st, n_ops: int = 0) -> None:
        self.body(self.machine, st)
        REPLAY_METER.interpreted_blocks += 1
        if n_ops:
            REPLAY_METER.interpreted_instructions += n_ops

    def _capture(self, st) -> None:
        def fn(rm, v, h, inb):
            st.v, st.h, st.inb = v, h, inb
            self.body(rm, st)
            return (st.v, st.h, st.inb)

        _outs, prog = capture(self.machine, fn, (st.v, st.h, st.inb))
        if prog is None:
            self._broken = True
        else:
            self._prog = prog

    # -- execution ------------------------------------------------------
    def step(self, st) -> None:
        m = self.machine
        if m.use_replay and not m.use_batched_memory:
            _warn_replay_without_batched()
        REPLAY_METER.total_blocks += 1
        if self._broken or not (m.use_replay and m.use_batched_memory):
            self._interpret(st)
            return
        prog = self._prog
        if prog is None:
            self._capture(st)
            return
        t0 = _pc()
        outs = prog._fn(m, (st.v, st.h, st.inb), ())
        REPLAY_METER.kernel_run_s += _pc() - t0
        if outs is None:
            # External registers not yet ready at block entry (only
            # possible right after capture): interpret this iteration.
            self._interpret(st, prog.n_ops)
            return
        st.v, st.h, st.inb = outs
        REPLAY_METER.replayed_blocks += 1
        REPLAY_METER.replayed_instructions += prog.n_ops

    def run_loop(self, st) -> None:
        """Drive ``while machine.ptest_spec(st.inb): step(st)`` to
        completion."""
        m = self.machine
        while m.ptest_spec(st.inb):
            self.step(st)
