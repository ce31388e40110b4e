"""The simulated vector CPU: SVE-like intrinsics over a scoreboard timing model.

Functional semantics and timing are computed together: every intrinsic
returns correct values (numpy) *and* advances a cycle-accurate-ish
scoreboard (in-order issue, out-of-order completion):

* an instruction issues at ``max(clock, operands_ready)``; the wait is a
  *stall* attributed to the blocking operand's producer category;
* issue occupies the pipe for ``occupancy`` cycles (gather/scatter occupy
  one cycle per active element: the AGU serialisation of Section II-G);
* the result becomes ready ``latency`` cycles after issue.

Operations whose results feed scalar control flow (``ptest``, reductions,
``extract``) are *serialising*: the clock advances to their completion,
modelling the vector-to-scalar synchronisation that dominates classic DP
algorithms (Section VII-A3).
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter as _pc

import numpy as np

from repro.config import SystemConfig
from repro.errors import MachineError
from repro.memory.hierarchy import MemoryHierarchy
from repro.vector.register import Pred, SimBuffer, VReg
from repro.vector.stats import MachineStats


class MemModelClock:
    """Accumulated wall seconds spent inside the memory-latency model.

    Fed by every indexed-memory issue (both the generic entry and the
    per-buffer entries of replay kernels) so timing reports can split the
    generated kernels' own compute from shared simulator work.
    """

    __slots__ = ("s",)

    def __init__(self) -> None:
        self.s = 0.0

    def reset(self) -> None:
        self.s = 0.0


MEM_MODEL_CLOCK = MemModelClock()

_BINOPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
    "min": np.minimum,
    "max": np.maximum,
    "shl": np.left_shift,
    "shr": np.right_shift,
}

_CMPOPS = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def _byte_reverse_lut() -> np.ndarray:
    """Bit-reversal table for every byte value, built with the classic
    swap-halves trick (three vectorized passes, no 256x8 Python loop)."""
    table = np.arange(256, dtype=np.uint8)
    table = ((table & 0xF0) >> 4) | ((table & 0x0F) << 4)
    table = ((table & 0xCC) >> 2) | ((table & 0x33) << 2)
    table = ((table & 0xAA) >> 1) | ((table & 0x55) << 1)
    return table


_BYTE_REVERSE_LUT = _byte_reverse_lut()


def _rbit_values(data: np.ndarray) -> np.ndarray:
    """Functional 64-bit per-lane bit reversal (shared with replay).

    Bit-reinterpret (no copies): lanes -> bytes, reverse byte order,
    LUT-reverse each byte's bits, reinterpret back as int64 lanes.
    """
    as_bytes = data.view(np.uint8).reshape(-1, 8)
    reversed_bytes = _BYTE_REVERSE_LUT[as_bytes[:, ::-1]]
    return reversed_bytes.view(np.int64).reshape(-1)


def _clz_values(data: np.ndarray, width: int) -> np.ndarray:
    """Functional per-lane count-leading-zeros (shared with replay);
    ``clz(0) == width``."""
    n = len(data)
    if n <= 16:
        # Short vectors: Python's arbitrary-precision bit_length is
        # exact and beats the numpy temporaries below.
        wmask = (1 << width) - 1
        return np.array(
            [width - (v & wmask).bit_length() for v in data.tolist()],
            dtype=np.int64,
        )
    vals = data.astype(np.uint64)
    result = np.full(n, width, dtype=np.int64)
    nonzero = vals != 0
    if nonzero.any():
        # floor(log2(v)) is exact for uint64 < 2^53 via float64;
        # handle the high range with a pre-shift.
        high = vals >> np.uint64(32)
        top = np.where(high != 0, high, vals & np.uint64(0xFFFFFFFF))
        bits = np.zeros(n, dtype=np.int64)
        bits[nonzero] = np.floor(
            np.log2(top[nonzero].astype(np.float64))
        ).astype(np.int64)
        bits[nonzero & (high != 0)] += 32
        result[nonzero] = width - 1 - bits[nonzero]
    return result

def _ctz_values(data: np.ndarray) -> np.ndarray:
    """Per-lane count of trailing zeros over 64-bit lanes; ``ctz(0) == 64``.

    Exactly ``_clz_values(_rbit_values(x), 64)`` — the replay compiler
    fuses that pair into one kernel when the bit-reversed intermediate
    register is dead.
    """
    n = len(data)
    if n <= 16:
        # ``v & -v`` isolates the lowest set bit; exact for negative
        # Python ints (infinite two's-complement).
        return np.array(
            [(v & -v).bit_length() - 1 if v else 64 for v in data.tolist()],
            dtype=np.int64,
        )
    vals = data.view(np.uint64) if data.dtype == np.int64 else data.astype(np.uint64)
    low = vals & (np.uint64(0) - vals)
    result = np.full(n, 64, dtype=np.int64)
    nonzero = low != 0
    if nonzero.any():
        high = low >> np.uint64(32)
        bits = np.zeros(n, dtype=np.int64)
        top = np.where(high != 0, high, low & np.uint64(0xFFFFFFFF))
        bits[nonzero] = np.floor(
            np.log2(top[nonzero].astype(np.float64))
        ).astype(np.int64)
        bits[nonzero & (high != 0)] += 32
        result[nonzero] = bits[nonzero]
    return result


#: (gather_element_occupancy, max_lanes) -> occupancy-by-lane-count table,
#: shared across machines (see ``VectorMachine._indexed_occupancy``).
_OCC_LUTS: dict = {}


def _raise_gather64_range(buf: SimBuffer, indices: np.ndarray) -> None:
    """Cold path: reconstruct the precise out-of-range message."""
    lo, hi = int(indices.min()), int(indices.max())
    raise MachineError(
        f"gather64 index out of range on {buf.name!r}: [{lo}, {hi}]"
    )


class VectorMachine:
    """One simulated core: VPU + caches (+ optionally a QUETZAL unit)."""

    #: Route gather/gather64/scatter traffic through the batched memory
    #: engine (``MemoryHierarchy.access_batch``) instead of a per-lane
    #: Python walk.  Both paths are bit-identical in statistics and
    #: latency (enforced by the conformance grid and
    #: ``tests/vector/test_machine_batch.py``); the serial walk is the
    #: oracle, and EXPERIMENTS.md's ablation times both.  Class-wide
    #: default; instances may override.
    use_batched_memory = True

    #: Allow hot loops to capture their straight-line bodies once and
    #: replay them as fused programs (see :mod:`repro.vector.program`).
    #: Replay is bit-identical in statistics, clock and stall
    #: attribution (enforced by the conformance grid and the fig13a and
    #: fig15a identity checks); disable with ``--no-replay`` or ``REPRO_NO_REPLAY=1`` (the env
    #: var also reaches spawned worker processes).
    use_replay = os.environ.get("REPRO_NO_REPLAY", "") not in ("1", "true", "yes")

    #: Attach an event tracer to every machine at construction
    #: (``REPRO_TRACE=1``).  Tracing is observability only — statistics,
    #: clock and results are bit-identical with it on or off (enforced
    #: by the conformance grid) — and the env var reaches worker
    #: processes, so whole sweeps can be traced.  Class-wide default;
    #: instances may override before construction via subclassing or
    #: after via ``attach_tracer``/``detach_tracer``.
    auto_trace = os.environ.get("REPRO_TRACE", "") not in ("", "0", "false")

    def __init__(
        self,
        system: SystemConfig | None = None,
        hierarchy: MemoryHierarchy | None = None,
    ) -> None:
        self.system = system or SystemConfig()
        self.mem = hierarchy or MemoryHierarchy(self.system)
        self.clock = 0
        self._max_complete = 0
        self._instructions: Counter = Counter()
        self._busy: Counter = Counter()
        self._stall: Counter = Counter()
        # line address -> cycle at which a tracked store becomes loadable
        self._store_visible: dict[int, int] = {}
        #: Attached QUETZAL unit (set by ``QuetzalUnit.attach``); None on a
        #: baseline machine.
        self.quetzal = None
        #: Opt-in event trace (``attach_tracer``); None costs one branch
        #: per instruction.
        self.tracer = None
        # Occupancy of an indexed memory op by active-lane count
        # (``_indexed_occupancy``): precomputed for every possible lane
        # count so the hot path is a list index.  Cached per
        # (occupancy, lane-count) config across machines.
        per = self.system.gather_element_occupancy
        max_lanes = self.system.lanes_for(8)
        key = (per, max_lanes)
        lut = _OCC_LUTS.get(key)
        if lut is None:
            lut = _OCC_LUTS[key] = [
                max(1, int(round(per * k))) for k in range(max_lanes + 1)
            ]
        self._occ_lut = lut
        # Cached ``np.arange(n)`` per lane count (``whilelt``).
        self._lane_arange: dict[int, np.ndarray] = {}
        # Last (buffer, lane list, address list) of a short indexed
        # batch (``_indexed_memory``); reused while the kernel gathers
        # the same lanes.
        self._imem_memo = None
        # Per-prefix buffer-name sequences (``name_uid``): keeping the
        # sequence machine-local makes buffer names — and the prefetch
        # stream ids derived from them — independent of how many other
        # machines ran before in the same process (sharded pools,
        # serve).
        self._name_seq: dict[str, int] = {}
        # Hot latency constants (``SystemConfig`` is frozen, so these
        # cannot go stale): cached to avoid attribute chains per issue.
        self._lat_arith = self.system.lat_vector_arith
        self._lat_pred = self.system.lat_predicate
        self._l1_ltu = self.system.l1d.load_to_use
        self._line_bytes = self.system.l1d.line_bytes
        self._store_visible_lat = self.system.store_to_load_visible
        self._lat_gather_base = self.system.lat_gather_base
        if self.auto_trace:
            self.attach_tracer()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer=None, capacity: int = 4096):
        """Attach an event trace (see :mod:`repro.vector.trace`).

        Returns the attached :class:`~repro.vector.trace.MachineTracer`;
        pass an existing tracer to share one ring across machines.
        """
        from repro.vector.trace import MachineTracer

        self.tracer = tracer if tracer is not None else MachineTracer(capacity)
        return self.tracer

    def detach_tracer(self):
        """Stop tracing; returns the detached tracer (with its events)."""
        tracer, self.tracer = self.tracer, None
        return tracer

    # ------------------------------------------------------------------
    # Core scoreboard
    # ------------------------------------------------------------------
    def lanes(self, ebits: int) -> int:
        return self.system.lanes_for(ebits)

    def _issue(self, category: str, occupancy: int, latency: int, deps=()) -> int:
        """Issue one instruction; returns its completion cycle."""
        ready = 0
        blocker = None
        for dep in deps:
            if dep is not None and dep.ready > ready:
                ready = dep.ready
                blocker = dep
        start = self.clock if ready <= self.clock else ready
        stall = start - self.clock
        if stall:
            self._stall[blocker.category] += stall
        self.clock = start + occupancy
        complete = self.clock + latency
        if complete > self._max_complete:
            self._max_complete = complete
        self._instructions[category] += 1
        self._busy[category] += occupancy
        if self.tracer is not None:
            self.tracer.record(
                "issue",
                category,
                start,
                occupancy=occupancy,
                latency=latency,
                complete=complete,
                stall=stall,
                stall_category=blocker.category if stall else None,
            )
        return complete

    def account_block(
        self,
        category: str,
        instructions: int = 0,
        busy: int = 0,
        stall: int = 0,
        stall_category: str | None = None,
    ) -> None:
        """Bulk-account a block of work (used by fast-forward timing paths).

        Advances the clock by ``busy + stall`` cycles and records
        ``instructions`` instructions in ``category``.  Fast paths compute
        these totals in closed form; tests pin them against the
        instruction-by-instruction path.
        """
        if busy < 0 or stall < 0 or instructions < 0:
            raise MachineError("account_block takes non-negative amounts")
        self._instructions[category] += instructions
        self._busy[category] += busy
        if stall:
            self._stall[stall_category or category] += stall
        if self.tracer is not None:
            self.tracer.record(
                "block",
                category,
                self.clock,
                occupancy=busy,
                complete=self.clock + busy + stall,
                stall=stall,
                stall_category=stall_category,
                instructions=instructions,
            )
        self.clock += busy + stall
        if self.clock > self._max_complete:
            self._max_complete = self.clock

    def _trace_bulk(self, instructions, busy, stall) -> None:
        """Mirror bulk counter updates into the tracer as block events,
        so tracer totals reconcile with ``snapshot()`` even across the
        fast-forward accounting paths."""
        for cat in sorted(set(instructions) | set(busy)):
            self.tracer.record(
                "block",
                cat,
                self.clock,
                occupancy=busy.get(cat, 0),
                instructions=instructions.get(cat, 0),
            )
        for cat in sorted(stall):
            if stall[cat]:
                self.tracer.record(
                    "block", cat, self.clock, stall=stall[cat], stall_category=cat
                )

    def account_stats(self, delta: MachineStats, times: int = 1) -> None:
        """Replay a measured :class:`MachineStats` delta ``times`` times.

        Applies instruction/busy/stall counters and advances the clock by
        ``delta.cycles * times``.  Memory and QBUFFER statistics are *not*
        applied — fast paths account those against the live hierarchy and
        accelerator so that cache state stays truthful.
        """
        if times < 0:
            raise MachineError("times must be non-negative")
        if times == 0:
            return
        for cat, n in delta.instructions.items():
            self._instructions[cat] += n * times
        for cat, n in delta.busy.items():
            self._busy[cat] += n * times
        for cat, n in delta.stall.items():
            self._stall[cat] += n * times
        if self.tracer is not None:
            self._trace_bulk(
                {c: n * times for c, n in delta.instructions.items()},
                {c: n * times for c, n in delta.busy.items()},
                {c: n * times for c, n in delta.stall.items()},
            )
        self.clock += delta.cycles * times
        if self.clock > self._max_complete:
            self._max_complete = self.clock

    def account_mix(
        self,
        instructions: Counter,
        busy: Counter,
        extra_stall: int = 0,
        stall_category: str = "vector",
    ) -> None:
        """Account a block from explicit counters.

        The clock advances by the total busy cycles plus ``extra_stall``
        (exposed dependency latency a fast path computed analytically).
        """
        if extra_stall < 0:
            raise MachineError("extra_stall must be non-negative")
        self._instructions.update(instructions)
        self._busy.update(busy)
        if extra_stall:
            self._stall[stall_category] += extra_stall
        if self.tracer is not None:
            self._trace_bulk(
                instructions, busy,
                {stall_category: extra_stall} if extra_stall else {},
            )
        self.clock += sum(busy.values()) + extra_stall
        if self.clock > self._max_complete:
            self._max_complete = self.clock

    def barrier(self) -> None:
        """Wait for all in-flight results (end-of-kernel settle)."""
        if self._max_complete > self.clock:
            self.clock = self._max_complete

    # ------------------------------------------------------------------
    # Buffers
    # ------------------------------------------------------------------
    def new_buffer(
        self, name: str, data: np.ndarray, elem_bytes: int | None = None
    ) -> SimBuffer:
        """Allocate a simulated buffer initialised with ``data``."""
        arr = np.asarray(data)
        if elem_bytes is None:
            elem_bytes = arr.dtype.itemsize if arr.dtype.itemsize in (1, 2, 4, 8) else 8
        base = self.mem.alloc(len(arr) * elem_bytes)
        return SimBuffer(name, arr, base, elem_bytes)

    def name_uid(self, prefix: str) -> int:
        """Next per-machine sequence number for buffer names.

        On a machine running one pair after another this reproduces the
        old module-global counters; with many machines in one process
        (sharded runs, serve) each pair still sees the deterministic
        sequence 0, 1, 2, ... regardless of what ran before it.
        Only name *distinctness* within a machine matters for statistics
        (stream ids are dictionary keys), so the renumbering is
        stats-neutral on fresh machines.
        """
        n = self._name_seq.get(prefix, 0)
        self._name_seq[prefix] = n + 1
        return n

    # ------------------------------------------------------------------
    # Constants / lane generators
    # ------------------------------------------------------------------
    def dup(self, value: int, ebits: int = 32) -> VReg:
        """Broadcast a scalar into all lanes."""
        complete = self._issue("vector", 1, self.system.lat_vector_arith)
        n = self.lanes(ebits)
        return VReg(np.full(n, value, dtype=np.int64), ebits, complete)

    def iota(self, ebits: int = 32, start: int = 0, step: int = 1) -> VReg:
        """Lane-index vector: ``start, start+step, ...`` (SVE ``INDEX``)."""
        complete = self._issue("vector", 1, self.system.lat_vector_arith)
        n = self.lanes(ebits)
        data = start + step * np.arange(n, dtype=np.int64)
        return VReg(data, ebits, complete)

    def from_values(self, values, ebits: int = 32) -> VReg:
        """Materialise explicit lane values (test/setup helper).

        Charged as a single vector move; lanes beyond ``len(values)`` are 0.
        """
        n = self.lanes(ebits)
        vals = np.zeros(n, dtype=np.int64)
        arr = np.asarray(values, dtype=np.int64)
        if arr.size > n:
            raise MachineError(f"too many values for {ebits}-bit lanes: {arr.size}")
        vals[: arr.size] = arr
        complete = self._issue("vector", 1, self.system.lat_vector_arith)
        return VReg(vals, ebits, complete)

    # ------------------------------------------------------------------
    # Arithmetic / logic
    # ------------------------------------------------------------------
    def binop(self, op: str, a: VReg, b, pred: Pred | None = None) -> VReg:
        """Predicated binary operation; inactive lanes keep ``a``'s value."""
        try:
            fn = _BINOPS[op]
        except KeyError:
            raise MachineError(f"unknown binop: {op!r}")
        # ``_coerce`` inlined: this is the hottest arithmetic entry point.
        if isinstance(b, VReg):
            if b.ebits != a.ebits:
                raise MachineError(
                    f"element width mismatch: {b.ebits} vs {a.ebits}"
                )
            b_data, b_reg = b.data, b
        else:
            b_data, b_reg = np.int64(b), None
        if self.tracer is None:
            # ``_issue`` inlined for the untraced common case: identical
            # state evolution (stall attribution, clock, counters) with
            # no call or tuple overhead.
            ready = a.ready
            blocker = a
            if b_reg is not None and b_reg.ready > ready:
                ready, blocker = b_reg.ready, b_reg
            if pred is not None and pred.ready > ready:
                ready, blocker = pred.ready, pred
            clock = self.clock
            if ready > clock:
                self._stall[blocker.category] += ready - clock
                clock = ready
            clock += 1
            self.clock = clock
            complete = clock + self._lat_arith
            if complete > self._max_complete:
                self._max_complete = complete
            self._instructions["vector"] += 1
            self._busy["vector"] += 1
        else:
            complete = self._issue(
                "vector", 1, self._lat_arith, deps=(a, b_reg, pred)
            )
        result = fn(a.data, b_data)
        if pred is not None:
            result = np.where(pred.data, result, a.data)
        return VReg._wrap(result, a.ebits, complete)

    def add(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("add", a, b, pred)

    def sub(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("sub", a, b, pred)

    def mul(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("mul", a, b, pred)

    def and_(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("and", a, b, pred)

    def or_(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("or", a, b, pred)

    def xor(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("xor", a, b, pred)

    def min(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("min", a, b, pred)

    def max(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("max", a, b, pred)

    def shl(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("shl", a, b, pred)

    def shr(self, a: VReg, b, pred: Pred | None = None) -> VReg:
        return self.binop("shr", a, b, pred)

    def rbit(self, a: VReg, pred: Pred | None = None) -> VReg:
        """Per-lane bit reversal (SVE ``RBIT``); 64-bit lanes only."""
        if a.ebits != 64:
            raise MachineError("rbit is modelled for 64-bit lanes only")
        complete = self._issue("vector", 1, self._lat_arith, deps=(a, pred))
        result = _rbit_values(a.data)
        if pred is not None:
            result = np.where(pred.data, result, a.data)
        return VReg._wrap(result, a.ebits, complete)

    def clz(self, a: VReg, pred: Pred | None = None) -> VReg:
        """Per-lane count of leading zeros (SVE ``CLZ``); clz(0) == width."""
        complete = self._issue("vector", 1, self._lat_arith, deps=(a, pred))
        result = _clz_values(a.data, a.ebits)
        if pred is not None:
            result = np.where(pred.data, result, a.data)
        return VReg._wrap(result, a.ebits, complete)

    def abs(self, a: VReg, pred: Pred | None = None) -> VReg:
        complete = self._issue("vector", 1, self._lat_arith, deps=(a, pred))
        result = np.abs(a.data)
        if pred is not None:
            result = np.where(pred.data, result, a.data)
        return VReg(result, a.ebits, complete)

    def sel(self, pred: Pred, a: VReg, b: VReg) -> VReg:
        """Lane select: ``pred ? a : b`` (SVE ``SEL``)."""
        if a.ebits != b.ebits:
            raise MachineError("sel operands must share element width")
        complete = self._issue(
            "vector", 1, self.system.lat_vector_arith, deps=(a, b, pred)
        )
        return VReg._wrap(np.where(pred.data, a.data, b.data), a.ebits, complete)

    # ------------------------------------------------------------------
    # Compares / predicates
    # ------------------------------------------------------------------
    def cmp(self, op: str, a: VReg, b, pred: Pred | None = None) -> Pred:
        """Predicated compare; inactive lanes are False."""
        try:
            fn = _CMPOPS[op]
        except KeyError:
            raise MachineError(f"unknown compare: {op!r}")
        # ``_coerce`` inlined (hot path, same as ``binop``).
        if isinstance(b, VReg):
            if b.ebits != a.ebits:
                raise MachineError(
                    f"element width mismatch: {b.ebits} vs {a.ebits}"
                )
            b_data, b_reg = b.data, b
        else:
            b_data, b_reg = np.int64(b), None
        if self.tracer is None:
            # ``_issue`` inlined (untraced common case; see ``binop``).
            ready = a.ready
            blocker = a
            if b_reg is not None and b_reg.ready > ready:
                ready, blocker = b_reg.ready, b_reg
            if pred is not None and pred.ready > ready:
                ready, blocker = pred.ready, pred
            clock = self.clock
            if ready > clock:
                self._stall[blocker.category] += ready - clock
                clock = ready
            clock += 1
            self.clock = clock
            complete = clock + self._lat_pred
            if complete > self._max_complete:
                self._max_complete = complete
            self._instructions["vector"] += 1
            self._busy["vector"] += 1
        else:
            complete = self._issue(
                "vector", 1, self._lat_pred, deps=(a, b_reg, pred)
            )
        result = fn(a.data, b_data)
        if pred is not None:
            result = result & pred.data
        return Pred._wrap(result, a.ebits, complete)

    def ptrue(self, ebits: int = 32) -> Pred:
        complete = self._issue("control", 1, self.system.lat_predicate)
        return Pred(np.ones(self.lanes(ebits), dtype=bool), ebits, complete)

    def pfalse(self, ebits: int = 32) -> Pred:
        complete = self._issue("control", 1, self.system.lat_predicate)
        return Pred(np.zeros(self.lanes(ebits), dtype=bool), ebits, complete)

    def whilelt(self, start: int, end: int, ebits: int = 32) -> Pred:
        """Lanes ``[0, min(lanes, end-start))`` active (SVE ``WHILELT``)."""
        complete = self._issue("control", 1, self.system.lat_predicate)
        n = self.lanes(ebits)
        count = min(max(end - start, 0), n)
        base = self._lane_arange.get(n)
        if base is None:
            base = self._lane_arange[n] = np.arange(n)
        return Pred._wrap(base < count, ebits, complete)

    def pand(self, a: Pred, b: Pred) -> Pred:
        complete = self._issue("control", 1, self.system.lat_predicate, deps=(a, b))
        return Pred._wrap(a.data & b.data, a.ebits, complete)

    def por(self, a: Pred, b: Pred) -> Pred:
        complete = self._issue("control", 1, self.system.lat_predicate, deps=(a, b))
        return Pred._wrap(a.data | b.data, a.ebits, complete)

    def pnot(self, a: Pred) -> Pred:
        complete = self._issue("control", 1, self.system.lat_predicate, deps=(a,))
        return Pred._wrap(~a.data, a.ebits, complete)

    # --- serialising (vector -> scalar) operations ---------------------
    def _serialize(self, complete: int) -> None:
        if complete > self.clock:
            if self.tracer is not None:
                self.tracer.record(
                    "serialize",
                    "control",
                    self.clock,
                    complete=complete,
                    stall=complete - self.clock,
                    stall_category="control",
                )
            self._stall["control"] += complete - self.clock
            self.clock = complete

    def ptest(self, pred: Pred) -> bool:
        """Branch on 'any lane active'; serialises the pipeline."""
        complete = self._issue("control", 1, self.system.lat_predicate, deps=(pred,))
        self._serialize(complete)
        return bool(pred.data.any())

    def ptest_spec(self, pred: Pred) -> bool:
        """Predicted loop-back branch on 'any lane active'.

        Models a well-predicted loop branch: issue proceeds without
        waiting for the predicate (the predictor assumes 'taken'), and the
        final not-taken test pays the pipeline-refill penalty instead.
        """
        self._issue("control", 1, self.system.lat_predicate)
        taken = bool(pred.data.any())
        if not taken:
            self.account_block(
                "control", stall=self.system.mispredict_penalty,
                stall_category="control",
            )
        return taken

    def count_active(self, pred: Pred) -> int:
        """Population count of a predicate (SVE ``CNTP``); serialising."""
        complete = self._issue("control", 1, self.system.lat_predicate, deps=(pred,))
        self._serialize(complete)
        return int(pred.data.sum())

    def reduce_add(self, a: VReg, pred: Pred | None = None) -> int:
        return self._reduce(np.sum, a, pred)

    def reduce_max(self, a: VReg, pred: Pred | None = None) -> int:
        return self._reduce(np.max, a, pred, empty=-(1 << 62))

    def reduce_min(self, a: VReg, pred: Pred | None = None) -> int:
        return self._reduce(np.min, a, pred, empty=(1 << 62))

    def _reduce(self, fn, a: VReg, pred: Pred | None, empty: int = 0) -> int:
        complete = self._issue("vector", 1, self.system.lat_reduce, deps=(a, pred))
        self._serialize(complete)
        data = a.data if pred is None else a.data[pred.data]
        return int(fn(data)) if data.size else empty

    def extract(self, a: VReg, lane: int) -> int:
        """Move one lane to a scalar register; serialising."""
        if not 0 <= lane < len(a.data):
            raise MachineError(f"lane {lane} out of range")
        complete = self._issue("vector", 1, self.system.lat_permute, deps=(a,))
        self._serialize(complete)
        return int(a.data[lane])

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def load(
        self,
        buf: SimBuffer,
        start: int = 0,
        ebits: int = 32,
        pred: Pred | None = None,
        stream_id: int | None = None,
    ) -> VReg:
        """Unit-stride vector load of ``lanes(ebits)`` consecutive elements."""
        n = self.lanes(ebits)
        if (
            self.use_batched_memory
            and pred is None
            and start >= 0
            and start + n <= len(buf.data)
        ):
            # Fully in-range, all lanes active: a straight slice copy,
            # no index/mask machinery (contiguous leg of the batched
            # fast path; the per-lane walk below is the oracle).
            vals = buf.data[start : start + n].copy()
            lo_live, span = start, n
        else:
            idx = np.arange(start, start + n)
            active = pred.data if pred is not None else np.ones(n, dtype=bool)
            in_range = active & (idx >= 0) & (idx < len(buf.data))
            live = idx[in_range]
            vals = np.zeros(n, dtype=np.int64)
            vals[in_range] = buf.data[live]
            if live.size:  # ascending: the span is first to last lane
                lo_live = int(live[0])
                span = int(live[-1]) - lo_live + 1
            else:
                lo_live = span = 0
        sid = stream_id if stream_id is not None else buf.default_sid
        if span:
            nbytes = span * buf.elem_bytes
            latency = self.mem.access(buf.addr_of(lo_live), nbytes, sid)
            if buf.track_forwarding and self._store_visible:
                latency += self._forwarding_stall(buf.addr_of(lo_live), nbytes)
        else:
            latency = self.system.l1d.load_to_use
        latency += self.system.lat_vector_load_extra
        complete = self._issue("memory", 1, latency, deps=(pred,))
        return VReg(vals, ebits, complete, category="memory")

    def store(
        self,
        buf: SimBuffer,
        start: int,
        value: VReg,
        pred: Pred | None = None,
        stream_id: int | None = None,
    ) -> None:
        """Unit-stride vector store."""
        n = len(value.data)
        if (
            self.use_batched_memory
            and pred is None
            and start >= 0
            and start + n <= len(buf.data)
        ):
            # Fully in-range, all lanes active: a straight slice write
            # (contiguous leg of the batched fast path).
            buf.data[start : start + n] = value.data
            lo, span = start, n
        else:
            idx = np.arange(start, start + n)
            active = pred.data if pred is not None else np.ones(n, dtype=bool)
            in_range = active & (idx >= 0) & (idx < len(buf.data))
            if np.count_nonzero(active & ~in_range & (idx >= len(buf.data))):
                raise MachineError(
                    f"store out of range on buffer {buf.name!r}"
                )
            live = idx[in_range]
            buf.data[live] = value.data[in_range]
            if live.size:  # ascending: the span is first to last lane
                lo = int(live[0])
                span = int(live[-1]) - lo + 1
            else:
                lo = span = 0
        buf.mark_dirty()
        sid = stream_id if stream_id is not None else buf.default_sid
        if span:
            nbytes = span * buf.elem_bytes
            self.mem.access(buf.addr_of(lo), nbytes, sid)
            if buf.track_forwarding:
                self._record_store(buf.addr_of(lo), nbytes)
        self._issue("memory", 1, 1, deps=(value, pred))

    def gather(
        self,
        buf: SimBuffer,
        idx: VReg,
        pred: Pred | None = None,
        stream_id: int | None = None,
    ) -> VReg:
        """Indexed vector load (scatter/gather path, Section II-G).

        Occupies the issue stage one cycle per active element (AGU
        serialisation) and completes no earlier than ``lat_gather_base``
        after issue, even on all-L1 hits.
        """
        n = len(idx.data)
        if pred is None and self.use_batched_memory:
            # All lanes active: skip the mask materialisation and the
            # masked scatter of values (measurably hot under gather-
            # dominated kernels; values are unchanged).  The fancy index
            # enforces the upper bound; negatives (which numpy would
            # wrap) take one explicit reduction.
            indices = idx.data
            if n and int(indices.min()) < 0:
                buf.check_range(indices)  # raises with the precise message
            try:
                vals = buf.data[indices]
            except IndexError:
                buf.check_range(indices)
                raise
            n_active = n
        else:
            active = pred.data if pred is not None else np.ones(n, dtype=bool)
            indices = idx.data[active]
            buf.check_range(indices)
            vals = np.zeros(n, dtype=np.int64)
            vals[active] = buf.data[indices]
            n_active = int(active.sum())
        sid = stream_id if stream_id is not None else buf.default_sid
        worst = self._indexed_memory(buf, indices, buf.elem_bytes, sid)
        extra = max(0, worst - self._l1_ltu)
        occupancy = self._indexed_occupancy(n_active)
        latency = self._indexed_latency(occupancy, extra)
        complete = self._issue("memory", occupancy, latency, deps=(idx, pred))
        return VReg(vals, idx.ebits, complete, category="memory")

    def _indexed_memory(self, buf, indices, size_bytes: int, sid: int) -> int:
        """One demand access per active lane; returns the worst lane's
        load-to-use latency.

        On the batched path (:attr:`use_batched_memory`) every lane
        address is computed with numpy and issued as a single
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch`
        call, mirrored into the tracer as one ``membatch`` event.  The
        per-lane walk is the oracle the conformance grid compares it
        with; both produce bit-identical statistics and latencies.

        Wall time spent inside the hierarchy simulation (the ``access``
        / ``access_batch_max`` calls, not the address-list preparation)
        is accumulated into :data:`MEM_MODEL_CLOCK` so timing reports
        can split generated-kernel compute from memory-model
        simulation; the specialized per-buffer entries the replay
        emitter generates draw the same boundary.
        """
        if not self.use_batched_memory:
            t0 = _pc()
            worst = 0
            for i in indices:
                worst = max(
                    worst, self.mem.access(buf.addr_of(int(i)), size_bytes, sid)
                )
            MEM_MODEL_CLOCK.s += _pc() - t0
            return worst
        m = len(indices)
        if not m:
            return 0
        if m == 1:
            # A one-element batch is a plain demand access (the batch
            # engine's stride hand-off degenerates to `observe`).
            t0 = _pc()
            worst = self.mem.access(
                buf.base + int(indices[0]) * buf.elem_bytes, size_bytes, sid
            )
        elif m <= 64:
            # Short batches run the hierarchy's scalar engine, which
            # wants a plain list — build it directly instead of paying
            # two numpy ops plus a tolist round-trip.  Replay-loop
            # kernels gather the same lane set every iteration, so the
            # last (buffer, lanes) -> addrs translation is kept and
            # reused when it matches (pure address arithmetic;
            # bit-identical either way).
            base = buf.base
            eb = buf.elem_bytes
            lanes = indices.tolist() if hasattr(indices, "tolist") else indices
            memo = self._imem_memo
            if memo is not None and memo[0] is buf and memo[1] == lanes:
                addrs = memo[2]
            else:
                if eb == 1:
                    addrs = [base + i for i in lanes]
                else:
                    addrs = [base + i * eb for i in lanes]
                self._imem_memo = (buf, lanes, addrs)
            t0 = _pc()
            worst = self.mem.access_batch_max(addrs, size_bytes, sid)
        else:
            if buf.elem_bytes == 1:
                addrs = buf.base + indices
            else:
                addrs = buf.base + indices * buf.elem_bytes
            t0 = _pc()
            worst = self.mem.access_batch_max(addrs, size_bytes, sid)
        MEM_MODEL_CLOCK.s += _pc() - t0
        if self.tracer is not None:
            self.tracer.record(
                "membatch",
                "memory",
                self.clock,
                latency=worst,
                lanes=m,
            )
        return worst

    def _indexed_occupancy(self, active: int) -> int:
        """Issue occupancy of an indexed memory op: per-element AGU
        serialisation (a full gather occupies ~lat_gather_base cycles)."""
        try:
            return self._occ_lut[active]
        except IndexError:
            per = self.system.gather_element_occupancy
            return max(1, int(round(per * active)))

    def _indexed_latency(self, occupancy: int, extra: int) -> int:
        """Completion latency beyond issue: the full gather takes at
        least ``lat_gather_base`` cycles even on all-L1 hits, plus any
        exposed miss latency."""
        floor = self._l1_ltu
        return max(floor, self._lat_gather_base - occupancy + floor) + extra

    def gather64(
        self,
        buf: SimBuffer,
        idx: VReg,
        pred: Pred | None = None,
        stream_id: int | None = None,
    ) -> VReg:
        """Gather unaligned 64-bit windows from a byte buffer.

        Lane ``i`` receives ``buf[idx_i .. idx_i+8)`` packed little-endian
        (zero-padded past the buffer end) — the block-compare idiom of
        word-at-a-time string loops, on the scatter/gather path.  Timing
        matches :meth:`gather` with 64-bit elements.
        """
        if buf.elem_bytes != 1:
            raise MachineError("gather64 reads byte buffers")
        if idx.ebits != 64:
            raise MachineError("gather64 expects 64-bit lane indices")
        n = len(idx.data)
        if pred is None:
            active = None
            indices = idx.data
        else:
            active = pred.data
            indices = idx.data[active]
        n_active = int(indices.size)
        if self.use_batched_memory:
            # All windows come from the buffer's precomputed packed-
            # window table: one fancy index per gather instead of a
            # per-lane packing loop.  The upper bound is enforced by the
            # fancy index itself; only negatives (which numpy would wrap)
            # need an explicit reduction.
            if n_active and int(indices.min()) < 0:
                _raise_gather64_range(buf, indices)
            try:
                if active is None:
                    vals = buf.packed_windows()[indices]
                else:
                    vals = np.zeros(n, dtype=np.int64)
                    if n_active:
                        vals[active] = buf.packed_windows()[indices]
            except IndexError:
                _raise_gather64_range(buf, indices)
        else:
            # Per-lane packing walk: with the serial memory walk, the
            # oracle of the batched path above.
            if n_active:
                lo, hi = int(indices.min()), int(indices.max())
                if lo < 0 or hi >= len(buf.data):
                    _raise_gather64_range(buf, indices)
            mask = np.ones(n, dtype=bool) if active is None else active
            vals = np.zeros(n, dtype=np.int64)
            shifts = np.arange(8, dtype=np.uint64) * np.uint64(8)
            for lane in np.flatnonzero(mask):
                start = int(idx.data[lane])
                window = buf.data[start : start + 8].astype(np.uint64)
                packed = np.bitwise_or.reduce(
                    (window & np.uint64(0xFF)) << shifts[: len(window)]
                ) if len(window) else np.uint64(0)
                vals[lane] = np.int64(packed)
        sid = stream_id if stream_id is not None else buf.default_sid
        worst = self._indexed_memory(buf, indices, 8, sid)
        extra = max(0, worst - self._l1_ltu)
        occupancy = self._indexed_occupancy(n_active)
        latency = self._indexed_latency(occupancy, extra)
        complete = self._issue("memory", occupancy, latency, deps=(idx, pred))
        return VReg(vals, 64, complete, category="memory")

    def scatter(
        self,
        buf: SimBuffer,
        idx: VReg,
        value: VReg,
        pred: Pred | None = None,
        stream_id: int | None = None,
    ) -> None:
        """Indexed vector store."""
        n = len(idx.data)
        if pred is None and self.use_batched_memory:
            # All lanes active: skip the mask machinery (mirrors the
            # ``gather`` fast path).
            indices = idx.data
            buf.check_range(indices)
            buf.data[indices] = value.data
            n_active = n
        else:
            active = pred.data if pred is not None else np.ones(n, dtype=bool)
            indices = idx.data[active]
            buf.check_range(indices)
            buf.data[indices] = value.data[active]
            n_active = int(active.sum())
        buf.mark_dirty()
        sid = stream_id if stream_id is not None else buf.default_sid
        self._indexed_memory(buf, indices, buf.elem_bytes, sid)
        occupancy = self._indexed_occupancy(n_active)
        self._issue("memory", occupancy, 2, deps=(idx, value, pred))

    def _record_store(self, addr: int, nbytes: int) -> None:
        line = self._line_bytes
        visible = self.clock + self._store_visible_lat
        store_visible = self._store_visible
        line_addr = addr - addr % line
        end = addr + nbytes
        while line_addr < end:
            store_visible[line_addr] = visible
            line_addr += line

    def _forwarding_stall(self, addr: int, nbytes: int) -> int:
        """Extra latency while an in-flight store to these lines drains."""
        line = self._line_bytes
        clock = self.clock
        store_visible = self._store_visible
        line_addr = addr - addr % line
        end = addr + nbytes
        worst = 0
        while line_addr < end:
            visible = store_visible.get(line_addr)
            if visible is not None:
                if visible <= clock:
                    del store_visible[line_addr]
                elif visible - clock > worst:
                    worst = visible - clock
            line_addr += line
        return worst

    # ------------------------------------------------------------------
    # Scalar bookkeeping
    # ------------------------------------------------------------------
    def scalar(self, n: int = 1) -> None:
        """Account ``n`` scalar bookkeeping instructions (loop control...)."""
        if n < 0:
            raise MachineError("scalar count must be non-negative")
        self._instructions["scalar"] += n
        self._busy["scalar"] += n
        if self.tracer is not None and n:
            self.tracer.record(
                "block", "scalar", self.clock, occupancy=n, instructions=n
            )
        self.clock += n

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return max(self.clock, self._max_complete)

    def snapshot(self) -> MachineStats:
        """Copy of all counters at this instant (use ``delta`` for spans)."""
        snap = MachineStats(
            cycles=self.cycles,
            instructions=Counter(self._instructions),
            busy=Counter(self._busy),
            stall=Counter(self._stall),
            mem=self.mem.stats(),
        )
        if self.quetzal is not None:
            snap.qz_reads = self.quetzal.reads
            snap.qz_writes = self.quetzal.writes
        return snap

    def reset(self) -> None:
        """Zero the clock and counters; buffers and caches keep contents."""
        self.clock = 0
        self._max_complete = 0
        self._instructions.clear()
        self._busy.clear()
        self._stall.clear()
