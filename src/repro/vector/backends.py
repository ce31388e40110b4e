"""Kernel emitter for the replay JIT.

:mod:`repro.vector.program` lowers a captured trace to a
:class:`KernelIR` (the head/body/tail source lines plus everything known
about the recording's register slots); :func:`emit` turns that IR into
the callable kernel.  The emitter is a source-level optimizer over the
IR's neutral source:

* **CSE** — structurally identical pure right-hand sides are replaced
  with an alias of the first computation (invalidated the moment any
  operand is reassigned, so predicated merges never serve stale
  values).
* **Dead-temporary elimination** — pure computes whose slot is never
  read again are dropped before any buffers are leased.
* **Guard fusion** — each masked input's ``dN.all()`` regime test
  becomes one ``count_nonzero`` (one C reduction instead of a Python
  method chain).
* **Gather-path rewrites** — each indexed memory issue calls a
  per-buffer entry with the buffer geometry baked in, shares the lane
  list with its range guard, and a ``ctz(a ^ b) >> k`` chain fuses into
  one per-lane loop.
* **``out=``-rewriting into a scratch-buffer arena** — every
  unconditional compute of a non-escaping slot writes into a pooled,
  dtype-stable buffer leased from :data:`ARENA`, so steady-state replay
  allocates zero new arrays.  ``np.minimum`` / ``np.maximum`` take the
  ``out=`` keyword (their positional third argument is a deprecated
  slow path); every other ufunc takes it positionally.

The conformance grid and ``tests/vector/test_backends.py`` hold every
kernel to the interpreter: the rewrites change *how* values are
computed, never the values, the clock arithmetic, or the counter
updates.

Emitted kernels are memoized on the neutral source and persisted to a
CRC-guarded on-disk cache under ``.repro_cache/kernels/`` — see
:func:`kernel_cache.load` for the corruption-tolerant load path.
"""

from __future__ import annotations

import re
import time
from operator import xor

import numpy as np

from repro.vector import kernel_cache

# numpy's ``count_nonzero`` wrapper costs ~4x the C routine on small
# arrays (dispatcher + axis handling); fused guards sit on the hottest
# per-iteration path, so bind the raw builtin when the private module
# layout allows it.
try:  # numpy >= 2.0
    from numpy._core._multiarray_umath import count_nonzero as _count_nonzero
except ImportError:  # pragma: no cover - numpy 1.x layout
    try:
        from numpy.core._multiarray_umath import count_nonzero as _count_nonzero
    except ImportError:
        _count_nonzero = np.count_nonzero

__all__ = ["ARENA", "CODEGEN_METER", "KernelIR", "emit"]

I = "    "


# ----------------------------------------------------------------------
# Meter
# ----------------------------------------------------------------------
class CodegenMeter:
    """Counters for the codegen layer, merged into ``REPLAY_METER``
    snapshots (see :meth:`repro.vector.program.ReplayMeter.snapshot`).

    ``emissions`` counts full kernel source emissions in :func:`repro.vector.program._compile` — one
    per new block shape; captures of a known shape reuse its source
    and are not counted.  ``compile_s`` accumulates wall time spent
    lowering + compiling on a kernel-cache miss only: it excludes
    binding, cache hits and the source emission — the compile half of
    the compile-vs-run split the bench harness subtracts out.
    ``kernel_compiles`` counts the misses of both kernel caches: every
    miss compiles once.
    """

    __slots__ = (
        "kernel_cache_hits",
        "kernel_compiles",
        "emissions",
        "compile_s",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.kernel_cache_hits = 0
        self.kernel_compiles = 0
        self.emissions = 0
        self.compile_s = 0.0


CODEGEN_METER = CodegenMeter()


# ----------------------------------------------------------------------
# Scratch-buffer arena
# ----------------------------------------------------------------------
class ScratchArena:
    """Per-session pool of kernel scratch buffers.

    Buffers are leased by ``(dtype, shape, ordinal)`` — programs with
    the same temporary profile share storage (kernels never nest, so a
    buffer is only live inside one call).  The arena is never shrunk;
    ``arena_bytes`` in the replay meter reports the live total.
    """

    __slots__ = ("_buffers", "nbytes")

    def __init__(self):
        self._buffers: dict = {}
        self.nbytes = 0

    def lease(self, key, shape, dtype) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            self.nbytes += buf.nbytes
        return buf

    def clear(self) -> None:
        self._buffers.clear()
        self.nbytes = 0


ARENA = ScratchArena()


# ----------------------------------------------------------------------
# Kernel IR
# ----------------------------------------------------------------------
class KernelIR:
    """Backend-neutral compiled-trace form.

    ``head``/``body``/``tail`` are the neutral source lines exactly as
    the seed emitter produced them; ``source`` (their join) is the
    identity key for the in-memory and on-disk kernel caches.
    ``temps`` maps every non-input, non-external slot to its ``(shape,
    dtype)`` so the emitter can lease arena storage; shapes are
    per-recording, never persisted.  ``outs`` names the subset of
    ``temps`` that escapes through the return tuple: such a slot never
    takes an arena buffer, because the caller holds it across calls.
    """

    __slots__ = ("head", "body", "tail", "env", "temps", "outs", "source")

    def __init__(self, head, body, tail, env, temps, outs=frozenset()):
        self.head = head
        self.body = body
        self.tail = tail
        self.env = env
        self.temps = temps
        self.outs = outs
        self.source = "\n".join(head + body + tail) + "\n"


# ----------------------------------------------------------------------
# Optimizer passes
# ----------------------------------------------------------------------
#: ``dN = rhs`` at any indent (merges and computes alike).
_ASSIGN_RE = re.compile(r"^(\s*)d(\d+) = (.*)$")
#: Predicated merge form the emitter wraps around masked computes.
_COND_RE = re.compile(r"^(\s*)if not g(\d+): d(\d+) = (.*)$")
#: Every assignment target on a line, including sliced stores.
_TARGET_RE = re.compile(r"\bd(\d+)(?:\[[^\]]*\])?\s*=(?!=)")
#: Identifier tokens of an rhs, for the purity whitelist.
_TOKEN_RE = re.compile(r"[A-Za-z_]\w*")
#: Pure-rhs vocabulary: slot reads, baked constants, parameters, and
#: the allocation-returning kernel primitives.  Anything else (``tw``,
#: buffer methods, machine calls) marks the line impure.
_PURE_TOKEN = re.compile(r"^(?:d\d+|x\d+|_k\d+|p|_b_\w+|_c_\w+|_wh|_i64|_full|_ctz|_clz|_rbit)$")

#: The per-call predicate regime the emitter computes for a masked input.
_GUARD_RE = re.compile(r"^(\s*)g(\d+) = bool\(d(\d+)\.all\(\)\)$")
_MERGE_RE = re.compile(r"^_wh\(d(\d+), d(\d+), d(\d+)\)$")
_CALL_RE = re.compile(r"^(_b_\w+|_c_\w+|_ctzs)\((.*)\)$")
_FULL_RE = re.compile(r"^_full\(\d+, (.*)\)$")
_ZI64_RE = re.compile(r"^_zi64\(\d+\)$")
_BOOL2_RE = re.compile(r"^d(\d+) ([&|]) d(\d+)$")
_NOT_RE = re.compile(r"^~d(\d+)$")
_IOTA_RE = re.compile(r"^(.+) \+ (x\d+)$")
_WHILELT_RE = re.compile(r"^(x\d+) < tw$")
#: ``np.minimum``/``np.maximum``: positional out is a deprecated slow
#: path, so these two get the keyword form.
_KW_OUT = ("_b_min", "_b_max")


def _is_pure(rhs: str) -> bool:
    return all(_PURE_TOKEN.match(t) for t in _TOKEN_RE.findall(rhs))


def _cse_pass(body, temps):
    """Replace repeated pure right-hand sides with an alias of the
    first compute.  An expression only serves as a source while its
    producing slot still holds exactly that value: any reassignment of
    the slot or of an operand (a merge, a rebinding, a masked store)
    invalidates the entry before the new mapping is inserted."""
    exprmap: dict = {}
    out = []
    for line in body:
        targets = {int(t) for t in _TARGET_RE.findall(line)}
        if targets:
            dead = [
                rhs
                for rhs, slot in exprmap.items()
                if slot in targets
                or any(int(t[1:]) in targets
                       for t in _TOKEN_RE.findall(rhs) if t[0] == "d")
            ]
            for rhs in dead:
                del exprmap[rhs]
        m = _ASSIGN_RE.match(line)
        if m and _is_pure(m.group(3)):
            slot, rhs = int(m.group(2)), m.group(3)
            prev = exprmap.get(rhs)
            if prev is not None and slot in temps:
                out.append(f"{m.group(1)}d{slot} = d{prev}")
                continue
            if prev is None:
                exprmap[rhs] = slot
        out.append(line)
    return out


def _dte_pass(head, body, tail, temps, base):
    """Drop pure computes of temporaries that are never read again.
    Fixpoint: removing one line can orphan its operands' computes."""
    while True:
        text = "\n".join(head + body + tail)
        reads: dict = {}
        for t in re.findall(r"\bd(\d+)\b", text):
            reads[int(t)] = reads.get(int(t), 0) + 1
        kept = []
        dropped = False
        for line in body:
            m = _ASSIGN_RE.match(line)
            if (
                m
                and m.group(1) == base
                and int(m.group(2)) in temps
                and _is_pure(m.group(3))
            ):
                slot = int(m.group(2))
                self_reads = sum(
                    1 for t in _TOKEN_RE.findall(m.group(3))
                    if t == f"d{slot}"
                )
                if reads.get(slot, 0) == 1 + self_reads:
                    dropped = True
                    continue
            kept.append(line)
        body = kept
        if not dropped:
            return body


def _fuse_guards(lines):
    """``gN = bool(dN.all())`` -> ``gN = _nz(dN) == dN.size``: one
    ``count_nonzero`` C call instead of a Python method chain."""
    out = []
    for line in lines:
        m = _GUARD_RE.match(line)
        if m:
            indent, g, d = m.groups()
            line = f"{indent}g{g} = _nz(d{d}) == d{d}.size"
        out.append(line)
    return out


def _arena_pass(lines, temps, base, bufs):
    """``out=``-rewrite unconditional computes of non-escaping slots
    into arena buffers.

    ``owned`` tracks slots whose current binding *is* their arena
    buffer: merges into an owned slot can mutate in place
    (``_mk``), merges into a fresh ufunc result go through ``_selo``.
    Conditional lines only rewrite forms that are safe regardless of
    whether the branch runs (the merge family — their unconditional
    compute always precedes them).
    """
    owned: set = set()
    out = []

    def buf(slot):
        bufs.add(("t", slot))
        return f"_t{slot}"

    def mask(slot):
        bufs.add(("m", slot))
        return f"_m{slot}"

    def rewrite(slot, rhs, cond):
        m = _MERGE_RE.match(rhs)
        if m:
            p, mid, a = (int(g) for g in m.groups())
            if mid == slot:
                if slot in owned:
                    return (
                        f"d{slot} = _mk(d{slot}, d{a}, d{p}, {mask(slot)})"
                    )
                owned.add(slot)
                return (
                    f"d{slot} = _selo({buf(slot)}, d{p}, d{slot}, d{a})"
                )
            if not cond:
                owned.add(slot)
                return f"d{slot} = _selo({buf(slot)}, d{p}, d{mid}, d{a})"
            return None
        m = _BOOL2_RE.match(rhs)
        if m:
            fn = "_b_and" if m.group(2) == "&" else "_b_or"
            if not cond:
                owned.add(slot)
            elif slot not in owned:
                return None
            return (
                f"d{slot} = {fn}(d{m.group(1)}, d{m.group(3)}, "
                f"{buf(slot)})"
            )
        if cond:
            return None
        m = _CALL_RE.match(rhs)
        if m:
            owned.add(slot)
            if m.group(1) in _KW_OUT:
                return f"d{slot} = {m.group(1)}({m.group(2)}, out={buf(slot)})"
            return f"d{slot} = {m.group(1)}({m.group(2)}, {buf(slot)})"
        m = _FULL_RE.match(rhs)
        if m:
            owned.add(slot)
            return f"d{slot} = _fl({buf(slot)}, {m.group(1)})"
        if _ZI64_RE.match(rhs):
            owned.add(slot)
            return f"d{slot} = _fl({buf(slot)}, 0)"
        m = _NOT_RE.match(rhs)
        if m:
            owned.add(slot)
            return f"d{slot} = _inv(d{m.group(1)}, {buf(slot)})"
        m = _IOTA_RE.match(rhs)
        if m and _is_pure(rhs):
            owned.add(slot)
            return f"d{slot} = _b_add({m.group(2)}, {m.group(1)}, {buf(slot)})"
        m = _WHILELT_RE.match(rhs)
        if m:
            owned.add(slot)
            return f"d{slot} = _c_lt({m.group(1)}, tw, {buf(slot)})"
        return None

    for line in lines:
        cm = _COND_RE.match(line)
        m = _ASSIGN_RE.match(line)
        if cm and cm.group(1) == base:
            slot = int(cm.group(3))
            if slot in temps:
                new = rewrite(slot, cm.group(4), cond=True)
                if new is not None:
                    out.append(f"{base}if not g{cm.group(2)}: {new}")
                    continue
        elif m and m.group(1) == base:
            slot = int(m.group(2))
            if slot in temps:
                new = rewrite(slot, m.group(3), cond=False)
                if new is not None:
                    out.append(base + new)
                    continue
        out.append(line)
    return out


def _cheap_scalar_min(lines):
    """``int(ti.min())`` -> ``min(ti.tolist())``.

    The gather range guard only needs the smallest index as a Python
    scalar; at kernel lane counts a ``tolist`` + builtin ``min`` is
    ~5x cheaper than the ufunc reduction machinery.  ``ti`` is always
    freshly assigned on the preceding line and ``tn`` short-circuits
    the empty case, so the rewrite is purely mechanical.
    """
    return [
        line.replace("int(ti.min())", "min(ti.tolist())") for line in lines
    ]


_CTZ_LINE_RE = re.compile(r"^(\s*)d(\d+) = _ctz\(d(\d+)\)$")


def _fuse_ctz(lines, temps, env):
    """``dB = xor(dX, dY); dA = _ctz(dB); dC = shr(dA, xK)`` -> one
    ``_ctzs`` call.

    ``_ctz`` already pays a tolist round-trip at kernel lane counts, so
    folding the feeding xor and the consuming constant shift into its
    per-lane loop deletes two whole ufunc dispatches.  Applies only when
    both intermediates are single-use non-escaping temps, their operands
    are not reassigned in between, and the shift is a baked scalar
    (Python-int bitwise math is exact for in-range int64 lanes).
    """
    text = "\n".join(lines)
    out = list(lines)
    for i, line in enumerate(lines):
        m = _CTZ_LINE_RE.match(line)
        if not m:
            continue
        indent, a, b = m.group(1), int(m.group(2)), int(m.group(3))
        if a not in temps or b not in temps:
            continue
        if len(re.findall(rf"\bd{a}\b", text)) != 2:
            continue
        if len(re.findall(rf"\bd{b}\b", text)) != 2:
            continue
        xor = shr = None
        for j, other in enumerate(lines):
            xm = re.match(rf"^\s*d{b} = _b_xor\(d(\d+), d(\d+)\)$", other)
            if xm:
                xor = (j, int(xm.group(1)), int(xm.group(2)))
            sm = re.match(rf"^\s*d(\d+) = _b_shr\(d{a}, (x\d+)\)$", other)
            if sm:
                shr = (j, int(sm.group(1)), sm.group(2))
        if xor is None or shr is None or not xor[0] < i < shr[0]:
            continue
        if np.ndim(env.get(shr[2])) != 0:
            continue
        stable = True
        for j in range(xor[0] + 1, shr[0]):
            if j == i:
                continue
            for t in _TARGET_RE.findall(lines[j]):
                if int(t) in (xor[1], xor[2]):
                    stable = False
        if not stable:
            continue
        out[xor[0]] = None
        out[i] = None
        out[shr[0]] = (
            f"{indent}d{shr[1]} = _ctzs(d{xor[1]}, d{xor[2]}, {shr[2]})"
        )
    return [line for line in out if line is not None]


_IMEM_RE = re.compile(r"_mach\._indexed_memory\(x(\d+), ")


def _fast_imem(lines, imem):
    """Retarget generic ``_mach._indexed_memory(xN, ...)`` issues at a
    per-buffer specialized entry (``_imfN``) with the buffer geometry
    baked in.  The fast entry preserves the generic path's statistics,
    tracer events, and the non-batched fallback exactly."""
    out = []
    for line in lines:
        for n in _IMEM_RE.findall(line):
            imem.add(int(n))
        out.append(_IMEM_RE.sub(lambda m: f"_imf{m.group(1)}(_mach, ", line))
    return out


def _make_fast_imem(buf):
    from repro.vector.machine import MEM_MODEL_CLOCK

    base = buf.base
    eb = buf.elem_bytes
    # Memo for the issue path: a replayed block often gathers the same
    # lane set call after call, so the last lanes -> addrs translation
    # is kept per entry and reused on a C-level list compare (pure
    # address arithmetic, bit-identical either way).
    memo = [None, None]

    def _imf(mach, indices, size_bytes, sid):
        if not mach.use_batched_memory:
            return mach._indexed_memory(buf, indices, size_bytes, sid)
        lst = indices if type(indices) is list else indices.tolist()
        m = len(lst)
        if not m:
            return 0
        if m > 1:
            if lst == memo[0]:
                addrs = memo[1]
            else:
                if eb == 1:
                    addrs = [base + i for i in lst]
                else:
                    addrs = [base + i * eb for i in lst]
                memo[0] = lst
                memo[1] = addrs
            t0 = time.perf_counter()
            worst = mach.mem.access_batch_max(addrs, size_bytes, sid)
        else:
            t0 = time.perf_counter()
            worst = mach.mem.access(base + lst[0] * eb, size_bytes, sid)
        MEM_MODEL_CLOCK.s += time.perf_counter() - t0
        tr = mach.tracer
        if tr is not None:
            tr.record(
                "membatch", "memory", mach.clock, latency=worst, lanes=m
            )
        return worst

    return _imf


_RG_GUARD_RE = re.compile(
    r"^(\s*)if tn and min\(ti\.tolist\(\)\) < 0: _rg64\(x(\d+), ti\)$"
)
_TI_ASSIGN_RE = re.compile(r"^\s*ti = ")
_IMF_CALL_RE = re.compile(r"^\s*tw = _imf(\d+)\(_mach, ti, ")


def _share_tolist(lines):
    """The gather range guard and the memory issue both need the lane
    indices as a Python list; materialise it once (``tj``) per gather
    and hand it to both.

    Applies per ``_imfN`` issue when every ``ti`` rebinding since the
    previous issue feeds a matching guard two lines later (the two
    emitter branches), so ``tj`` is bound on every path into the call.
    """
    out = list(lines)
    start = 0
    for c, line in enumerate(lines):
        cm = _IMF_CALL_RE.match(line)
        if cm is None:
            continue
        n = cm.group(1)
        guards = []
        ok = True
        for j in range(start, c):
            gm = _RG_GUARD_RE.match(lines[j])
            if gm is not None and gm.group(2) == n:
                guards.append(j)
            elif _TI_ASSIGN_RE.match(lines[j]):
                gm2 = _RG_GUARD_RE.match(lines[j + 2]) if j + 2 < c else None
                if gm2 is None or gm2.group(2) != n:
                    ok = False
                    break
        start = c + 1
        if not ok or not guards:
            continue
        for g in guards:
            ind = _RG_GUARD_RE.match(lines[g]).group(1)
            out[g] = (
                f"{ind}tj = ti.tolist()\n"
                f"{ind}if tn and min(tj) < 0: _rg64(x{n}, ti)"
            )
        out[c] = line.replace(f"_imf{n}(_mach, ti, ", f"_imf{n}(_mach, tj, ")
    return "\n".join(out).split("\n")


def _helpers_env():
    """Names the optimized source may reference beyond the neutral set."""

    def _fl(t, v):
        t.fill(v)
        return t

    def _selo(t, p, a, b):
        np.copyto(t, b)
        np.copyto(t, a, where=p)
        return t

    def _mk(dst, other, p, m):
        np.logical_not(p, out=m)
        np.copyto(dst, other, where=m)
        return dst

    def _ctzs(a, b, s, out=None):
        # ctz(a ^ b) >> s per 64-bit lane; mirrors machine._ctz_values
        # (ctz(0) == 64) on exact Python ints, shift folded in.
        s = int(s)
        z = 64 >> s
        vals = [
            ((v & -v).bit_length() - 1) >> s if v else z
            for v in map(xor, a.tolist(), b.tolist())
        ]
        if out is None:
            return np.array(vals, dtype=np.int64)
        out[:] = vals
        return out

    return {
        "_nz": _count_nonzero,
        "_fl": _fl,
        "_selo": _selo,
        "_mk": _mk,
        "_ctzs": _ctzs,
        "_inv": np.invert,
    }


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------
#: Version of the lowering below; it keys the kernel caches, so bump it
#: whenever the emitted source changes.
_CACHE_VERSION = 4

#: Compiled kernels by neutral source: ``(code, meta)``.  Cleared whole
#: once it holds 256 entries.
_MEMORY: dict = {}


def _lower(ir: KernelIR):
    """The optimized source of ``ir`` and its binding plan (``meta``)."""
    head = list(ir.head)
    tail = list(ir.tail)
    bufs: set = set()
    imem: set = set()
    # Output slots never serve as CSE/DTE material (an alias could
    # outlive a later in-place store) nor take arena buffers.
    plain = {s: v for s, v in ir.temps.items() if s not in ir.outs}
    body = _cse_pass(ir.body, plain)
    body = _dte_pass(head, body, tail, plain, I)
    head = _fuse_guards(head)
    body = _cheap_scalar_min(body)
    body = _fuse_ctz(body, plain, ir.env)
    body = _share_tolist(_fast_imem(body, imem))
    body = _arena_pass(body, plain, I, bufs)
    source = "\n".join(head + body + tail) + "\n"
    return source, {"bufs": sorted(bufs), "imem": sorted(imem)}


def _bind(env: dict, ir: KernelIR, meta: dict) -> None:
    """Inject the helpers, arena buffers and per-buffer memory entries
    the optimized source names."""
    env.update(_helpers_env())
    counters: dict = {}
    for kind, slot in meta.get("bufs", ()):
        shape, dtype = ir.temps[slot]
        if kind == "m":
            dtype = "bool"
        pkey = (kind, dtype, tuple(shape))
        ordinal = counters.get(pkey, 0)
        counters[pkey] = ordinal + 1
        env[f"_{kind}{slot}"] = ARENA.lease(pkey + (ordinal,), shape, dtype)
    for n in meta.get("imem", ()):
        env[f"_imf{n}"] = _make_fast_imem(env[f"x{n}"])


def emit(ir: KernelIR):
    """The kernel callable for ``ir``: memory cache -> disk cache ->
    lower + compile, then bind into the capture's env and ``exec``.

    Both caches key on the *neutral* source, so structurally identical
    blocks from different machines share bytecode.
    """
    entry = _MEMORY.get(ir.source)
    if entry is not None:
        CODEGEN_METER.kernel_cache_hits += 1
        code, meta = entry
    else:
        digest = kernel_cache.digest(_CACHE_VERSION, ir.source)
        cached = kernel_cache.load(digest)
        if cached is not None:
            CODEGEN_METER.kernel_cache_hits += 1
            code, meta = cached["code"], cached["meta"]
        else:
            CODEGEN_METER.kernel_compiles += 1
            start = time.perf_counter()
            source, meta = _lower(ir)
            code = compile(source, "<recorded-program>", "exec")
            CODEGEN_METER.compile_s += time.perf_counter() - start
            kernel_cache.store(digest, code, meta)
        if len(_MEMORY) >= 256:
            _MEMORY.clear()
        _MEMORY[ir.source] = (code, meta)
    _bind(ir.env, ir, meta)
    namespace: dict = {}
    exec(code, ir.env, namespace)
    return namespace["_rp"]
