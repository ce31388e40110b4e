"""Fleet execution: fuse replay blocks across read-pairs.

The replay engine (PR 4) removed per-instruction Python dispatch within
one pair's hot loop; the remaining per-iteration cost is paid once per
pair per block.  The fleet executor amortises it across pairs: N pairs
advance in lockstep, each on its own fresh machine, and whenever two or
more pairs' next pending block compiled to the *same source* (the
structural-equality guarantee of the replay compiler's
position-deterministic naming), the blocks execute as one fused kernel
whose data arrays carry an extra leading pair axis — axis 0 = pair,
axis 1 = vector lane.

Scoreboard state becomes structure-of-arrays over the pair axis:
``clock``, ``_max_complete`` and per-category stall attribution are
``(F,)`` int64 vectors, advanced with the exact ``_issue`` semantics
(first-strict-max blocker, per-category attribution) and committed back
to each pair's private machine at block end — bit-identically to running
the pairs one at a time.  Memory and forwarding state stay per-machine
(a short per-row loop inside the kernel), so cache statistics remain
truthful per pair.

Control flow never fuses: ``ptest``/``ptest_spec`` guards run in each
pair's own *fiber* (a generator yielding :class:`FleetStep` requests
between guard points).  A pair whose guard diverges simply stops
requesting that block — it retires from the fused group and continues
alone (or joins another group), never stalling the rest.  Pairs whose
blocks cannot fuse (capture iterations, broken traces, QUETZAL ops,
singleton groups) execute serially through the unchanged per-pair path.

Because every fiber owns a fresh machine, a fleet of any width is
bit-identical per pair to a fleet of width 1 — the same fresh-machine
(``shard_size=1``) semantics the sharded runner documents.
"""

from __future__ import annotations

from time import perf_counter as _pc

import numpy as np

from repro.vector.machine import (
    MEM_MODEL_CLOCK,
    _BINOPS,
    _CMPOPS,
    _clz_values,
    _ctz_values,
    _raise_gather64_range,
    _rbit_values,
)
from repro.vector.program import REPLAY_METER, _store_oob
from repro.vector.register import Pred, VReg


class _FleetUnsupported(Exception):
    """The block contains ops the fleet emitter does not batch."""


# ----------------------------------------------------------------------
# Step requests and fibers
# ----------------------------------------------------------------------
class FleetStep:
    """One pending straight-line block request from a pair fiber.

    ``run()`` executes the request serially (the unchanged per-pair
    path: capture, replay or interpret).  When ``prog`` is set the
    scheduler may instead execute the block fused with other pairs'
    identical-source requests, stacking ``regs``/``scalars`` along the
    pair axis and delivering the per-row outputs through ``accept``.
    """

    __slots__ = ("machine", "prog", "regs", "scalars", "accept", "run")

    def __init__(self, machine, run, prog=None, regs=(), scalars=(), accept=None):
        self.machine = machine
        self.run = run
        self.prog = prog
        self.regs = regs
        self.scalars = scalars
        self.accept = accept


def session_step(session, st) -> FleetStep:
    """The fleet request for one ``ReplaySession.step`` of carried state
    ``st`` (the shared ``ChunkState`` shape)."""
    m = session.machine
    prog = None
    if not session._broken and m.use_replay and m.use_batched_memory:
        # The program matching st's current regime: the specialised root
        # when its regime holds, the compiled side-exit child when not.
        # Buckets key on program identity, so rows sitting on a side
        # exit batch with each other, not with the root's fast path.
        prog = session.fleet_prog(st)
    if prog is None:
        # Capture / broken / replay-off / un-compiled side exit: serial,
        # so step() can profile, capture and meter the execution.
        return FleetStep(m, run=lambda: session.step(st))

    is_exit = prog is not session._prog
    root = session._root

    def accept(outs):
        st.v, st.h, st.inb = outs
        if is_exit:
            # Fused rows served by the side-exit child trace carry the
            # same exit meters as the serial step() path.
            REPLAY_METER.side_exits += 1
            REPLAY_METER.side_exit_replays += 1
            root.exit_count += 1

    return FleetStep(
        m,
        run=lambda: session.step(st),
        prog=prog,
        regs=(st.v, st.h, st.inb),
        accept=accept,
    )


def program_step(machine, prog, scalars, run, accept=None) -> FleetStep:
    """Fleet request for a bare :class:`RecordedProgram` invocation with
    scalar parameters and no carried registers (the DP chunk shape)."""
    if prog is None:
        return FleetStep(machine, run=run)
    return FleetStep(
        machine,
        run=run,
        prog=prog,
        scalars=tuple(int(s) for s in scalars),
        accept=accept if accept is not None else (lambda outs: None),
    )


def drive_serial(fiber):
    """Run one pair fiber to completion inline.

    Executes each yielded request immediately, preserving exactly the
    op order of the pre-fleet inline code; this is the non-fleet path.
    """
    try:
        while True:
            next(fiber).run()
    except StopIteration as e:
        return e.value


def drive_fleet(fibers):
    """Advance pair fibers in lockstep rounds, fusing compatible blocks.

    Each round executes every live fiber's one pending request: requests
    whose programs share source run as one fused kernel; the rest run
    serially.  Returns the fibers' return values in order.
    """
    n = len(fibers)
    results = [None] * n
    pending: dict[int, FleetStep] = {}
    live = n

    def advance(i):
        nonlocal live
        try:
            pending[i] = next(fibers[i])
        except StopIteration as e:
            results[i] = e.value
            live -= 1
            if live > 0:
                hist = REPLAY_METER.fleet_retired
                hist[live] = hist.get(live, 0) + 1

    for i in range(n):
        advance(i)
    group_cache: dict = {}
    while pending:
        current, pending = pending, {}
        buckets: dict = {}
        serial: list[int] = []
        # Rows that *had* a fusable program but fell back to the serial
        # path (singleton bucket, failed group).  Metered separately
        # from never-fusable rows so the --verbose serial share reports
        # genuine fusion misses, not capture/interpret rounds.
        fusable_serial: set = set()
        for i, step in current.items():
            if step.prog is None:
                serial.append(i)
            else:
                # Sub-bucket by the carried registers' category signature:
                # rows on different loop iterations can carry the same
                # register with different categories (e.g. loaded-from-
                # memory on a chunk's first step, ALU-produced after),
                # and stall attribution bakes the category per input.
                # ... and by the emitting backend, so fused execution
                # composes with mixed-backend fleets (tree-node identity
                # is already part of ``source``).
                key = (
                    step.prog.source,
                    step.prog.backend,
                    tuple(r.category for r in step.regs),
                )
                buckets.setdefault(key, []).append(i)
        for (src, _backend, _cats), idxs in buckets.items():
            if len(idxs) < 2:
                fusable_serial.update(idxs)
                serial.extend(idxs)
                continue
            steps = [current[i] for i in idxs]
            if _run_group(src, steps, group_cache):
                for i in idxs:
                    advance(i)
            else:
                fusable_serial.update(idxs)
                serial.extend(idxs)
        for i in serial:
            current[i].run()
            if i in fusable_serial:
                REPLAY_METER.fleet_singleton += 1
            else:
                REPLAY_METER.fleet_serial += 1
            advance(i)
    return results


# ----------------------------------------------------------------------
# Group execution
# ----------------------------------------------------------------------
#: Fleet kernels per serial-program source (None = cannot batch).
_FLEET_PROGRAMS: dict = {}


def _fleet_program(prog):
    src = prog.source
    if src in _FLEET_PROGRAMS:
        return _FLEET_PROGRAMS[src]
    try:
        fp = _compile_fleet(prog) if prog.rec is not None else None
    except _FleetUnsupported:
        fp = None
    if len(_FLEET_PROGRAMS) >= 128:
        _FLEET_PROGRAMS.clear()
    _FLEET_PROGRAMS[src] = fp
    return fp


def _run_group(src, steps, cache) -> bool:
    """Try to run same-source requests as one fused kernel call."""
    fp = _fleet_program(steps[0].prog)
    if fp is None:
        return False
    # Key on the program *objects*, not just the shared source: two
    # structurally identical programs (same source) can bake different
    # buffers/externals (e.g. BiWFA's forward and backward kernels), and
    # the group binds those baked values at build time.  Holding the
    # progs/machines in the key also pins their ids for the cache's
    # lifetime.
    key = (tuple(s.prog for s in steps), tuple(s.machine for s in steps))
    group = cache.get(key, _MISSING)
    if group is _MISSING:
        group = _build_group(fp, steps)
        if len(cache) >= 256:
            cache.clear()
        cache[key] = group
    if group is None:
        return False
    return group.run(steps)


_MISSING = object()


def _build_group(fp, steps):
    machines = [s.machine for s in steps]
    if len({id(m) for m in machines}) != len(machines):
        return None
    lut = machines[0]._occ_lut
    for m in machines:
        if m.tracer is not None or m._occ_lut is not lut:
            return None
    try:
        return FleetGroup(fp, steps)
    except _FleetUnsupported:
        return None


class FleetGroup:
    """A fleet program bound to one stable set of pairs.

    Binding stacks every per-row baked value (scalar constants, lane
    constants, externals' data) along the pair axis once; per call only
    the carried registers and the machines' clocks are stacked.
    """

    __slots__ = ("fp", "machines", "fn", "wraps")

    def __init__(self, fp, steps):
        self.fp = fp
        self.machines = [s.machine for s in steps]
        self.wraps = [
            (Pred._wrap if isp else VReg._wrap, eb) for isp, eb in fp.out_info
        ]
        env = dict(_FLEET_HELPERS)
        env["_machs"] = self.machines
        env["_occ"] = self.machines[0]._occ_lut
        for mn in fp.memo_names:
            env[mn] = {}
        for name, kind, get in fp.binders:
            vals = [get(s.prog.rec) for s in steps]
            if kind == "stack":
                env[name] = np.stack(vals)
            elif kind == "col":
                env[name] = np.array(vals, dtype=np.int64).reshape(-1, 1)
            elif kind == "vec":
                env[name] = np.array(vals, dtype=np.int64)
            elif kind == "obj":
                env[name] = vals
            else:  # "cat": a category string, required uniform
                if any(v != vals[0] for v in vals[1:]):
                    raise _FleetUnsupported("external category mismatch")
                env[name] = vals[0]
        namespace: dict = {}
        exec(fp.code, env, namespace)
        self.fn = namespace["_rfp"]

    def run(self, steps) -> bool:
        fp = self.fp
        machs = self.machines
        F = len(machs)
        a = [
            np.fromiter((m.clock for m in machs), np.int64, F),
            np.fromiter((m._max_complete for m in machs), np.int64, F),
        ]
        for j in range(fp.n_inputs):
            regs = [s.regs[j] for s in steps]
            cat = regs[0].category
            for r in regs[1:]:
                if r.category != cat:
                    return False
            # concatenate + reshape beats np.stack's per-array
            # expand_dims on these many-small-row batches.
            a.append(
                np.concatenate([r.data for r in regs]).reshape(F, -1)
            )
            a.append(np.fromiter((r.ready for r in regs), np.int64, F))
            a.append(cat)
        if steps[0].scalars:
            p = tuple(
                np.array([s.scalars[j] for s in steps], dtype=np.int64)
                for j in range(len(steps[0].scalars))
            )
        else:
            p = ()
        outs = self.fn(tuple(a), p)
        if outs is None:
            # External registers not yet ready on some row (only right
            # after capture): every row interprets this round.
            return False
        per_out = [
            [wrap(di, eb, ri, cat) for di, ri in zip(d, r.tolist())]
            for (wrap, eb), (d, r, cat) in zip(self.wraps, outs)
        ]
        for step, row in zip(steps, zip(*per_out)):
            step.accept(row)
        REPLAY_METER.total_blocks += F
        REPLAY_METER.fleet_batches += 1
        REPLAY_METER.fleet_pairs += F
        REPLAY_METER.replayed_blocks += F
        REPLAY_METER.replayed_instructions += fp.n_ops * F
        return True


class FleetProgram:
    """A compiled fleet kernel: one serial-program source, batched over
    the pair axis, plus the binding plan for per-row environment values."""

    __slots__ = (
        "source", "code", "binders", "n_inputs", "out_info", "n_ops",
        "memo_names",
    )

    def __init__(
        self, source, code, binders, n_inputs, out_info, n_ops, memo_names=()
    ):
        self.source = source
        self.code = code
        self.binders = binders
        self.n_inputs = n_inputs
        self.out_info = out_info
        self.n_ops = n_ops
        self.memo_names = memo_names


# ----------------------------------------------------------------------
# Fleet compilation (the row-batched port of program._compile)
# ----------------------------------------------------------------------
def _vc(v, F):
    """(F,) int64 from a per-row array or a row-uniform scalar."""
    if isinstance(v, np.ndarray):
        return v.astype(np.int64, copy=False)
    return np.full(F, v, dtype=np.int64)


def _cl(v, F):
    """(F, 1) int64 column (broadcasts against (F, n) lane data)."""
    return _vc(v, F).reshape(-1, 1)


def _rep(v, n, F):
    """dup along the pair axis: (F, n) from scalar or (F,) values."""
    if isinstance(v, np.ndarray):
        return np.repeat(v.astype(np.int64, copy=False), n).reshape(-1, n)
    return np.full((F, n), v, dtype=np.int64)


def _z2(F, n):
    return np.zeros((F, n), dtype=np.int64)


def _zv(F):
    return np.zeros(F, dtype=np.int64)


def _sadd(stall, cat, vals):
    cur = stall.get(cat)
    stall[cat] = vals if cur is None else cur + vals


_GR_STATS = {"calls": 0, "fast": 0, "fallback": 0}


def _gather_rows(machs, bufs_parts, idx2, pred2, sids_parts, n, occ_lut, memo):
    """Row-batched ``gather64``: data movement, memory accounting and
    issue occupancy for one fused gather op — or for two independent
    gather ops of the same block stacked op-major (op 1's rows, then
    op 2's), which shares one matrix pass across both.

    Returns ``(data, occ, extra)``: the (R, n) gathered window values
    and the (R,) issue-occupancy / exposed-miss-latency vectors the
    fused scoreboard consumes, where R = ops * pairs.

    The accounting vectorises the all-L1-resident steady state across
    the pair axis: line math, the prefetcher stride/confidence
    recurrence, the same-line collapse rule and the prefetch-target
    emission of ``MemoryHierarchy._access_batch_scalar`` are computed on
    (R, n) matrices, then committed per row in O(distinct lines) — the
    exact counter, LRU-timestamp and stream-table updates the serial
    engine would have made, in the same order.  A row leaves the fast
    path (and runs the bit-exact per-row engine instead) whenever
    anything falls outside that envelope: a non-resident demand line, a
    non-resident prefetch target, an unknown prefetcher stream, or
    fewer than two active lanes.  Resident prefetched-flagged lines
    stay on the fast path — their first demand touch consumes the flag
    and counts a prefetch hit, exactly as the engine does.  Within
    one machine the ops commit in program order, and any fallback
    forces the machine's later op rows to the exact engine too (the
    engine may move lines, invalidating the precomputed screen).

    ``memo`` is a per-(group, op) dict caching everything that is
    invariant for the bound machines/buffers: concatenated row tables,
    element sizes, bases, window counts, the occupancy LUT as an array,
    and index scaffolding.
    """
    R, width = idx2.shape
    bufs = memo.get("bufs")
    if bufs is None:
        bufs = memo["bufs"] = [b for part in bufs_parts for b in part]
        sids = memo["sids"] = [s for part in sids_parts for s in part]
        machs2 = memo["machs2"] = list(machs) * len(bufs_parts)
        memo["pfs"] = [m.mem._l1_prefetcher for m in machs2]
        memo["eb"] = np.fromiter((b.elem_bytes for b in bufs), np.int64, R)
        memo["bases"] = np.fromiter((b.base for b in bufs), np.int64, R)
        memo["lens"] = np.fromiter(
            (b.packed_windows().shape[0] for b in bufs), np.int64, R
        )
        memo["occa"] = np.asarray(occ_lut)
        memo["ar"] = np.arange(width)
        memo["rowoff"] = (np.arange(R, dtype=np.int64) * width)[:, None]
        nm = len(machs)
        # Rows whose stream id repeats an earlier op's on the same
        # machine can't be screened from pre-call stream state.
        memo["chain"] = frozenset(
            r for r in range(nm, R) if sids[r] == sids[r - nm]
        )
        line = machs[0].mem.system.l1d.line_bytes
        # A <8-byte line could split a window over >2 lines, and the
        # matrix pass assumes one uniform line size; neither occurs in
        # any Table I geometry, but fall back wholesale if they do.
        memo["line"] = line if line >= 8 and all(
            m.mem.system.l1d.line_bytes == line for m in machs
        ) else None
        # Equal window counts allow one stacked (R, L) gather matrix.
        memo["uniform"] = bool(R) and bool((memo["lens"] == memo["lens"][0]).all())
        memo["pw_list"] = None
        memo["rowsel"] = np.arange(R)[:, None]
    else:
        sids = memo["sids"]
        machs2 = memo["machs2"]
    occ = np.empty(R, dtype=np.int64)
    extra = np.zeros(R, dtype=np.int64)
    _GR_STATS["calls"] += 1

    # -- data movement (exact port of the serial replay's gather) ------
    # An all-true predicate is the unpredicated gather (the serial
    # replay takes the same branch), which keeps the common extend-loop
    # shape on the cheapest path.
    if pred2 is not None and pred2.all():
        pred2 = None
    pws = [b.packed_windows() for b in bufs]
    lens = memo["lens"]
    # One stacked (R, L) window matrix turns the R row gathers into a
    # single fancy index; rebuilt only when a store invalidated some
    # buffer's cached windows (the arrays are compared by identity).
    pw2 = None
    if memo["uniform"]:
        old = memo["pw_list"]
        if old is not None and all(a is b for a, b in zip(old, pws)):
            pw2 = memo["pw2"]
        else:
            pw2 = memo["pw2"] = np.stack(pws)
            memo["pw_list"] = pws
    out = None
    if pred2 is None:
        if not n or bool(
            (idx2 >= 0).all() and (idx2 < lens[:, None]).all()
        ):
            if pw2 is not None:
                out = pw2[memo["rowsel"], idx2]
            else:
                out = np.empty((R, n), dtype=np.int64)
                for r in range(R):
                    out[r] = pws[r][idx2[r]]
        else:
            # Re-walk rows in order so the offending row raises with
            # the serial engine's exact diagnostics.
            out = np.empty((R, n), dtype=np.int64)
            for r in range(R):
                ti = idx2[r]
                if int(ti.min()) < 0:
                    _raise_gather64_range(bufs[r], ti)
                try:
                    out[r] = pws[r][ti]
                except IndexError:
                    _raise_gather64_range(bufs[r], ti)
    else:
        safe = np.where(pred2, idx2, 0)
        if bool((safe >= 0).all() and (safe < lens[:, None]).all()):
            if pw2 is not None:
                out = pw2[memo["rowsel"], safe] * pred2
            else:
                out = np.empty((R, n), dtype=np.int64)
                for r in range(R):
                    np.multiply(pws[r][safe[r]], pred2[r], out=out[r])
        else:
            out = np.zeros((R, n), dtype=np.int64)
            for r in range(R):
                tp = pred2[r]
                ti = idx2[r][tp]
                if ti.size and int(ti.min()) < 0:
                    _raise_gather64_range(bufs[r], ti)
                try:
                    if ti.size:
                        out[r][tp] = pws[r][ti]
                except IndexError:
                    _raise_gather64_range(bufs[r], ti)

    # -- active-lane compaction ----------------------------------------
    eb = memo["eb"]
    bases = memo["bases"]
    if pred2 is None:
        counts = np.full(R, width, dtype=np.int64)
        addr2 = bases[:, None] + idx2 * eb[:, None]
    else:
        counts = pred2.sum(axis=1)
        # Stable left-compaction: the accounting stream is the active
        # lanes' addresses in lane order, right-padded with (ignored)
        # inactive-lane addresses.
        order = np.argsort(~pred2, axis=1, kind="stable")
        addr2 = bases[:, None] + np.take_along_axis(idx2, order, axis=1) * eb[:, None]

    # -- occupancy (per active-lane-count AGU serialisation) -----------
    try:
        occ[:] = memo["occa"][counts]
    except IndexError:
        for r in range(R):
            occ[r] = machs2[r]._indexed_occupancy(int(counts[r]))

    # -- fast-path eligibility + shared recurrences --------------------
    # Per-row prefetcher stream state; an unknown stream (first batch on
    # this sid) or an empty row takes the exact engine.
    prev_addr = np.zeros(R, dtype=np.int64)
    prev_stride = np.zeros(R, dtype=np.int64)
    entries = [None] * R
    pfs = memo["pfs"]
    chain = memo["chain"]
    line = memo["line"]
    fb_mask = bytearray(R)
    no_pf_rows = []
    counts_l = counts.tolist()
    degree = 0
    have_cand = False
    if line is None:
        for r in range(R):
            fb_mask[r] = 1
    else:
        for r in range(R):
            if counts_l[r] < 1 or r in chain:
                fb_mask[r] = 1
                continue
            pf = pfs[r]
            if pf is None:
                no_pf_rows.append(r)
                have_cand = True
                continue
            entry = pf._table.get(sids[r])
            if entry is None or (degree and pf.degree != degree):
                fb_mask[r] = 1
                continue
            degree = pf.degree
            entries[r] = entry
            prev_addr[r] = entry.last_addr
            prev_stride[r] = entry.stride
            have_cand = True

    if have_cand:
        not_mask = ~(line - 1)
        vmask = memo["ar"] < counts[:, None]
        lo = addr2 & not_mask
        hi = (addr2 + 7) & not_mask
        two = (lo != hi) & vmask
        strides = np.empty_like(addr2)
        strides[:, 0] = addr2[:, 0] - prev_addr
        np.subtract(addr2[:, 1:], addr2[:, :-1], out=strides[:, 1:])
        conf = np.empty((R, width), dtype=bool)
        conf[:, 0] = (strides[:, 0] != 0) & (strides[:, 0] == prev_stride)
        np.logical_and(
            strides[:, 1:] != 0, strides[:, 1:] == strides[:, :-1],
            out=conf[:, 1:],
        )
        conf &= vmask
        if no_pf_rows:
            conf[no_pf_rows] = False
        # prev_line recurrence: the last single-line element's line
        # (collapsed elements repeat it, multi-line spans skip it).
        sing = (lo == hi) & vmask
        lsi = np.maximum.accumulate(
            np.where(sing, memo["ar"], -1), axis=1
        )
        prev_idx = np.empty((R, width), dtype=np.int64)
        prev_idx[:, 0] = -1
        prev_idx[:, 1:] = lsi[:, :-1]
        rowoff = memo["rowoff"]
        prev_line = np.where(
            prev_idx >= 0,
            lo.ravel()[np.maximum(prev_idx, 0) + rowoff],
            -1,
        )
        collapse = sing & ~conf & (lo == prev_line)
        # Prefetch-target emission: degree strides ahead, non-negative,
        # escaping the element's own demand lines, deduplicated per
        # element in k order.  For a fixed stride the target lines are
        # monotone in k, so "equals any earlier issued line" collapses
        # to "equals the nearest one" — a running last-line register
        # replaces the quadratic masked-any dedup over the k axis.
        have_tgt = bool(degree) and bool(conf.any())
        if have_tgt:
            bufs3 = memo.get("tgt3")
            if bufs3 is None or bufs3[1].shape != (degree, R, width):
                bufs3 = memo["tgt3"] = (
                    np.empty((degree, R, width), dtype=np.int64),
                    np.empty((degree, R, width), dtype=bool),
                    np.empty((R, width), dtype=np.int64),
                    np.empty((R, width), dtype=np.int64),
                )
            tline3, mk3, tk, lastl = bufs3
            np.copyto(tk, addr2)
            lastl.fill(-1)
            for k in range(degree):
                tk += strides
                tl = tline3[k]
                np.bitwise_and(tk, not_mask, out=tl)
                m = mk3[k]
                np.greater_equal(tk, 0, out=m)
                m &= conf
                m &= (tl < lo) | (tl > hi)
                m &= tl != lastl
                np.copyto(lastl, tl, where=m)
            issued_row = mk3.sum(axis=(0, 2))
        else:
            issued_row = np.zeros(R, dtype=np.int64)
        # Touch positions: every non-collapsed line touch bumps the LRU
        # clock by one; a line's final timestamp is its last touch.
        cnt = np.where(collapse | ~vmask, 0, np.where(two, 2, 1))
        pos = np.cumsum(cnt, axis=1)
        touches_l = pos[:, -1].tolist()
        hits_l = (pos[:, -1] + collapse.sum(axis=1)).tolist()
        nreq_l = (counts + two.sum(axis=1)).tolist()
        # Compress the (R, 2n) touch tables to per-row distinct-line
        # runs: sorting (line << s | pos) keys groups each line with its
        # max touch position last, one vectorized pass for all rows —
        # the commit loop then probes ~lines-per-row entries instead of
        # walking 2n mostly-empty columns.
        tpos2 = np.concatenate(
            [np.where(cnt > 0, pos - two, -1), np.where(two, pos, -1)],
            axis=1,
        )
        tline2 = np.concatenate([lo, hi], axis=1)
        shift = memo.get("shift")
        if shift is None:
            shift = memo["shift"] = int(2 * width + 2).bit_length()
        tkey = np.where(tpos2 >= 0, (tline2 << shift) | tpos2, -1)
        tkey.sort(axis=1)
        valid_s = tkey >= 0
        lines_s = tkey >> shift
        lastm = np.empty_like(valid_s)
        lastm[:, -1] = valid_s[:, -1]
        lastm[:, :-1] = valid_s[:, :-1] & (lines_s[:, :-1] != lines_s[:, 1:])
        sel = tkey[lastm]
        ent_lines = (sel >> shift).tolist()
        ent_pos = (sel & ((1 << shift) - 1)).tolist()
        ent_start = np.searchsorted(
            np.nonzero(lastm)[0], np.arange(R + 1)
        ).tolist()
        if have_tgt and issued_row.any():
            tmask = mk3.transpose(1, 0, 2).reshape(R, -1)
            tgt_vals = tline3.transpose(1, 0, 2).reshape(R, -1)[tmask].tolist()
            tgt_start = np.searchsorted(
                np.nonzero(tmask)[0], np.arange(R + 1)
            ).tolist()
        else:
            tgt_vals = None
            tgt_start = None
        issued_l = issued_row.tolist()
        flat = (counts - 1).clip(min=0) + rowoff[:, 0]
        last_addr = addr2.ravel()[flat].tolist()
        last_stride = strides.ravel()[flat].tolist()
        last_conf = conf.ravel()[flat].tolist()

    # -- per-machine commit, ops in program order ----------------------
    nm = len(machs)
    fast_n = fb_n = 0
    for mi in range(nm):
        prev_ok = True
        # One machine per residue class: its lookups hoist out of the
        # row loop.  A fallback row invalidates the hoisted bindings,
        # but ``prev_ok`` routes every later row of the machine to the
        # engine, so they are never reused after one.
        mach = machs[mi]
        mem = mach.mem
        l1 = mem.l1
        slot_get = l1._slot_of.get
        pf_flag = l1._pf
        lstats = l1.stats
        # Fallback rows reuse the gather's fused address matrix instead
        # of rebuilding per-lane addresses through _indexed_memory —
        # the batch goes straight to the hierarchy's batch engine
        # (where pattern replay lives).  The tracer membatch event is
        # skipped, matching the fast path (signatures never compare
        # tracer output).
        coalesce = mach.use_batched_memory and mem.use_vectorized_memory
        for r in range(mi, R, nm):
            ok = False
            if prev_ok and not fb_mask[r]:
                s0 = ent_start[r]
                s1 = ent_start[r + 1]
                issued = issued_l[r]
                if s1 - s0 == 1:
                    # Single demand line: one probe, one tick write.
                    # Its last touch is the row's last touch overall.
                    u0 = ent_lines[s0]
                    slot = slot_get(u0)
                    if slot is not None:
                        ok = True
                        if issued:
                            for j in range(tgt_start[r], tgt_start[r + 1]):
                                u = tgt_vals[j]
                                if u != u0 and slot_get(u) is None:
                                    ok = False
                                    break
                        if ok:
                            clock0 = l1._clock
                            l1._tick[slot] = clock0 + touches_l[r]
                            l1._clock = clock0 + touches_l[r]
                            if pf_flag[slot]:
                                # First demand touch of a prefetched
                                # line: consume the flag (the engine
                                # counts it and nothing else changes).
                                pf_flag[slot] = 0
                                lstats.prefetch_hits += 1
                            lstats.hits += hits_l[r]
                            mem.requests += nreq_l[r]
                            entry = entries[r]
                            if entry is not None:
                                entry.last_addr = last_addr[r]
                                entry.stride = last_stride[r]
                                entry.confident = last_conf[r]
                                pfs[r].issued += issued
                            fast_n += 1
                else:
                    # Distinct demand lines, each with its final touch
                    # position: residency + prefetched-flag screening,
                    # then the LRU commit.
                    slots = []
                    ok = True
                    for j in range(s0, s1):
                        slot = slot_get(ent_lines[j])
                        if slot is None:
                            ok = False
                            break
                        slots.append(slot)
                    if ok and issued:
                        # Prefetch targets need residency only (a
                        # resident target skips the fill with no LRU or
                        # flag effect).
                        lines_r = ent_lines[s0:s1]
                        for j in range(tgt_start[r], tgt_start[r + 1]):
                            u = tgt_vals[j]
                            if u not in lines_r and slot_get(u) is None:
                                ok = False
                                break
                    if ok:
                        # Commit: final LRU timestamps per line, then
                        # the counters and the stream-table state
                        # end_batch would have written.
                        clock0 = l1._clock
                        tick = l1._tick
                        j = s0
                        pfh = 0
                        for slot in slots:
                            tick[slot] = clock0 + ent_pos[j]
                            j += 1
                            if pf_flag[slot]:
                                pf_flag[slot] = 0
                                pfh += 1
                        if pfh:
                            # First demand touches of prefetched lines:
                            # consume the flags (the engine counts them
                            # and nothing else changes).
                            lstats.prefetch_hits += pfh
                        l1._clock = clock0 + touches_l[r]
                        lstats.hits += hits_l[r]
                        mem.requests += nreq_l[r]
                        entry = entries[r]
                        if entry is not None:
                            entry.last_addr = last_addr[r]
                            entry.stride = last_stride[r]
                            entry.confident = last_conf[r]
                            pfs[r].issued += issued
                        fast_n += 1
            if not ok:
                # Exact engine; later ops of this machine follow it
                # there (it may have moved lines under the screen).
                fb_n += 1
                if coalesce and counts_l[r] >= 2:
                    # Pattern attempts are suppressed: these rows just
                    # failed the fast path's own residency screen (or
                    # follow a row that did), so memoized replays would
                    # mostly decline — the batch engine's walk is the
                    # right tool.
                    t0 = _pc()
                    mem._memvec_skip = True
                    try:
                        worst = mem.access_batch_max(
                            addr2[r, : counts_l[r]].tolist(), 8, sids[r]
                        )
                    finally:
                        mem._memvec_skip = False
                    MEM_MODEL_CLOCK.s += _pc() - t0
                else:
                    if pred2 is None:
                        ti = idx2[r]
                    else:
                        tp = pred2[r]
                        ti = idx2[r] if tp.all() else idx2[r][tp]
                    worst = mach._indexed_memory(bufs[r], ti, 8, sids[r])
                ltu = mach._l1_ltu
                if worst > ltu:
                    extra[r] = worst - ltu
            prev_ok = ok
    _GR_STATS["fast"] += fast_n
    _GR_STATS["fallback"] += fb_n
    return out, occ, extra


def _rb2(x):
    return _rbit_values(x.ravel()).reshape(x.shape)


def _cz2(x, width):
    return _clz_values(x.ravel(), width).reshape(x.shape)


def _ct2(x):
    return _ctz_values(x.ravel()).reshape(x.shape)


_FLEET_HELPERS = {
    "np": np,
    "_wh": np.where,
    "_mx": np.maximum,
    "_any": np.count_nonzero,  # store range guard; see program._compile
    "_ar": np.arange,
    "_vc": _vc,
    "_cl": _cl,
    "_rep": _rep,
    "_z2": _z2,
    "_zv": _zv,
    "_sadd": _sadd,
    "_rb2": _rb2,
    "_cz2": _cz2,
    "_ct2": _ct2,
    "_rg64": _raise_gather64_range,
    "_oob": _store_oob,
    "_grows": _gather_rows,
}
for _name, _ufn in _BINOPS.items():
    _FLEET_HELPERS[f"_b_{_name}"] = _ufn
for _name, _ufn in _CMPOPS.items():
    _FLEET_HELPERS[f"_c_{_name}"] = _ufn


#: Shared bytecode per fleet source (mirrors program._CODE_CACHE).
_FLEET_CODE_CACHE: dict = {}


def _compile_fleet(prog) -> FleetProgram:
    """Emit the fused cross-pair kernel for one recorded block.

    This is ``program._compile`` with the scalar scoreboard state turned
    into ``(F,)`` vectors.  The compile-time constant folding ports
    unchanged — fold offsets are row-uniform (they depend only on block
    structure and the shared ``SystemConfig``), so folded segments cost
    one vector add for all pairs.  Only the runtime paths differ: dep
    chains use elementwise max with per-row blocker attribution, and
    memory ops walk the rows (each row's private hierarchy keeps cache
    statistics truthful per pair).

    Per-row environment values (baked scalar constants, lane-constant
    arrays, buffers, stream ids, externals) are referenced through fresh
    ``n{j}`` names; ``binders`` records how to extract each from a row's
    recorder and how to stack it at group-bind time.
    """
    rec = prog.rec
    out_slots = list(prog.out_slots)
    sys_ = rec.machine.system
    lat_arith = sys_.lat_vector_arith
    lat_pred = sys_.lat_predicate
    l1_ltu = sys_.l1d.load_to_use
    gather_base = sys_.lat_gather_base
    load_extra = sys_.lat_vector_load_extra

    for op in rec.ops:
        if op["kind"] in ("qzload", "qzmhm"):
            raise _FleetUnsupported("QUETZAL ops stay per-pair")

    binders: list = []
    memo_names: list = []
    nbind = [0]

    def bind(kind, get) -> str:
        name = f"n{nbind[0]}"
        nbind[0] += 1
        binders.append((name, kind, get))
        return name

    def bind_env(kind, env_name: str) -> str:
        return bind(kind, lambda r, nm=env_name: r.env[nm])

    from collections import Counter

    instr = Counter()
    busy = Counter()
    dyn_mem = False
    used_as_pred = {op.get("p") for op in rec.ops if op.get("p") is not None}
    input_preds = [s for s in rec.inputs if rec.ispred.get(s)]
    pall = {s for s in input_preds if s in used_as_pred}

    L: list[str] = []
    I = "    "

    def w(line: str, depth: int = 1) -> None:
        L.append(I * depth + line)

    def ssrc(sv) -> str:
        return str(sv[1]) if sv[0] == "k" else sv[1].src()

    def bsrc(sv, opk: int) -> str:
        """Scalar operand of a binop/cmp: per-row (F, 1) column."""
        if sv[0] == "s":
            return f"d{sv[1]}"
        if sv[0] == "k":
            # The serial compiler bakes this per instance (it varies
            # across structurally identical blocks), so stack per row.
            key = "b" if rec.ops[opk]["kind"] in ("binop", "cmp") else None
            assert key is not None
            name = bind(
                "col", lambda r, k=opk: int(r.ops[k]["b"][1])
            )
            return name
        return f"_cl({sv[1].src()}, F)"

    # -- liveness / merge sinking (identical to the serial compiler) ----
    last_use: dict = {}
    consumers: dict = {}
    for k, op in enumerate(rec.ops):
        for key in ("a", "b", "i", "v", "p"):
            v = op.get(key)
            if isinstance(v, tuple) and v and v[0] == "s":
                v = v[1]
            if isinstance(v, int):
                last_use[v] = k
                consumers.setdefault(v, []).append((op, key))
    out_set = set(out_slots)
    BIG = len(rec.ops) + 1
    for slot in out_set:
        last_use[slot] = BIG

    _MERGING = ("binop", "cmp", "rbit", "clz")
    lanes_dead: dict = {}
    for k in range(len(rec.ops) - 1, -1, -1):
        op = rec.ops[k]
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

    guarded_ext: set = set()
    for slot, _reg in rec.externals:
        if slot in out_set:
            continue
        guarded_ext.add(slot)
        absorbed.add(slot)

    def flush(cur_k: int) -> None:
        off = fold["off"]
        if fold["segmax"] is not None:
            w(f"maxc = _mx(maxc, clock + {fold['segmax']})")
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
        deps = [s for s in deps if s is not None]
        live_rt = [s for s in deps if s not in const_k and s not in absorbed]
        if isinstance(occ, int) and isinstance(lat, int) and not live_rt:
            # Fully deterministic: fold (row-uniform compile-time ints).
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
        # Runtime path: exact per-row dependence chain.
        flush(opk)
        kept = [s for s in deps if s not in absorbed]
        if kept:
            cats = [csrc(s) for s in kept]
            if len(set(cats)) == 1:
                # All candidate blockers share a category: no blocker
                # index needed, the attribution target is fixed.
                if len(kept) == 1:
                    w(f"ready = r{kept[0]}")
                else:
                    w(f"ready = _mx(r{kept[0]}, r{kept[1]})")
                    for s in kept[2:]:
                        w(f"ready = _mx(ready, r{s})")
                w("td = ready - clock")
                w("tm = td > 0")
                w("if tm.any():")
                w(f"    _sadd(stall, {cats[0]}, _wh(tm, td, 0))")
                w("    clock = _wh(tm, ready, clock)")
            else:
                # Mixed categories: track the last strict raiser per
                # row (the serial first-strict-max blocker rule).
                w(f"ready = r{kept[0]}")
                for j, s in enumerate(kept[1:], 1):
                    w(f"tb{j} = r{s} > ready")
                    w(f"ready = _wh(tb{j}, r{s}, ready)")
                w("td = ready - clock")
                w("tm = td > 0")
                w("if tm.any():")
                for j, s in enumerate(kept):
                    conds = ["tm"]
                    if j > 0:
                        conds.append(f"tb{j}")
                    conds.extend(f"~tb{j2}" for j2 in range(j + 1, len(kept)))
                    w(f"    tmj = {' & '.join(conds)}")
                    w(f"    if tmj.any(): _sadd(stall, {cats[j]}, _wh(tmj, td, 0))")
                w("    clock = _wh(tm, ready, clock)")
            absorbed.update(kept)
        if isinstance(occ, int):
            w(f"clock += {occ}")
        else:
            w(f"clock += {occ}")
        if out is None:
            w(f"maxc = _mx(maxc, clock + {lat})")
        elif isinstance(lat, int):
            const_k[out] = lat
            static_cat[out] = rcat
            fold["segmax"] = lat
        else:
            w(f"r{out} = clock + {lat}")
            w(f"maxc = _mx(maxc, r{out})")
            w(f"c{out} = {rcat!r}")

    def mask(op, o, a) -> None:
        """Predicated merge (unconditional: a no-op merge on all-true
        predicates computes the same values, so the serial pall skip is
        a pure optimisation the fleet kernel does not need)."""
        p = op.get("p")
        if p is None or lanes_dead.get(op.get("o"), False):
            return
        w(f"d{o} = _wh(d{p}, d{o}, d{a})")

    fused: set = set()
    for k, op in enumerate(rec.ops):
        if k in fused:
            continue
        kind = op["kind"]
        o = op.get("o")
        if kind == "const":
            name = bind_env("stack", op["data"])
            w(f"d{o} = {name}")
            issue((), 1, lat_arith if op["cat"] == "vector" else lat_pred,
                  o, "vector", k)
            instr[op["cat"]] += 1
            busy[op["cat"]] += 1
        elif kind == "iota":
            base = bind_env("stack", op["base"])
            w(f"d{o} = _cl({ssrc(op['start'])}, F) + {base}")
            issue((), 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "dup":
            w(f"d{o} = _rep({ssrc(op['value'])}, {op['n']}, F)")
            issue((), 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "whilelt":
            base = bind_env("stack", op["base"])
            w(f"tw = _cl({ssrc(op['end'])}, F) - _cl({ssrc(op['start'])}, F)")
            w(f"np.clip(tw, 0, {op['n']}, out=tw)")
            w(f"d{o} = {base} < tw")
            issue((), 1, lat_pred, o, "vector", k)
            instr["control"] += 1
            busy["control"] += 1
        elif kind == "binop":
            a = op["a"]
            deps = [a] + ([op["b"][1]] if op["b"][0] == "s" else []) + [op["p"]]
            w(f"d{o} = _b_{op['op']}(d{a}, {bsrc(op['b'], k)})")
            mask(op, o, a)
            issue(deps, 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "cmp":
            a = op["a"]
            deps = [a] + ([op["b"][1]] if op["b"][0] == "s" else []) + [op["p"]]
            w(f"d{o} = _c_{op['op']}(d{a}, {bsrc(op['b'], k)})")
            p = op.get("p")
            if p is not None:
                w(f"d{o} = d{o} & d{p}")
            issue(deps, 1, lat_pred, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "rbit":
            a = op["a"]
            p = op.get("p")
            nxt = rec.ops[k + 1] if k + 1 < len(rec.ops) else None
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
                o2 = nxt["o"]
                w(f"d{o2} = _ct2(d{a})")
                mask(nxt, o2, a)
                issue([a, p], 1, lat_arith, o, "vector", k)
                issue([o, p], 1, lat_arith, o2, "vector", k + 1)
                instr["vector"] += 2
                busy["vector"] += 2
                fused.add(k + 1)
                continue
            w(f"d{o} = _rb2(d{a})")
            mask(op, o, a)
            issue([a, op["p"]], 1, lat_arith, o, "vector", k)
            instr["vector"] += 1
            busy["vector"] += 1
        elif kind == "clz":
            a = op["a"]
            w(f"d{o} = _cz2(d{a}, {op['width']})")
            mask(op, o, a)
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
            i, p, n = op["i"], op["p"], op["n"]
            buf = bind_env("obj", op["buf"])
            sid = bind("obj", lambda r, kk=k: int(r.ops[kk]["sid"]))
            psrc = f"d{p}" if p is not None else "None"
            gm = f"_gm{k}"
            memo_names.append(gm)
            nxt = rec.ops[k + 1] if k + 1 < len(rec.ops) else None
            if (
                nxt is not None
                and nxt["kind"] == "gather64"
                and nxt["i"] != o
                and nxt.get("p") != o
                and nxt["n"] == n
                and (nxt.get("p") is None) == (p is None)
            ):
                # Two independent back-to-back gathers (the extend
                # loop's pattern/text pair): one stacked matrix pass
                # accounts both, committing per machine in op order.
                i2, p2, o2 = nxt["i"], nxt.get("p"), nxt["o"]
                buf2 = bind_env("obj", nxt["buf"])
                sid2 = bind("obj", lambda r, kk=k + 1: int(r.ops[kk]["sid"]))
                pcat = (
                    f"np.concatenate((d{p}, d{p2}))"
                    if p is not None
                    else "None"
                )
                w(
                    f"tg, tq, te = _grows(_machs, ({buf}, {buf2}), "
                    f"np.concatenate((d{i}, d{i2})), {pcat}, "
                    f"({sid}, {sid2}), {n}, _occ, {gm})"
                )
                w(f"d{o} = tg[:F]; d{o2} = tg[F:]")
                w("to = tq[:F]; to2 = tq[F:]")
                w("tx = te[:F]; tx2 = te[F:]")
                w(f"tl = _mx({gather_base} - to + {l1_ltu}, {l1_ltu}) + tx")
                issue([i, p], "to", "tl", o, "memory", k)
                w("bmem += to")
                w(f"tl2 = _mx({gather_base} - to2 + {l1_ltu}, {l1_ltu}) + tx2")
                issue([i2, p2], "to2", "tl2", o2, "memory", k + 1)
                w("bmem += to2")
                instr["memory"] += 2
                dyn_mem = True
                fused.add(k + 1)
                continue
            w(
                f"d{o}, to, tx = _grows(_machs, ({buf},), d{i}, {psrc}, "
                f"({sid},), {n}, _occ, {gm})"
            )
            w(f"tl = _mx({gather_base} - to + {l1_ltu}, {l1_ltu}) + tx")
            issue([i, p], "to", "tl", o, "memory", k)
            w("bmem += to")
            instr["memory"] += 1
            dyn_mem = True
        elif kind == "load":
            flush(k)
            p, n = op["p"], op["n"]
            buf = bind_env("obj", op["buf"])
            sid = bind("obj", lambda r, kk=k: int(r.ops[kk]["sid"]))
            # Buffer lengths are per-row: same-source programs may bind
            # different-length sequences (indels change text length).
            ln = bind("vec", lambda r, kk=k: int(r.ops[kk]["len"]))
            w(f"tsA = _vc({ssrc(op['start'])}, F)")
            w(f"d{o} = _z2(F, {n})")
            w("tlat = _zv(F)")
            w("for _r in range(F):")
            w("    _m = _machs[_r]")
            w("    ts = tsA[_r]")
            w(f"    ti = _ar(ts, ts + {n})")
            w(f"    tr = d{p}[_r] & (ti >= 0) & (ti < {ln}[_r])")
            # ``ti`` ascends, so the live lanes span tl2[0]..tl2[-1].
            w("    tl2 = ti[tr]")
            w(f"    d{o}[_r][tr] = {buf}[_r].data[tl2]")
            w("    if tl2.size:")
            w("        tlo = int(tl2[0]); tsp = int(tl2[-1]) - tlo + 1")
            w("    else:")
            w("        tlo = 0; tsp = 0")
            w("    if tsp:")
            w(f"        ta = {buf}[_r].base + tlo * {op['eb']}")
            w("        _m.clock = int(clock[_r])")
            w(f"        tl3 = _m.mem.access(ta, tsp * {op['eb']}, {sid}[_r])")
            if op["fwd"]:
                w("        if _m._store_visible:"
                  f" tl3 += _m._forwarding_stall(ta, tsp * {op['eb']})")
            w("    else:")
            w(f"        tl3 = {l1_ltu}")
            w("    tlat[_r] = tl3")
            w(f"tlat += {load_extra}")
            issue([p], 1, "tlat", o, "memory", k)
            instr["memory"] += 1
            busy["memory"] += 1
        elif kind == "store":
            flush(k)
            v, p, n = op["v"], op["p"], op["n"]
            buf = bind_env("obj", op["buf"])
            sid = bind("obj", lambda r, kk=k: int(r.ops[kk]["sid"]))
            ln = bind("vec", lambda r, kk=k: int(r.ops[kk]["len"]))
            w(f"tsA = _vc({ssrc(op['start'])}, F)")
            w("for _r in range(F):")
            w("    _m = _machs[_r]")
            w("    ts = tsA[_r]")
            w(f"    ti = _ar(ts, ts + {n})")
            w(f"    tr = d{p}[_r] & (ti >= 0) & (ti < {ln}[_r])")
            w(f"    if _any(d{p}[_r] & ~tr & (ti >= {ln}[_r])): _oob({buf}[_r])")
            w("    tl2 = ti[tr]")
            w(f"    {buf}[_r].data[tl2] = d{v}[_r][tr]")
            w("    if tl2.size:")
            w("        tlo = int(tl2[0]); tsp = int(tl2[-1]) - tlo + 1")
            w("    else:")
            w("        tlo = 0; tsp = 0")
            w(f"    {buf}[_r]._win64 = None")
            w("    if tsp:")
            w(f"        ta = {buf}[_r].base + tlo * {op['eb']}")
            w("        _m.clock = int(clock[_r])")
            w(f"        _m.mem.access(ta, tsp * {op['eb']}, {sid}[_r])")
            if op["fwd"]:
                w(f"        _m._record_store(ta, tsp * {op['eb']})")
            issue([v, p], 1, 1, None, "memory", k)
            instr["memory"] += 1
            busy["memory"] += 1
        else:
            raise _FleetUnsupported(f"op kind {kind!r} not batched")

    flush(BIG)

    # -- prologue / epilogue -------------------------------------------
    head = ["def _rfp(a, p):"]
    head.append(I + "clock = a[0]")
    head.append(I + "maxc = a[1]")
    head.append(I + "F = clock.shape[0]")
    head.append(I + "stall = {}")
    if dyn_mem:
        head.append(I + "bmem = _zv(F)")
    if guarded_ext:
        g_slots = tuple(sorted(guarded_ext))

        def eg_get(r, gs=g_slots):
            ext = dict(r.externals)
            return max(int(ext[s].ready) for s in gs)

        eg = bind("vec", eg_get)
        head.append(I + f"if ({eg} > clock).any(): return None")
    for j, slot in enumerate(rec.inputs):
        base = 2 + 3 * j
        head.append(
            I + f"d{slot} = a[{base}]; r{slot} = a[{base + 1}]; "
            f"c{slot} = a[{base + 2}]"
        )
    for slot, _reg in rec.externals:
        ed = bind("stack", lambda r, s=slot: dict(r.externals)[s].data)
        if slot in guarded_ext:
            head.append(I + f"d{slot} = {ed}")
        else:
            er = bind("vec", lambda r, s=slot: int(dict(r.externals)[s].ready))
            ec = bind("cat", lambda r, s=slot: dict(r.externals)[s].category)
            head.append(I + f"d{slot} = {ed}; r{slot} = {er}; c{slot} = {ec}")

    tail: list[str] = []
    tail.append(I + "for _r in range(F):")
    tail.append(I + "    _m = _machs[_r]")
    tail.append(I + "    _m.clock = int(clock[_r])")
    tail.append(I + "    _t = int(maxc[_r])")
    tail.append(I + "    if _t > _m._max_complete: _m._max_complete = _t")
    tail.append(I + "    t = _m._instructions")
    for cat in sorted(instr):
        tail.append(I + f"    t[{cat!r}] += {instr[cat]}")
    tail.append(I + "    t = _m._busy")
    busy_src = {cat: str(nn) for cat, nn in busy.items() if nn}
    if dyn_mem:
        base = busy.get("memory", 0)
        busy_src["memory"] = (
            f"{base} + int(bmem[_r])" if base else "int(bmem[_r])"
        )
    for cat in sorted(busy_src):
        tail.append(I + f"    t[{cat!r}] += {busy_src[cat]}")
    if any(cstall.values()):
        tail.append(I + "    t = _m._stall")
        for cat in sorted(cstall):
            if cstall[cat]:
                tail.append(I + f"    t[{cat!r}] += {cstall[cat]}")
    tail.append(I + "for _ck, _cv in stall.items():")
    tail.append(I + "    for _r in range(F):")
    tail.append(I + "        _sv = _cv[_r]")
    tail.append(I + "        if _sv: _machs[_r]._stall[_ck] += int(_sv)")
    rets = [f"(d{slot}, r{slot}, {csrc(slot)})" for slot in out_slots]
    tail.append(
        I + "return (" + ", ".join(rets) + ("," if len(rets) == 1 else "") + ")"
    )

    source = "\n".join(head + L + tail) + "\n"
    code = _FLEET_CODE_CACHE.get(source)
    if code is None:
        if len(_FLEET_CODE_CACHE) >= 256:
            _FLEET_CODE_CACHE.clear()
        code = compile(source, "<fleet-program>", "exec")
        _FLEET_CODE_CACHE[source] = code
    out_info = [(bool(rec.ispred[s]), rec.ebits[s]) for s in out_slots]
    return FleetProgram(source, code, binders, len(rec.inputs), out_info,
                        len(rec.ops), tuple(memo_names))
