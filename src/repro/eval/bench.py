"""Micro-benchmarks for the batched memory fast path (``repro bench``).

Each workload is run twice on fresh machines — once with the legacy
per-lane serial walk (``VectorMachine.use_batched_memory = False``) and
once with the batched ``access_batch`` engine — under identical inputs
and seeds.  The harness reports old-vs-new wall-clock, verifies the two
paths produced **bit-identical** machine statistics (any divergence is a
correctness bug, not a benchmark artifact), and writes the report to
``results/BENCH_membatch.json``.

Workloads:

``stride_sweep``
    Strided gathers at strides 1..16 elements over an L1-resident
    buffer — the run-length-collapse sweet spot.
``random_gather``
    Uniformly random byte gathers over an L1-resident buffer — no
    collapse possible; measures pure per-lane overhead.
``wfa_extend``
    The WFA extend inner loop (``vec_extend``: two ``gather64`` windows
    per iteration) on synthetic sequences.
``fig4_cell``
    End to end: the Fig. 4 VEC/SS cell (vectorised banded
    Smith-Waterman) on a slice of the 250bp dataset through
    ``run_implementation``.  Dataset synthesis happens outside the
    timed region — the cell measures alignment work, not the
    generator.
``replay_extend``
    The WFA extend inner loop again, but comparing the interpreted
    step-by-step execution against the recorded-program replay engine
    (``repro.vector.program``); both legs keep batched memory on.
``replay_ss``
    End-to-end Fig. 4 SS cell with replay off vs on — the same
    bit-identity contract, measured through ``run_implementation``.
``memvec_gather``
    Repeating strided gathers cycling through a small rotation of base
    offsets — the pattern-memoization sweet spot of the vectorized
    memory-model engine (:mod:`repro.memory.memvec`): after one warmup
    lap every batch replays a compiled pattern instead of walking the
    hierarchy request by request.  Toggles the ``memvec`` dimension
    (``MemoryHierarchy.use_vectorized_memory`` off vs on) with batched
    memory and replay pinned on both legs.

The membatch workloads compare ``use_batched_memory`` off vs on (replay
pinned off on both legs so it cannot blur the comparison); the replay
workloads compare ``use_replay`` off vs on with batched memory pinned
on; the ``backend`` dimension (opt in
via ``--dimension backend``) compares the plain generated-numpy codegen
backend against the process default (``numpy-opt``, or whatever
``--jit-backend`` pinned) with everything else held at the replay fast
path.  In every cell ``serial_s`` is the slow leg and ``batched_s`` the
fast leg, whatever the toggled dimension.

Every cell also reports the memory-model split (``mem_model_serial_s``
/ ``mem_model_batched_s`` and their share of the corresponding
``kernel_run_s``): the seconds each leg spent simulating the cache
hierarchy from inside compiled kernels, the quantity the vectorized
memory engine exists to shrink.  ``speedup_mem_model`` is their ratio
whenever the fast leg's share is measurable.

Each cell also splits wall-clock into compile and steady-state time:
``steady_serial_s``/``steady_batched_s`` subtract the codegen meter's
kernel-compile seconds from each timed round, and ``speedup_steady``
compares only those — the number :func:`check_regression` gates on,
since compile cost is a one-time warmup charge the kernel cache
amortises away across processes.  Cells where both legs run compiled
kernels additionally carry the kernel-net split
(``kernel_serial_s``/``kernel_batched_s``/``speedup_kernel``): in-kernel
wall time minus the memory-model seconds spent simulating the cache
hierarchy from inside those kernels.  For the ``backend`` dimension the
gates read ``speedup_kernel`` — the hierarchy simulation is shared by
every backend, so only the generated-kernel time carries the codegen
signal.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.align.vectorized.extend_loop import ExtendConsts, vec_extend
from repro.align.vectorized.ss_vec import SsVec
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.eval.runner import make_machine, run_implementation
from repro.genomics.datasets import build_dataset
from repro.memory.hierarchy import MemoryHierarchy
from repro.vector.backends import CODEGEN_METER
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER

#: Default report location (relative to the working directory).
DEFAULT_OUT = "results/BENCH_membatch.json"

#: The service-level workload (``--only serve``): not a two-leg toggle
#: comparison, so it is excluded from the default workload list and
#: produces its own cells via :func:`repro.serve.bench.serve_bench_cells`
#: (committed report: ``results/BENCH_serve.json``).
SERVE_WORKLOAD = "serve"

#: Workload name -> (reps in full mode, reps in --quick mode).
_SCALES = {
    "stride_sweep": (400, 60),
    "random_gather": (600, 90),
    "wfa_extend": (40, 8),
    "fig4_cell": (24, 4),
    "replay_extend": (40, 8),
    "replay_ss": (24, 4),
    "memvec_gather": (600, 90),
}

#: Workload name -> toggled dimension ("membatch" unless listed).
_DIMENSIONS = {
    "replay_extend": "replay",
    "replay_ss": "replay",
    "memvec_gather": "memvec",
}

#: dimension -> ((slow label, batched, replay, backend, memvec),
#: (fast ...)).  ``backend=None`` leaves ``jit_backend`` at the process
#: default (``numpy-opt`` unless ``--jit-backend`` pinned something
#: else), so the ``backend`` dimension's fast leg measures whatever
#: backend the process runs with; ``memvec=None`` likewise leaves the
#: memory-model engine at its process default.
_LEGS = {
    "membatch": (
        ("serial", False, False, None, None),
        ("batched", True, False, None, None),
    ),
    "replay": (
        ("serial", True, False, None, None),
        ("batched", True, True, None, None),
    ),
    "backend": (
        ("serial", True, True, "numpy", None),
        ("batched", True, True, None, None),
    ),
    # Both memvec legs keep the whole fast stack (batched memory,
    # replay) so the only difference is the memory hierarchy's own
    # engine — serial per-request walk vs phase-split retirement +
    # pattern replay.
    "memvec": (
        ("serial", True, True, None, False),
        ("batched", True, True, None, True),
    ),
}


class _PathPin:
    """Context manager pinning the class-wide execution-path defaults."""

    def __init__(
        self,
        batched: bool,
        replay: bool,
        backend: "str | None" = None,
        memvec: "bool | None" = None,
    ) -> None:
        self.batched = batched
        self.replay = replay
        self.backend = backend
        self.memvec = memvec

    def __enter__(self) -> None:
        self._saved = (
            VectorMachine.use_batched_memory,
            VectorMachine.use_replay,
            VectorMachine.jit_backend,
            MemoryHierarchy.use_vectorized_memory,
        )
        VectorMachine.use_batched_memory = self.batched
        VectorMachine.use_replay = self.replay
        if self.backend is not None:
            VectorMachine.jit_backend = self.backend
        if self.memvec is not None:
            MemoryHierarchy.use_vectorized_memory = self.memvec

    def __exit__(self, *exc) -> None:
        (
            VectorMachine.use_batched_memory,
            VectorMachine.use_replay,
            VectorMachine.jit_backend,
            MemoryHierarchy.use_vectorized_memory,
        ) = self._saved


# ----------------------------------------------------------------------
# Workloads (deterministic: fixed seeds, no wall-clock-dependent state)
# ----------------------------------------------------------------------
def _stride_sweep(reps: int):
    machine = make_machine(SystemConfig())
    data = np.arange(1 << 14, dtype=np.int64)  # 16K x 4B = 64KB
    buf = machine.new_buffer("sweep", data, elem_bytes=4)
    n = len(data)
    lanes = machine.lanes(32)
    for stride in (1, 2, 3, 4, 8, 16):
        span = lanes * stride
        base = 0
        for _ in range(reps):
            idx = machine.iota(32, start=base, step=stride)
            machine.gather(buf, idx, stream_id=11)
            base = (base + span) % (n - span)
    machine.barrier()
    return machine.snapshot()


def _random_gather(reps: int):
    machine = make_machine(SystemConfig())
    rng = np.random.default_rng(1234)
    data = (np.arange(48 << 10) % 251).astype(np.int64)  # 48KB, L1-resident
    buf = machine.new_buffer("rand", data, elem_bytes=1)
    lanes = machine.lanes(8)
    indices = rng.integers(0, len(data), size=(reps, lanes))
    for row in indices:
        idx = machine.from_values(row, 8)
        machine.gather(buf, idx, stream_id=13)
    machine.barrier()
    return machine.snapshot()


def _wfa_extend(reps: int):
    machine = make_machine(SystemConfig())
    rng = np.random.default_rng(7)
    length = 2048
    pattern = rng.integers(0, 4, length).astype(np.int64)
    text = pattern.copy()
    text[::97] = (text[::97] + 1) % 4  # sparse mismatches end each run
    pbuf = machine.new_buffer("bench_p", pattern, elem_bytes=1)
    tbuf = machine.new_buffer("bench_t", text, elem_bytes=1)
    consts = ExtendConsts(machine, length, length, 8)
    lanes = machine.lanes(64)
    for rep in range(reps):
        starts = (rep * 53) % 512 + 17 * np.arange(lanes)
        v = machine.from_values(starts, 64)
        h = machine.from_values(starts, 64)
        vec_extend(
            machine, pbuf, tbuf, v, h, machine.ptrue(64),
            length, length, consts=consts,
        )
    machine.barrier()
    return machine.snapshot()


def _replay_extend(reps: int):
    # Steady-state variant of the extend micro: long exact runs with a
    # small lane stagger, so the loop spends most iterations with every
    # lane active — the common case for WFA extends over near-identical
    # sequences, and the case the recorded-program fast path targets.
    machine = make_machine(SystemConfig())
    rng = np.random.default_rng(7)
    length = 4096
    pattern = rng.integers(0, 4, length).astype(np.int64)
    text = pattern.copy()
    text[::251] = (text[::251] + 1) % 4
    pbuf = machine.new_buffer("bench_p", pattern, elem_bytes=1)
    tbuf = machine.new_buffer("bench_t", text, elem_bytes=1)
    consts = ExtendConsts(machine, length, length, 8)
    lanes = machine.lanes(64)
    for rep in range(reps):
        starts = (rep * 53) % 1024 + 3 * np.arange(lanes)
        v = machine.from_values(starts, 64)
        h = machine.from_values(starts, 64)
        vec_extend(
            machine, pbuf, tbuf, v, h, machine.ptrue(64),
            length, length, consts=consts,
        )
    machine.barrier()
    return machine.snapshot()


_FIG4_DATASETS: dict = {}


def _fig4_cell(reps: int):
    # Dataset synthesis is deterministic and identical on both paths;
    # build it once per rep count so the timed region is alignment only.
    dataset = _FIG4_DATASETS.get(reps)
    if dataset is None:
        dataset = _FIG4_DATASETS[reps] = build_dataset(
            "250bp_1", num_pairs=reps, seed=1234
        )
    impl = SsVec(threshold=dataset.spec.edit_threshold)
    result = run_implementation(impl, dataset.pairs)
    return result.stats()


_SS_DATASETS: dict = {}


def _replay_ss(reps: int):
    dataset = _SS_DATASETS.get(reps)
    if dataset is None:
        dataset = _SS_DATASETS[reps] = build_dataset(
            "250bp_1", num_pairs=reps, seed=4321
        )
    impl = SsVec(threshold=dataset.spec.edit_threshold)
    result = run_implementation(impl, dataset.pairs)
    return result.stats()


def _memvec_gather(reps: int):
    # A small rotation of base offsets over an L1-resident buffer: the
    # same eight (base-in-line offset, entry stride, delta stream) keys
    # recur every lap, so after one warmup lap the pattern-memoization
    # layer replays every batch closed-form.  The serial leg walks the
    # identical batches request by request — the cell isolates the
    # hierarchy engine itself.  Byte gathers at the widest lane count
    # (64 lanes of 8-bit elements) make each batch a full-length scalar
    # walk on the serial leg while the replay commit stays a few distinct
    # lines.
    machine = make_machine(SystemConfig())
    data = (np.arange(32 << 10) % 251).astype(np.int64)  # 32KB, L1-resident
    buf = machine.new_buffer("memvec", data, elem_bytes=1)
    lanes = machine.lanes(8)
    span = 2 * lanes
    for rep in range(reps):
        idx = machine.iota(8, start=(rep % 8) * span, step=2)
        machine.gather(buf, idx, stream_id=17)
    machine.barrier()
    return machine.snapshot()


_WORKLOADS = {
    "stride_sweep": _stride_sweep,
    "random_gather": _random_gather,
    "wfa_extend": _wfa_extend,
    "fig4_cell": _fig4_cell,
    # The replay workloads run the same kernels with the toggled
    # dimension flipped to interpreted vs recorded-program execution.
    "replay_extend": _replay_extend,
    "replay_ss": _replay_ss,
    # The memvec workload runs the serial per-request hierarchy walk vs
    # the vectorized memory-model engine (pattern replay) on a
    # repeated-pattern gather stream.
    "memvec_gather": _memvec_gather,
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _measure(workload, reps: int, rounds: int = 3, dimension: str = "membatch"):
    """Time one workload on both legs; returns the comparison dict.

    Both legs are warmed first (``warmup_s`` covers that pass, which
    absorbs kernel compiles, calibration-cache loads, and numpy's lazy
    imports), then timed in alternating rounds (serial, batched,
    serial, ...) keeping the best time per leg — interleaving cancels
    slow machine-load drift that would otherwise bias whichever leg ran
    last, and the minimum is the least noise-contaminated sample.
    Within each timed round the codegen meter's kernel-compile seconds
    are subtracted out to give the steady-state times
    (``steady_*_s``/``speedup_steady``) alongside the raw wall-clock
    ones.  ``dimension`` picks which toggle the legs differ in.

    When both legs spend measurable time inside compiled kernels the
    cell additionally reports the *kernel-net* split: per leg, the
    replay meter's in-kernel seconds minus the memory-model seconds
    spent simulating the cache hierarchy inside those kernels — the
    time attributable to the generated code itself.
    ``speedup_kernel`` is their ratio, the number that isolates what a
    codegen backend changed (the hierarchy simulation is shared by all
    backends and would otherwise dilute it).
    """
    legs = _LEGS[dimension]
    warm_start = time.perf_counter()
    for leg in legs:
        with _PathPin(*leg[1:]):
            workload(max(1, reps // 8))  # warm code paths and caches
    warmup_s = time.perf_counter() - warm_start
    timings = {}
    steady = {}
    kernel_net = {}
    mem_model = {}
    kernel_run = {}
    stats = {}
    compile_total = 0.0
    for _ in range(rounds):
        for leg in legs:
            label = leg[0]
            with _PathPin(*leg[1:]):
                compile_before = CODEGEN_METER.compile_s
                meter_before = REPLAY_METER.snapshot()
                start = time.perf_counter()
                stats[label] = workload(reps)
                elapsed = time.perf_counter() - start
                compiled = max(0.0, CODEGEN_METER.compile_s - compile_before)
                meter = REPLAY_METER.delta(meter_before)
            compile_total += compiled
            steady_elapsed = max(elapsed - compiled, 1e-9)
            knet = meter["kernel_run_s"] - meter["mem_model_s"]
            if label not in timings or elapsed < timings[label]:
                timings[label] = elapsed
            if label not in steady or steady_elapsed < steady[label]:
                steady[label] = steady_elapsed
            if label not in kernel_net or knet < kernel_net[label]:
                kernel_net[label] = knet
            # Keep the mem-model seconds and the kernel seconds from
            # the same (best) round so the reported share is internally
            # consistent.
            if label not in mem_model or meter["mem_model_s"] < mem_model[label]:
                mem_model[label] = meter["mem_model_s"]
                kernel_run[label] = meter["kernel_run_s"]
    cell = {
        "dimension": dimension,
        "serial_s": round(timings["serial"], 4),
        "batched_s": round(timings["batched"], 4),
        "speedup": round(timings["serial"] / max(timings["batched"], 1e-9), 3),
        "warmup_s": round(warmup_s, 4),
        "compile_s": round(compile_total, 4),
        "steady_serial_s": round(steady["serial"], 4),
        "steady_batched_s": round(steady["batched"], 4),
        "speedup_steady": round(
            steady["serial"] / max(steady["batched"], 1e-9), 3
        ),
        "stats_identical": stats["serial"] == stats["batched"],
        # Per-leg memory-model seconds and their share of the in-kernel
        # seconds — the quantity the vectorized memory engine shrinks.
        "mem_model_serial_s": round(mem_model["serial"], 4),
        "mem_model_batched_s": round(mem_model["batched"], 4),
        "mem_model_share_serial": round(
            mem_model["serial"] / kernel_run["serial"], 3
        )
        if kernel_run["serial"] > 1e-9
        else 0.0,
        "mem_model_share_batched": round(
            mem_model["batched"] / kernel_run["batched"], 3
        )
        if kernel_run["batched"] > 1e-9
        else 0.0,
    }
    if mem_model["batched"] > 1e-4:
        cell["speedup_mem_model"] = round(
            mem_model["serial"] / mem_model["batched"], 3
        )
    # The kernel-net split only means something when both legs actually
    # ran compiled kernels (an interpreted or meter-resetting leg shows
    # ~0 or garbage) — degenerate cells simply omit the keys.
    if kernel_net["serial"] > 1e-4 and kernel_net["batched"] > 1e-4:
        cell["kernel_serial_s"] = round(kernel_net["serial"], 4)
        cell["kernel_batched_s"] = round(kernel_net["batched"], 4)
        cell["speedup_kernel"] = round(
            kernel_net["serial"] / kernel_net["batched"], 3
        )
    return cell


def run_bench(
    quick: bool = False,
    out: "str | os.PathLike | None" = DEFAULT_OUT,
    only: "list[str] | None" = None,
    dimension: "str | None" = None,
) -> dict:
    """Run the micro-workloads; returns (and optionally writes) the report.

    ``quick`` shrinks every workload's repetition count (the CI smoke
    setting); ``only`` restricts to a subset of workload names;
    ``dimension`` overrides every selected workload's toggled dimension
    (``--dimension backend`` reruns e.g. replay_extend as plain
    generated-numpy vs the process-default backend).
    """
    names = list(_WORKLOADS) if not only else list(only)
    unknown = [n for n in names if n not in _WORKLOADS and n != SERVE_WORKLOAD]
    if unknown:
        raise ReproError(
            f"unknown bench workload(s) {', '.join(unknown)}; "
            f"choose from {', '.join(_WORKLOADS)}, {SERVE_WORKLOAD}"
        )
    if dimension is not None and dimension not in _LEGS:
        raise ReproError(
            f"unknown bench dimension {dimension!r}; "
            f"choose from {', '.join(sorted(_LEGS))}"
        )
    report = {
        "version": __version__,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "serial = the slow leg of each workload's dimension "
            "(per-lane walk, interpreted execution, generated numpy or "
            "the serial hierarchy walk); batched = the fast leg "
            "(access_batch, replay, numpy-opt or memvec); both legs are "
            "checked for bit-identical statistics"
        ),
        "workloads": {},
    }
    for name in names:
        if name == SERVE_WORKLOAD:
            # Service-level workload: not a two-leg toggle comparison,
            # so it bypasses _measure and contributes its own cells
            # (serve_open / serve_sat), shaped for the same render,
            # identity, and regression machinery.
            from repro.serve.bench import serve_bench_cells

            report["workloads"].update(serve_bench_cells(quick=quick))
            continue
        reps = _SCALES[name][1 if quick else 0]
        report["workloads"][name] = {
            "reps": reps,
            **_measure(
                _WORKLOADS[name], reps,
                dimension=dimension or _DIMENSIONS.get(name, "membatch"),
            ),
        }
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
        report["path"] = str(path)
    return report


def check_report(report: dict, gate: str = "stride_sweep") -> "list[str]":
    """CI gate: failures if stats diverge or a gated workload regressed.

    Every replay-, backend- and memvec-dimension workload in the report
    is gated on speedup in addition to ``gate`` — a fast path must never
    make a routed loop slower than its slow leg.
    """
    failures = []
    for name, cell in report["workloads"].items():
        if not cell["stats_identical"]:
            failures.append(
                f"{name}: batched path diverged from serial statistics"
            )
    gated_names = [gate] + sorted(
        name
        for name, cell in report["workloads"].items()
        if cell.get("dimension") in ("replay", "backend", "memvec")
        and name != gate
    )
    for name in gated_names:
        cell = report["workloads"].get(name)
        if cell is None:
            continue
        # Gate on the steady-state ratio when the report carries it:
        # compile time is a warmup charge, not a regression.  Backend
        # cells gate on the kernel-net ratio instead — both legs run
        # the same shared simulator, so only the generated-kernel time
        # carries the backend's signal.
        if cell.get("dimension") == "backend" and "speedup_kernel" in cell:
            speedup = cell["speedup_kernel"]
        else:
            speedup = cell.get("speedup_steady", cell["speedup"])
        if speedup < 1.0:
            failures.append(
                f"{name}: batched path slower than serial "
                f"({cell['batched_s']}s vs {cell['serial_s']}s, "
                f"gated speedup {speedup}x)"
            )
    return failures


def check_regression(
    report: dict, baseline: dict, tolerance: float = 0.10
) -> "list[str]":
    """CI gate: speedups must not regress beyond ``tolerance`` relative
    to a committed baseline report (``results/BENCH_*.json``).

    Only workloads present in both reports are compared; a fresh
    workload with no committed reference cannot fail this gate.  Quick
    runs use smaller repetition counts than the committed full runs, so
    warmup weighs more and speedups land lower — the floor scale is
    therefore *direction-aware*: a quick report judged against a full
    baseline loosens the floor by 0.6 (calibrated against the observed
    quick/full speedup ratios, with noise headroom), while a
    full report judged against a quick baseline tightens it by the
    same factor (the full run should beat the warmup-dominated quick
    number, not hide behind it).
    """
    failures = []
    base = baseline.get("workloads", {})
    rq = bool(report.get("quick"))
    bq = bool(baseline.get("quick"))
    if rq == bq:
        scale = 1.0
    elif rq:  # quick report vs full baseline: loosen the floor
        scale = 0.6
    else:  # full report vs quick baseline: tighten the floor
        scale = 1.0 / 0.6
    for name, cell in report["workloads"].items():
        ref = base.get(name)
        if ref is None:
            continue
        # Compare steady-state speedups when both reports carry them —
        # compile time varies with the kernel-cache temperature and
        # would otherwise dominate the quick-mode ratio.  Backend cells
        # compare kernel-net speedups for the same reason check_report
        # gates them on it.
        if "speedup_kernel" in cell and "speedup_kernel" in ref:
            key = "speedup_kernel"
        elif "speedup_steady" in cell and "speedup_steady" in ref:
            key = "speedup_steady"
        else:
            key = "speedup"
        floor = ref[key] * (1.0 - tolerance) * scale
        if cell[key] < floor:
            failures.append(
                f"{name}: {key} {cell[key]}x regressed more than "
                f"{tolerance:.0%} below the committed {ref[key]}x "
                f"(floor {floor:.2f}x)"
            )
    return failures


def render_report(report: dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"membatch bench (v{report['version']}, "
        f"{'quick' if report['quick'] else 'full'}):",
        f"{'workload':<16} {'reps':>5} {'serial':>9} {'batched':>9} "
        f"{'speedup':>8} {'steady':>8}  stats",
    ]
    for name, cell in report["workloads"].items():
        dim = cell.get("dimension")
        tag = (
            f" ({dim})"
            if dim in ("replay", "backend", "memvec", "serve")
            else ""
        )
        if dim == "serve":
            tag += (
                f" [{cell.get('served_aps', 0)}/{cell.get('offered_aps', 0)} "
                f"aps, p50 {cell.get('p50_ms', 0):.0f}ms "
                f"p99 {cell.get('p99_ms', 0):.0f}ms]"
            )
        kernel = cell.get("speedup_kernel")
        if kernel is not None:
            tag += f" [kernel {kernel:.2f}x]"
        mem = cell.get("speedup_mem_model")
        if mem is not None:
            tag += f" [mem {mem:.2f}x]"
        steady = cell.get("speedup_steady")
        steady_txt = f"{steady:>7.2f}x" if steady is not None else f"{'-':>8}"
        lines.append(
            f"{name:<16} {cell['reps']:>5} {cell['serial_s']:>8.3f}s "
            f"{cell['batched_s']:>8.3f}s {cell['speedup']:>7.2f}x "
            f"{steady_txt}  "
            f"{'identical' if cell['stats_identical'] else 'DIVERGED'}{tag}"
        )
    if "path" in report:
        lines.append(f"[wrote {report['path']}]")
    return "\n".join(lines)


def profile_bench(
    top: int = 20, quick: bool = True, only: "list[str] | None" = None
) -> str:
    """Run each workload once under cProfile; return the top-N report.

    Workloads execute a single rep-scaled pass pinned to the fast leg
    of their own dimension (batched memory and replay on) — the point is
    to see where simulator time goes, not to compare legs.
    """
    import cProfile
    import io
    import pstats

    names = list(_WORKLOADS) if not only else list(only)
    unknown = [n for n in names if n not in _WORKLOADS]
    if unknown:
        raise ReproError(
            f"unknown bench workload(s) {', '.join(unknown)}; "
            f"choose from {', '.join(_WORKLOADS)}"
        )
    chunks = []
    for name in names:
        reps = _SCALES[name][1 if quick else 0]
        profiler = cProfile.Profile()
        fast_leg = _LEGS[_DIMENSIONS.get(name, "membatch")][1]
        with _PathPin(*fast_leg[1:]):
            profiler.enable()
            _WORKLOADS[name](reps)
            profiler.disable()
        sink = io.StringIO()
        stats = pstats.Stats(profiler, stream=sink)
        stats.sort_stats("cumulative").print_stats(top)
        chunks.append(f"== {name} ({reps} reps) ==\n{sink.getvalue().rstrip()}")
    return "\n\n".join(chunks)
