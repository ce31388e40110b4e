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

The membatch workloads compare ``use_batched_memory`` off vs on (replay
pinned off on both legs so it cannot blur the comparison); the replay
workloads compare ``use_replay`` off vs on with batched memory pinned
on.  In every cell ``serial_s`` is the slow leg and ``batched_s`` the
fast leg, whatever the toggled dimension.

Every cell also reports the memory-model split (``mem_model_serial_s``
/ ``mem_model_batched_s`` and their share of the corresponding
``kernel_run_s``): the seconds each leg spent simulating the cache
hierarchy.  ``speedup_mem_model`` is their ratio whenever the fast
leg's share is measurable.

Each cell also splits wall-clock into compile and steady-state time:
``steady_serial_s``/``steady_batched_s`` subtract the codegen meter's
kernel-compile seconds from each timed round, and ``speedup_steady``
compares only those — the number :func:`check_regression` gates on,
since compile cost is a one-time warmup charge the kernel cache
amortises away across processes.
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
}

#: Workload name -> toggled dimension ("membatch" unless listed).
_DIMENSIONS = {
    "replay_extend": "replay",
    "replay_ss": "replay",
}

#: dimension -> ((slow label, batched, replay), (fast ...)).
_LEGS = {
    "membatch": (("serial", False, False), ("batched", True, False)),
    "replay": (("serial", True, False), ("batched", True, True)),
}


class _PathPin:
    """Context manager pinning the class-wide execution-path defaults."""

    def __init__(self, batched: bool, replay: bool) -> None:
        self.batched = batched
        self.replay = replay

    def __enter__(self) -> None:
        self._saved = (
            VectorMachine.use_batched_memory,
            VectorMachine.use_replay,
        )
        VectorMachine.use_batched_memory = self.batched
        VectorMachine.use_replay = self.replay

    def __exit__(self, *exc) -> None:
        (
            VectorMachine.use_batched_memory,
            VectorMachine.use_replay,
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


_WORKLOADS = {
    "stride_sweep": _stride_sweep,
    "random_gather": _random_gather,
    "wfa_extend": _wfa_extend,
    "fig4_cell": _fig4_cell,
    # The replay workloads run the same kernels with the toggled
    # dimension flipped to interpreted vs recorded-program execution.
    "replay_extend": _replay_extend,
    "replay_ss": _replay_ss,
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
    """
    legs = _LEGS[dimension]
    warm_start = time.perf_counter()
    for leg in legs:
        with _PathPin(*leg[1:]):
            workload(max(1, reps // 8))  # warm code paths and caches
    warmup_s = time.perf_counter() - warm_start
    timings = {}
    steady = {}
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
            if label not in timings or elapsed < timings[label]:
                timings[label] = elapsed
            if label not in steady or steady_elapsed < steady[label]:
                steady[label] = steady_elapsed
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
        # seconds.
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
    return cell


def run_bench(
    quick: bool = False,
    out: "str | os.PathLike | None" = DEFAULT_OUT,
    only: "list[str] | None" = None,
) -> dict:
    """Run the micro-workloads; returns (and optionally writes) the report.

    ``quick`` shrinks every workload's repetition count (the CI smoke
    setting); ``only`` restricts to a subset of workload names.
    """
    names = list(_WORKLOADS) if not only else list(only)
    unknown = [n for n in names if n not in _WORKLOADS and n != SERVE_WORKLOAD]
    if unknown:
        raise ReproError(
            f"unknown bench workload(s) {', '.join(unknown)}; "
            f"choose from {', '.join(_WORKLOADS)}, {SERVE_WORKLOAD}"
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
            "(per-lane walk or interpreted execution); batched = the fast "
            "leg (access_batch or replay); both legs are checked for "
            "bit-identical statistics"
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
                dimension=_DIMENSIONS.get(name, "membatch"),
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

    Every replay-dimension workload in the report is gated on speedup in
    addition to ``gate`` — a fast path must never make a routed loop
    slower than its slow leg.
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
        if cell.get("dimension") == "replay" and name != gate
    )
    for name in gated_names:
        cell = report["workloads"].get(name)
        if cell is None:
            continue
        # Gate on the steady-state ratio when the report carries it:
        # compile time is a warmup charge, not a regression.
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
        # would otherwise dominate the quick-mode ratio.
        if "speedup_steady" in cell and "speedup_steady" in ref:
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
        tag = f" ({dim})" if dim in ("replay", "serve") else ""
        if dim == "serve":
            tag += (
                f" [{cell.get('served_aps', 0)}/{cell.get('offered_aps', 0)} "
                f"aps, p50 {cell.get('p50_ms', 0):.0f}ms "
                f"p99 {cell.get('p99_ms', 0):.0f}ms]"
            )
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
