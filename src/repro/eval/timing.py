"""Per-experiment wall-time and cache-hit micro-report.

Every ``--verbose`` CLI run (and any caller using :func:`measure`) gets a
small profile per experiment: wall time, the worker fan-out used by the
parallel engine, the calibration-cache traffic
(:data:`repro.cache.CALIBRATION` hits/misses) attributable to that
experiment, and the replay-engine effectiveness (replayed vs interpreted
instruction counts and the fused-block hit rate from
:data:`repro.vector.program.REPLAY_METER`).  When the replay JIT emitted
kernels inside the window, a codegen segment reports the compile-vs-run
wall-time split (``compile_s`` vs ``kernel_run_s``, with the
memory-hierarchy simulation time ``mem_model_s`` broken out as a share
of wall time), kernel-cache traffic and arena growth.  The point is a
stable baseline for future perf work — the numbers land in one place
instead of being re-derived ad hoc.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.cache import CALIBRATION
from repro.vector.program import REPLAY_METER


@dataclass
class ExperimentTiming:
    """One experiment's wall-time/cache profile."""

    name: str
    jobs: int = 1
    seconds: float = 0.0
    units: int = 0
    workers: int = 0
    cache: "dict[str, int]" = field(default_factory=dict)
    replay: "dict[str, int]" = field(default_factory=dict)
    #: Supervisor counters (restored units, retries, degradation), only
    #: populated when the run executes under ``repro.eval.supervise``.
    supervise: "dict[str, int]" = field(default_factory=dict)
    #: Meter snapshot at window start; refreshed by :func:`note_meter_reset`
    #: when the replay meter is reset mid-window (``evaluate_units`` does
    #: this per run), so the window's delta stays non-negative.
    _replay_before: "dict | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def replay_hit_rate(self) -> float:
        """Fraction of fused blocks replayed (vs interpreted/captured)."""
        r = self.replay or {}
        total = (
            r.get("replayed_blocks", 0)
            + r.get("interpreted_blocks", 0)
            + r.get("captures", 0)
        )
        return r.get("replayed_blocks", 0) / total if total else 0.0

    @property
    def mem_model_share(self) -> float:
        """Share of the experiment's wall time spent inside the memory
        hierarchy.

        The memory-model clock also runs outside replay kernels (the
        interpreter's indexed accesses), so it is a share of wall time,
        never of ``kernel_run_s``."""
        r = self.replay or {}
        return r.get("mem_model_s", 0.0) / self.seconds if self.seconds else 0.0

    @property
    def memvec_replay_rate(self) -> float:
        """Fraction of memoizable batches served by pattern replay."""
        r = self.replay or {}
        total = r.get("memvec_pattern_hits", 0) + r.get(
            "memvec_pattern_misses", 0
        )
        return r.get("memvec_pattern_hits", 0) / total if total else 0.0

    def summary(self) -> str:
        """One-line report, appended to the table footer under --verbose."""
        cache = self.cache or {}
        hits = cache.get("memory_hits", 0) + cache.get("disk_hits", 0)
        replay = self.replay or {}
        return (
            f"{self.name}: {self.seconds:.1f}s | jobs={self.jobs} "
            f"workers={self.workers} units={self.units} | "
            f"calibration cache: {hits} hits "
            f"({cache.get('disk_hits', 0)} from disk), "
            f"{cache.get('misses', 0)} misses | "
            f"replay: {replay.get('replayed_instructions', 0)} instr "
            f"replayed, {replay.get('interpreted_instructions', 0)} "
            f"interpreted, {self.replay_hit_rate:.0%} block hit rate"
            + (
                f" | codegen: "
                f"{replay.get('emissions', 0)} emissions, "
                f"{replay.get('kernel_compiles', 0)} compiles "
                f"({replay.get('compile_s', 0.0):.2f}s), "
                f"{replay.get('kernel_cache_hits', 0)} kernel-cache hits, "
                f"arena +{replay.get('arena_bytes', 0) / 1024:.0f} KiB, "
                f"kernels {replay.get('kernel_run_s', 0.0):.2f}s run "
                f"(mem model {replay.get('mem_model_s', 0.0):.2f}s, "
                f"{self.mem_model_share:.0%} of wall)"
                if replay.get("kernel_cache_hits", 0)
                or replay.get("kernel_compiles", 0)
                else ""
            )
            + (
                f" | memvec: {replay.get('memvec_pattern_hits', 0)} "
                f"pattern replays ({self.memvec_replay_rate:.0%} of "
                f"memoizable batches), "
                f"{replay.get('memvec_patterns_compiled', 0)} compiled, "
                f"{replay.get('memvec_pattern_declined', 0)} declined"
                if replay.get("memvec_pattern_hits", 0)
                or replay.get("memvec_pattern_misses", 0)
                else ""
            )
            + (
                f" | supervise: {self.supervise.get('restored', 0)} restored, "
                f"{self.supervise.get('retries', 0)} retries"
                + (" (degraded)" if self.supervise.get("degraded") else "")
                if self.supervise
                else ""
            )
        )


#: Completed measurements, in execution order (``python -m repro all``).
HISTORY: "list[ExperimentTiming]" = []

_ACTIVE: "list[ExperimentTiming]" = []


@contextmanager
def measure(name: str, jobs: int = 1):
    """Measure one experiment; yields the record being filled.

    Nested measurements are supported (each sees its own cache-counter
    and replay-meter window); the parallel engine reports its fan-out to
    the innermost active record via :func:`note_parallel`.
    """
    record = ExperimentTiming(name=name, jobs=jobs)
    before = CALIBRATION.counters.copy()
    record._replay_before = REPLAY_METER.snapshot()
    _ACTIVE.append(record)
    start = time.perf_counter()
    try:
        yield record
    finally:
        record.seconds = time.perf_counter() - start
        delta = CALIBRATION.counters.delta(before)
        record.cache = {
            "memory_hits": delta.memory_hits,
            "disk_hits": delta.disk_hits,
            "misses": delta.misses,
            "stores": delta.stores,
        }
        record.replay = REPLAY_METER.delta(record._replay_before)
        _ACTIVE.pop()
        HISTORY.append(record)


def reset_run_meters() -> None:
    """Reset every process-global execution meter for a fresh run.

    ``REPLAY_METER.reset()`` cascades to the codegen, memvec, and
    memory-model clocks, and :func:`note_meter_reset` re-anchors any
    open measure windows.  ``evaluate_units`` calls this per run; direct
    ``run_implementation`` callers that live long (the serve engine, a
    REPL) must call it themselves, or meters accumulate across runs and
    report inflated hit rates.
    """
    REPLAY_METER.reset()
    note_meter_reset()


def note_meter_reset() -> None:
    """Called when :data:`REPLAY_METER` is reset mid-measurement (the
    parallel engine resets it per ``evaluate_units`` run): re-anchor every
    active measure window at the fresh zero state so deltas don't go
    negative and the window reports only post-reset activity."""
    if _ACTIVE:
        snap = REPLAY_METER.snapshot()
        for record in _ACTIVE:
            record._replay_before = snap


def note_parallel(units: int, workers: int) -> None:
    """Called by the parallel engine: record fan-out on the active measure."""
    if _ACTIVE:
        record = _ACTIVE[-1]
        record.units += units
        record.workers = max(record.workers, workers)


def note_supervise(restored: int, retries: int, degraded: bool) -> None:
    """Called by the supervisor: record recovery activity on the active
    measure (cumulative totals for the supervisor's run so far)."""
    if _ACTIVE:
        record = _ACTIVE[-1]
        record.supervise = {
            "restored": restored,
            "retries": retries,
            "degraded": int(degraded),
        }


def render_report(records: "list[ExperimentTiming] | None" = None) -> str:
    """Multi-experiment summary table (the ``all`` run footer)."""
    from repro.eval.reporting import render_table

    records = HISTORY if records is None else records
    if not records:
        return "(no timing records)"
    rows = [
        {
            "experiment": r.name,
            "seconds": r.seconds,
            "jobs": r.jobs,
            "workers": r.workers,
            "units": r.units,
            "calib_hits": r.cache.get("memory_hits", 0)
            + r.cache.get("disk_hits", 0),
            "calib_disk_hits": r.cache.get("disk_hits", 0),
            "calib_misses": r.cache.get("misses", 0),
            "replay_instr": r.replay.get("replayed_instructions", 0),
            "interp_instr": r.replay.get("interpreted_instructions", 0),
            "replay_hit_rate": round(r.replay_hit_rate, 3),
            "kernel_compiles": r.replay.get("kernel_compiles", 0),
            "kcache_hits": r.replay.get("kernel_cache_hits", 0),
            "kernel_run_s": round(r.replay.get("kernel_run_s", 0.0), 2),
            "mem_model_s": round(r.replay.get("mem_model_s", 0.0), 2),
            "mem_share": round(r.mem_model_share, 3),
            "memvec_replays": r.replay.get("memvec_pattern_hits", 0),
        }
        for r in records
    ]
    return render_table(rows, "Timing report")
