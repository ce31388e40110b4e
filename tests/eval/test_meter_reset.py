"""Regression tests for per-run meter reset.

The process-global meters (replay, codegen, memvec, memory-model clock)
must start every run from zero: ``evaluate_units`` resets them per CLI
run, and :func:`repro.serve.engine.compute_batch` per serve batch —
both through :func:`repro.eval.timing.reset_run_meters`.  The original
bug: direct ``run_implementation`` callers (a long-lived serve process,
a REPL) accumulated ``CODEGEN_METER`` counts across runs, so hit rates
and compile counts reported inflated numbers.
"""

import pytest

from repro.align.vectorized import SsVec
from repro.eval import timing
from repro.eval.runner import run_implementation
from repro.genomics.generator import ErrorProfile, ReadPairGenerator
from repro.serve.engine import compute_batch
from repro.serve.protocol import AlignRequest
from repro.vector.backends import CODEGEN_METER
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER

#: Count-valued snapshot keys that must be per-run reproducible (wall
#: times and arena sizes excluded — they are not counts).
COUNT_KEYS = (
    "captures", "replayed_blocks", "interpreted_blocks", "broken",
    "total_blocks", "replayed_instructions", "interpreted_instructions",
    "kernel_cache_hits", "kernel_compiles",
    "emissions", "memvec_pattern_hits", "memvec_pattern_misses",
)


def counts():
    snap = REPLAY_METER.snapshot()
    return {key: snap[key] for key in COUNT_KEYS}


def make_batch(n=2):
    gen = ReadPairGenerator(48, ErrorProfile(0.02, 0.005, 0.005), seed=9)
    return tuple(gen.pairs(n))


def make_requests(n=2):
    return [
        AlignRequest(id=f"m{i}", tenant="t", impl="ss-vec",
                     pattern=str(pair.pattern), text=str(pair.text))
        for i, pair in enumerate(make_batch(n))
    ]


@pytest.fixture
def replay_on(monkeypatch):
    monkeypatch.setattr(VectorMachine, "use_batched_memory", True)
    monkeypatch.setattr(VectorMachine, "use_replay", True)


def test_reset_run_meters_clears_codegen(replay_on):
    """The cascade must reach the codegen meter, not just the replay
    counters."""
    run_implementation(SsVec(), make_batch())
    assert REPLAY_METER.total_blocks > 0
    timing.reset_run_meters()
    assert REPLAY_METER.total_blocks == 0
    assert CODEGEN_METER.kernel_cache_hits == 0
    assert CODEGEN_METER.kernel_compiles == 0
    assert CODEGEN_METER.compile_s == 0.0


def test_compute_batch_meters_each_run_from_zero(replay_on):
    """Back-to-back serve batches must report identical per-run counts:
    without the reset, every counter would grow monotonically."""
    requests = make_requests()
    compute_batch(requests, 1)  # warm caches (kernel cache is global)
    compute_batch(requests, 1)
    first = counts()
    compute_batch(requests, 1)
    second = counts()
    assert first["total_blocks"] > 0
    assert second == first


def test_compute_batch_discards_stale_meter_state(replay_on):
    """The regression scenario: a long-lived process with garbage in the
    codegen meter must not leak it into the next batch's numbers."""
    requests = make_requests()
    compute_batch(requests, 1)
    clean = counts()
    CODEGEN_METER.kernel_cache_hits += 9999
    REPLAY_METER.total_blocks += 12345
    compute_batch(requests, 1)
    assert counts() == clean


def test_direct_runs_accumulate_without_reset(replay_on):
    """Documents the contract: bare ``run_implementation`` does NOT
    reset meters — long-lived callers must do it per run, which is
    exactly what compute_batch / evaluate_units do."""
    batch = make_batch()
    run_implementation(SsVec(), batch)  # warm caches
    timing.reset_run_meters()
    run_implementation(SsVec(), batch)
    once = counts()
    run_implementation(SsVec(), batch)
    twice = counts()
    assert once["total_blocks"] > 0
    for key in COUNT_KEYS:
        assert twice[key] == 2 * once[key], key
