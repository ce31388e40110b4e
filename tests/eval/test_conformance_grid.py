"""Cross-configuration conformance grid.

Every execution-mode toggle grown since the seed — the batched
memory-hierarchy fast path, the recorded-program replay engine, the
event tracer, and process-pool fan-out — promises bit-identical
results.  This suite enforces the promise as a full cross-product: for
each implementation family (WFA extension, SneakySnake filtering, and
the QUETZAL-accelerated DP kernel), every cell of

    {use_batched_memory} x {use_replay} x {trace on/off} x {jobs 1/2}

must reproduce the all-off serial baseline exactly — same per-pair
cycle counts, same merged machine statistics (cache hits, prefetch
accuracy, DRAM traffic, ...), same alignment outputs.  This base grid
also runs the QBUFFER window path (``wfa-qz``: ``qzload`` windows) and
the count-ALU paths (``biwfa-qzc``: ``qzmhm`` count and rcount).

A divergence-heavy batch (mixed lengths and error rates, so pairs
finish at very different iteration counts and DP pairs open and close
with gaps) gets its own axis: for every base-grid family, every cell of

    {use_batched_memory} x {use_replay} x {trace on/off} x {jobs 1/2}

must reproduce the all-off serial baseline of that batch.  Every cell
of every axis additionally asserts the replay meter's conservation
invariant: captures + replayed + interpreted + broken must equal the
total metered block executions.

The shard plan adds a third axis.  Pairs that share a machine see each
other's cache state, so the plans are compared plan by plan: every cell
of

    {whole batch on one machine, 2-pair shards, 4-pair shards}
        x {use_batched_memory} x {use_replay}

run across two worker processes must reproduce the all-off serial run
of the same plan, on both batch kinds.  The whole-batch plan is the one
the figure commands run.

The codegen backends add a fourth axis: with replay and batched memory
on, every registered backend name in

    {numpy, numpy-opt, numba} x {jobs 1/2}

must reproduce the baseline on both batch kinds (the standard batch
and the divergence-heavy one); the pooled cells run every backend's
generated code inside forked workers too.  The ``numba`` cells
run even when numba is not importable — the documented behaviour is a
metered fallback to ``numpy-opt``, so with the dependency absent those
cells double as proof that the fallback is bit-exact.

The vectorized memory-model engine adds a fifth axis: every cell of

    {use_vectorized_memory} x {use_batched_memory} x {jobs 1/2}

with replay on must reproduce the baseline on both batch kinds — the
memvec engines (pattern memoization, phase-split retirement) sit
underneath the batched hierarchy paths, so that is the axis that can
disturb them; the pooled cells run the memvec engines inside forked
workers too.

The alignment service adds a sixth axis: every cell of

    {one batch, one batch per request} x {jit backend numpy/numpy-opt}

executed through the serve engine (parsed requests, the production
serve toggles: replay + batched memory on) must produce response
records byte-identical to the ones derived from the all-off interpreted
serial baseline, on both batch kinds.  Each pair runs on its own fresh
machine, so a response must not depend on what it was batched with.

All cells outside the shard axis (including the baseline) run
``shard_size=1`` so the shard plan — the unit of determinism — is
common to every jobs value; fresh machines per pair make the serial
and pooled walks directly comparable.  ``jobs=2`` cells need the fork
start method so that the monkeypatched class toggles reach the
workers; they are skipped where only spawn exists.
"""

import itertools
import multiprocessing

import pytest

from repro.align.quetzal_impl import BiwfaQzc, KswQz, WfaQz
from repro.align.vectorized import SsVec, WfaVec
from repro.eval import records
from repro.eval.runner import run_implementation
from repro.memory.hierarchy import MemoryHierarchy
from repro.genomics.generator import ErrorProfile, ReadPairGenerator
from repro.vector.backends import BACKEND_NAMES
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

IMPLS = {"wfa-vec": WfaVec, "ss-vec": SsVec, "ksw-qz": KswQz}
#: The base grid's families: IMPLS plus the QBUFFER window and count-ALU
#: read paths (the other axes keep to IMPLS).
BASE_IMPLS = {**IMPLS, "wfa-qz": WfaQz, "biwfa-qzc": BiwfaQzc}

#: (use_batched_memory, use_replay, trace, jobs) — the full grid.
GRID = list(itertools.product((False, True), (False, True), (False, True), (1, 2)))
BASELINE = (False, False, False, 1)


def pairs(n=2, length=64, seed=11):
    gen = ReadPairGenerator(length, ErrorProfile(0.02, 0.005, 0.005), seed=seed)
    return tuple(gen.pairs(n))


def signature(result):
    """Everything a cell must reproduce, in comparable form."""
    return (
        [p.cycles for p in result.pair_results],
        [p.instructions for p in result.pair_results],
        records.machine_record(result.stats()),
        result.outputs,
    )


def assert_meter_conserved():
    """Op-exact accounting: every metered block execution must land in
    exactly one outcome bucket.  ``evaluate_units`` resets the meter at
    run entry, so the absolute post-run counts are this run's counts."""
    m = REPLAY_METER
    assert (
        m.captures + m.replayed_blocks + m.interpreted_blocks + m.broken
        == m.total_blocks
    ), f"meter conservation violated: {REPLAY_METER.snapshot()}"


def run_cell(impl_cls, batch, use_batched_memory, use_replay, trace, jobs,
             shard_size=1):
    """One grid cell, with the toggles as class state.

    Class attributes (not instance state) are what worker processes
    inherit under fork, so this exercises exactly the production
    propagation path; ``auto_trace`` mirrors the ``REPRO_TRACE``
    environment knob.  The default ``shard_size=1`` puts every pair on
    a fresh machine.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "use_batched_memory", use_batched_memory)
        mp.setattr(VectorMachine, "use_replay", use_replay)
        mp.setattr(VectorMachine, "auto_trace", trace)
        sig = signature(
            run_implementation(
                impl_cls(), batch, jobs=jobs, shard_size=shard_size
            )
        )
        assert_meter_conserved()
        return sig


def assert_matches(got, expected):
    assert got[0] == expected[0], "per-pair cycle counts diverged"
    assert got[1] == expected[1], "per-pair instruction counts diverged"
    assert got[2] == expected[2], "machine statistics diverged"
    assert got[3] == expected[3], "alignment outputs diverged"


_baselines: dict = {}
_batches: dict = {}


def baseline_for(name):
    """All-off serial reference signature, computed once per family."""
    if name not in _baselines:
        _batches[name] = pairs()
        _baselines[name] = run_cell(BASE_IMPLS[name], _batches[name], *BASELINE)
    return _baselines[name]


def cell_id(cell):
    return (
        f"{'batched' if cell[0] else 'serialmem'}-"
        f"{'replay' if cell[1] else 'interp'}-"
        f"{'trace' if cell[2] else 'notrace'}-j{cell[3]}"
    )


@pytest.mark.parametrize("name", sorted(BASE_IMPLS))
@pytest.mark.parametrize("cell", GRID, ids=cell_id)
def test_cell_matches_baseline(name, cell):
    batched, replay, trace, jobs = cell
    if jobs > 1 and not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = baseline_for(name)
    got = run_cell(BASE_IMPLS[name], _batches[name], batched, replay, trace, jobs)
    assert_matches(got, expected)


def divergent_pairs():
    """Mixed lengths and error rates: pairs finish at very different
    iteration counts.  Indels are included, so DP pairs open and close
    with gaps."""
    out = []
    for length, err, seed in ((48, 0.08, 3), (96, 0.01, 5), (160, 0.15, 7)):
        gen = ReadPairGenerator(
            length, ErrorProfile(err * 0.6, err * 0.2, err * 0.2), seed=seed
        )
        out.extend(gen.pairs(2))
    return tuple(out)


_kind_baselines: dict = {}
_kind_batches: dict = {}


def kind_baseline_for(name, kind):
    """All-off serial (fresh machine per pair) reference per batch kind."""
    key = (name, kind)
    if key not in _kind_baselines:
        batch = pairs() if kind == "standard" else divergent_pairs()
        _kind_batches[key] = batch
        _kind_baselines[key] = run_cell(BASE_IMPLS[name], batch, *BASELINE)
    return _kind_baselines[key]


#: The divergent-batch axis runs the base grid's cells on that batch.
@pytest.mark.parametrize("name", sorted(BASE_IMPLS))
@pytest.mark.parametrize("cell", GRID, ids=cell_id)
def test_divergent_cell_matches_baseline(name, cell):
    batched, replay, trace, jobs = cell
    if jobs > 1 and not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = kind_baseline_for(name, "divergent")
    got = run_cell(
        BASE_IMPLS[name], _kind_batches[(name, "divergent")],
        batched, replay, trace, jobs,
    )
    assert_matches(got, expected)


#: (shard_size, use_batched_memory, use_replay) — the shard-plan axis,
#: run across two workers.  ``None`` is the whole batch on one machine.
SHARD_GRID = list(itertools.product((None, 2, 4), (False, True), (False, True)))

_shard_baselines: dict = {}


def shard_baseline_for(name, kind, shard_size):
    """All-off serial reference of one shard plan: pairs inside a shard
    share a machine, so each plan has its own cycle counts."""
    key = (name, kind, shard_size)
    if key not in _shard_baselines:
        kind_baseline_for(name, kind)  # materialize _kind_batches
        _shard_baselines[key] = run_cell(
            IMPLS[name], _kind_batches[(name, kind)], *BASELINE,
            shard_size=shard_size,
        )
    return _shard_baselines[key]


def shard_cell_id(cell):
    return (
        f"{'whole' if cell[0] is None else f'shard{cell[0]}'}-"
        f"{'batched' if cell[1] else 'serialmem'}-"
        f"{'replay' if cell[2] else 'interp'}"
    )


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", SHARD_GRID, ids=shard_cell_id)
def test_shard_cell_matches_baseline(name, cell, kind):
    shard_size, batched, replay = cell
    if not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = shard_baseline_for(name, kind, shard_size)
    got = run_cell(
        IMPLS[name], _kind_batches[(name, kind)],
        batched, replay, False, 2, shard_size=shard_size,
    )
    assert_matches(got, expected)


#: (jit backend, jobs) — replay + batched memory on throughout.  The
#: backend choice is class state that forked workers inherit, so the
#: pooled cells run each backend's kernels inside the workers.
BACKEND_GRID = list(itertools.product(BACKEND_NAMES, (1, 2)))


def backend_cell_id(cell):
    return f"{cell[0]}-j{cell[1]}"


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", BACKEND_GRID, ids=backend_cell_id)
def test_backend_cell_matches_baseline(name, cell, kind):
    backend, jobs = cell
    if jobs > 1 and not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = kind_baseline_for(name, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "jit_backend", backend)
        got = run_cell(
            IMPLS[name], _kind_batches[(name, kind)], True, True, False, jobs,
        )
    assert_matches(got, expected)


#: (use_vectorized_memory, use_batched_memory, jobs) — replay on
#: throughout: the memvec engines sit underneath the batched hierarchy
#: paths, so that is the axis that can disturb them; the pooled cells
#: run the memvec engines inside forked workers, which inherit the
#: toggle from ``MemoryHierarchy`` rather than ``VectorMachine``.
MEMVEC_GRID = list(itertools.product((False, True), (False, True), (1, 2)))


def memvec_cell_id(cell):
    return (
        f"{'memvec' if cell[0] else 'serialwalk'}-"
        f"{'batched' if cell[1] else 'serialmem'}-j{cell[2]}"
    )


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", MEMVEC_GRID, ids=memvec_cell_id)
def test_memvec_cell_matches_baseline(name, cell, kind):
    memvec, batched, jobs = cell
    if jobs > 1 and not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = kind_baseline_for(name, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryHierarchy, "use_vectorized_memory", memvec)
        got = run_cell(
            IMPLS[name], _kind_batches[(name, kind)], batched, True, False,
            jobs,
        )
    assert_matches(got, expected)


#: (batching, jit backend) — the serve axis: the alignment service's
#: compute path (AlignRequest -> ServeEngine -> per-request response
#: records) must land byte-for-byte on the same per-pair results as the
#: all-off interpreted serial baseline, with replay and batched memory
#: on — the production serve configuration — under each generated-code
#: backend, whether the requests arrive as one batch or one batch each.
SERVE_GRID = list(itertools.product(("batch", "single"), ("numpy", "numpy-opt")))


def serve_requests(name, kind):
    """A grid batch re-expressed as parsed serve requests.

    Reconstructed pairs drop generator metadata (``edits_applied``), so
    a passing cell additionally proves execution never reads it.
    """
    from repro.serve.protocol import AlignRequest

    kind_baseline_for(name, kind)  # materialize _kind_batches[key]
    return [
        AlignRequest(
            id=f"g{i:02d}", tenant="grid", impl=name,
            pattern=str(pair.pattern), text=str(pair.text),
        )
        for i, pair in enumerate(_kind_batches[(name, kind)])
    ]


_serve_expected: dict = {}


def serve_expected_lines(name, kind):
    """Canonical response lines derived from the all-off interpreted
    serial baseline (fresh machine per pair via ``shard_size=1``) — the
    strongest form of the identity contract: per-request byte identity
    including each pair's full machine statistics."""
    key = (name, kind)
    if key not in _serve_expected:
        from repro.serve.protocol import canonical_encode, response_record

        requests = serve_requests(name, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_batched_memory", False)
            mp.setattr(VectorMachine, "use_replay", False)
            mp.setattr(VectorMachine, "auto_trace", False)
            result = run_implementation(
                IMPLS[name](), _kind_batches[key], shard_size=1
            )
        _serve_expected[key] = [
            canonical_encode(response_record(request, pair_result))
            for request, pair_result in zip(requests, result.pair_results)
        ]
    return _serve_expected[key]


def serve_cell_id(cell):
    return f"{cell[0]}-{cell[1]}"


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", SERVE_GRID, ids=serve_cell_id)
def test_serve_cell_matches_baseline(name, cell, kind):
    from repro.serve.engine import ServeEngine, ServeEngineConfig
    from repro.serve.protocol import canonical_encode

    batching, backend = cell
    expected = kind_baseline_for(name, kind)
    expected_lines = serve_expected_lines(name, kind)
    requests = serve_requests(name, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "jit_backend", backend)
        mp.setattr(VectorMachine, "use_batched_memory", True)
        mp.setattr(VectorMachine, "use_replay", True)
        engine = ServeEngine(ServeEngineConfig(workers=0))
        if batching == "batch":
            responses = engine.execute_batch(requests)
        else:
            responses = [
                response
                for request in requests
                for response in engine.execute_batch([request])
            ]
        assert_meter_conserved()
    assert engine.errors == 0
    assert all(r["status"] == "ok" for r in responses)
    # Byte identity per request against the interpreted serial baseline.
    got_lines = [canonical_encode(r) for r in responses]
    assert got_lines == expected_lines, "serve responses diverged byte-wise"
    # Anchor to the shared batch-kind baseline signature too, tying this
    # axis to every other cell that reproduces the same reference.
    assert [r["cycles"] for r in responses] == expected[0]
    assert [r["instructions"] for r in responses] == expected[1]
    assert [r["output"] for r in responses] == [repr(o) for o in expected[3]]


@pytest.mark.parametrize("name", sorted(BASE_IMPLS))
def test_baseline_is_nontrivial(name):
    """The reference itself must do real work, or the grid proves nothing."""
    sig = baseline_for(name)
    assert all(c > 0 for c in sig[0])
    assert sig[2]["cycles"] > 0
    assert sig[2]["mem"]["requests"] > 0
