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

The fleet executor adds its own axis: every cell of

    {fleet 1/2/4} x {use_batched_memory} x {use_replay}

must also reproduce that baseline, on the standard batch and on a
divergence-heavy batch (mixed lengths and error rates, so fleet rows
retire from fused groups at different rounds and regroup).

The trace-tree JIT adds a third axis: every cell of

    {use_trace_trees} x {use_batched_memory} x {jobs 1/2}

with replay on must reproduce the baseline on both batch kinds — the
divergence-heavy batch is the one that actually takes side exits and
compiles child traces.  Every cell additionally asserts the replay
meter's conservation invariant: captures + replayed + interpreted +
broken must equal the total metered block executions.

The codegen backends add a fourth axis: with replay and batched memory
on, every registered backend name in

    {numpy, numpy-opt, numba} x {use_trace_trees}

must reproduce the baseline on both batch kinds.  The ``numba`` cells
run even when numba is not importable — the documented behaviour is a
metered fallback to ``numpy-opt``, so with the dependency absent those
cells double as proof that the fallback is bit-exact.

The vectorized memory-model engine adds a fifth axis: every cell of

    {use_vectorized_memory} x {use_batched_memory} x {fleet 1/4}

with replay on must reproduce the baseline on both batch kinds — the
memvec engines (pattern memoization, phase-split retirement, the fleet
fallback coalescing) sit underneath the batched hierarchy paths and
the fleet executor, so those are the axes that can disturb them.

The alignment service adds a sixth axis: every cell of

    {fleet 1/4} x {jit backend numpy/numpy-opt}

executed through the serve engine (parsed requests, the production
serve toggles: replay + batched memory on) must produce response
records byte-identical to the ones derived from the all-off interpreted
serial baseline, on both batch kinds.

All cells (including the baseline) run ``shard_size=1`` so the shard
plan — the unit of determinism — is common to every jobs value; fresh
machines per pair make the serial and pooled walks directly
comparable.  ``jobs=2`` cells need the fork start method so that the
monkeypatched class toggles reach the workers; they are skipped where
only spawn exists.
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
             trees=None):
    """One grid cell on fresh machines, with the toggles as class state.

    Class attributes (not instance state) are what worker processes
    inherit under fork, so this exercises exactly the production
    propagation path; ``auto_trace`` mirrors the ``REPRO_TRACE``
    environment knob.  ``trees=None`` leaves ``use_trace_trees`` at the
    process default.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "use_batched_memory", use_batched_memory)
        mp.setattr(VectorMachine, "use_replay", use_replay)
        mp.setattr(VectorMachine, "auto_trace", trace)
        if trees is not None:
            mp.setattr(VectorMachine, "use_trace_trees", trees)
        sig = signature(
            run_implementation(impl_cls(), batch, jobs=jobs, shard_size=1)
        )
        assert_meter_conserved()
        return sig


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
    assert got[0] == expected[0], "per-pair cycle counts diverged"
    assert got[1] == expected[1], "per-pair instruction counts diverged"
    assert got[2] == expected[2], "machine statistics diverged"
    assert got[3] == expected[3], "alignment outputs diverged"


#: (fleet width, use_batched_memory, use_replay) — the fleet axis.
FLEET_GRID = list(itertools.product((1, 2, 4), (False, True), (False, True)))


def divergent_pairs():
    """Mixed lengths and error rates: pairs finish at very different
    iteration counts, so fleet rows retire mid-group and the scheduler
    re-buckets the survivors — the hard case for per-pair retirement.
    Indels are included, so DP pairs open and close with gaps."""
    out = []
    for length, err, seed in ((48, 0.08, 3), (96, 0.01, 5), (160, 0.15, 7)):
        gen = ReadPairGenerator(
            length, ErrorProfile(err * 0.6, err * 0.2, err * 0.2), seed=seed
        )
        out.extend(gen.pairs(2))
    return tuple(out)


_fleet_baselines: dict = {}
_fleet_batches: dict = {}


def fleet_baseline_for(name, kind):
    """All-off serial (fresh machine per pair) reference per batch kind."""
    key = (name, kind)
    if key not in _fleet_baselines:
        batch = pairs() if kind == "standard" else divergent_pairs()
        _fleet_batches[key] = batch
        _fleet_baselines[key] = run_cell(IMPLS[name], batch, *BASELINE)
    return _fleet_baselines[key]


def run_fleet_cell(impl_cls, batch, fleet, use_batched_memory, use_replay):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "use_batched_memory", use_batched_memory)
        mp.setattr(VectorMachine, "use_replay", use_replay)
        sig = signature(run_implementation(impl_cls(), batch, fleet=fleet))
        assert_meter_conserved()
        return sig


def fleet_cell_id(cell):
    return (
        f"fleet{cell[0]}-"
        f"{'batched' if cell[1] else 'serialmem'}-"
        f"{'replay' if cell[2] else 'interp'}"
    )


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", FLEET_GRID, ids=fleet_cell_id)
def test_fleet_cell_matches_baseline(name, cell, kind):
    fleet, batched, replay = cell
    expected = fleet_baseline_for(name, kind)
    got = run_fleet_cell(
        IMPLS[name], _fleet_batches[(name, kind)], fleet, batched, replay
    )
    assert got[0] == expected[0], "per-pair cycle counts diverged"
    assert got[1] == expected[1], "per-pair instruction counts diverged"
    assert got[2] == expected[2], "machine statistics diverged"
    assert got[3] == expected[3], "alignment outputs diverged"


#: (use_trace_trees, use_batched_memory, jobs) — replay on throughout.
TREE_GRID = list(itertools.product((False, True), (False, True), (1, 2)))


def tree_cell_id(cell):
    return (
        f"{'trees' if cell[0] else 'notrees'}-"
        f"{'batched' if cell[1] else 'serialmem'}-j{cell[2]}"
    )


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", TREE_GRID, ids=tree_cell_id)
def test_tracetree_cell_matches_baseline(name, cell, kind):
    trees, batched, jobs = cell
    if jobs > 1 and not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = fleet_baseline_for(name, kind)
    got = run_cell(
        IMPLS[name], _fleet_batches[(name, kind)],
        batched, True, False, jobs, trees=trees,
    )
    assert got[0] == expected[0], "per-pair cycle counts diverged"
    assert got[1] == expected[1], "per-pair instruction counts diverged"
    assert got[2] == expected[2], "machine statistics diverged"
    assert got[3] == expected[3], "alignment outputs diverged"


#: (jit backend, use_trace_trees) — replay + batched memory on
#: throughout, jobs=1 (backend choice is per-process state; the pooled
#: propagation path is already covered by the other axes).
BACKEND_GRID = list(itertools.product(BACKEND_NAMES, (False, True)))


def backend_cell_id(cell):
    return f"{cell[0]}-{'trees' if cell[1] else 'notrees'}"


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", BACKEND_GRID, ids=backend_cell_id)
def test_backend_cell_matches_baseline(name, cell, kind):
    backend, trees = cell
    expected = fleet_baseline_for(name, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "jit_backend", backend)
        got = run_cell(
            IMPLS[name], _fleet_batches[(name, kind)],
            True, True, False, 1, trees=trees,
        )
    assert got[0] == expected[0], "per-pair cycle counts diverged"
    assert got[1] == expected[1], "per-pair instruction counts diverged"
    assert got[2] == expected[2], "machine statistics diverged"
    assert got[3] == expected[3], "alignment outputs diverged"


#: (use_vectorized_memory, use_batched_memory, fleet width) — replay on
#: throughout: the memvec engines sit underneath the batched hierarchy
#: paths and the fleet fallback, so those are the axes that can disturb
#: them.
MEMVEC_GRID = list(itertools.product((False, True), (False, True), (1, 4)))


def memvec_cell_id(cell):
    return (
        f"{'memvec' if cell[0] else 'serialwalk'}-"
        f"{'batched' if cell[1] else 'serialmem'}-fleet{cell[2]}"
    )


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", MEMVEC_GRID, ids=memvec_cell_id)
def test_memvec_cell_matches_baseline(name, cell, kind):
    memvec, batched, fleet = cell
    expected = fleet_baseline_for(name, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryHierarchy, "use_vectorized_memory", memvec)
        mp.setattr(VectorMachine, "use_batched_memory", batched)
        mp.setattr(VectorMachine, "use_replay", True)
        got = signature(
            run_implementation(
                IMPLS[name](), _fleet_batches[(name, kind)], fleet=fleet
            )
        )
        assert_meter_conserved()
    assert got[0] == expected[0], "per-pair cycle counts diverged"
    assert got[1] == expected[1], "per-pair instruction counts diverged"
    assert got[2] == expected[2], "machine statistics diverged"
    assert got[3] == expected[3], "alignment outputs diverged"


#: (fleet width, jit backend) — the serve axis: the alignment service's
#: compute path (AlignRequest -> ServeEngine -> per-request response
#: records) must land byte-for-byte on the same per-pair results as the
#: all-off interpreted serial baseline, with replay and batched memory
#: on — the production serve configuration.
SERVE_GRID = list(itertools.product((1, 4), ("numpy", "numpy-opt")))


def serve_requests(name, kind):
    """The fleet batch re-expressed as parsed serve requests.

    Reconstructed pairs drop generator metadata (``edits_applied``), so
    a passing cell additionally proves execution never reads it.
    """
    from repro.serve.protocol import AlignRequest

    fleet_baseline_for(name, kind)  # materialize _fleet_batches[key]
    return [
        AlignRequest(
            id=f"g{i:02d}", tenant="grid", impl=name,
            pattern=str(pair.pattern), text=str(pair.text),
        )
        for i, pair in enumerate(_fleet_batches[(name, kind)])
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
                IMPLS[name](), _fleet_batches[key], shard_size=1
            )
        _serve_expected[key] = [
            canonical_encode(response_record(request, pair_result))
            for request, pair_result in zip(requests, result.pair_results)
        ]
    return _serve_expected[key]


def serve_cell_id(cell):
    return f"fleet{cell[0]}-{cell[1]}"


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", SERVE_GRID, ids=serve_cell_id)
def test_serve_cell_matches_baseline(name, cell, kind):
    from repro.serve.engine import ServeEngine, ServeEngineConfig
    from repro.serve.protocol import canonical_encode

    fleet, backend = cell
    expected = fleet_baseline_for(name, kind)
    expected_lines = serve_expected_lines(name, kind)
    requests = serve_requests(name, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "jit_backend", backend)
        mp.setattr(VectorMachine, "use_batched_memory", True)
        mp.setattr(VectorMachine, "use_replay", True)
        engine = ServeEngine(ServeEngineConfig(workers=0, fleet=fleet))
        responses = engine.execute_batch(requests)
        assert_meter_conserved()
    assert engine.errors == 0
    assert all(r["status"] == "ok" for r in responses)
    # Byte identity per request against the interpreted serial baseline.
    got_lines = [canonical_encode(r) for r in responses]
    assert got_lines == expected_lines, "serve responses diverged byte-wise"
    # Anchor to the shared fleet-baseline signature too, tying this axis
    # to every other cell that reproduces the same reference.
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
