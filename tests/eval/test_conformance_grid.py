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
also runs the QBUFFER window path (``wfa-qz``: ``qzload`` windows), the
count-ALU paths (``biwfa-qzc``: ``qzmhm`` count and rcount) and the
plain anti-diagonal DP kernel (``ksw-vec``: the 1-byte pattern and text
loads that ``ksw-qz`` reads from the QBUFFERs instead, all
``whilelt``-predicated, which replay as closed-form slices).

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

The replay JIT's kernel source adds a fourth axis: with replay and
batched memory on, every cell of

    {compiled, disk, corrupt} x {jobs 1/2}

must reproduce the baseline on both batch kinds.  ``compiled`` starts
from empty kernel caches, so every kernel is lowered and compiled;
``disk`` starts like a new process over a warm on-disk kernel cache, so
every kernel is loaded from its marshalled file; ``corrupt`` is the
same with one bit of every kernel file flipped, so every load is
rejected and the kernel recompiled.  The pooled cells run the kernels
in forked workers, which start from the parent's emptied caches and
share its disk directory.

The vector length adds a fifth axis: every cell of

    {256, 1024 bits} x {use_batched_memory} x {use_replay} x {jobs 1/2}

must reproduce the all-off serial baseline at the same vector length,
on the divergent batch.  The lane count changes every recorded block's
shape, so the replay kernels, the memory batches and the pattern
memoization all see shapes the 512-bit grids never produce; the pooled
cells prove the length travels with each work unit.  The plain vector
families run this axis, and two QUETZAL families: ``ksw-qz`` (the
anti-diagonal DP chunk, one vector of 32-bit lanes, over QBUFFER runs)
and ``wfa-qz`` (QBUFFER windows), both over sequences staged one
vector of characters per encoder group.  A cell only matches the
baseline at its own length, which a length-wide fault would share;
``tests/align/test_vector_lengths.py`` checks the outputs against the
references.

The other ten Fig. 13a implementations — the three scalar baselines,
``biwfa-vec``, ``wfa-qzc``, ``biwfa-qz``, ``ss-qz``, ``ss-qzc`` and both
NW styles — run one axis of their own, so every published family is
held to its serial oracle: every cell of

    {use_batched_memory} x {use_replay}

at jobs 1, on the standard batch, must reproduce the all-off serial
baseline.

The alignment service adds a sixth axis: every cell of

    {one batch, one batch per request} x {inline, persistent worker}

executed through the serve engine (parsed requests, the production
serve toggles: replay + batched memory on) must produce response
records byte-identical to the ones derived from the all-off interpreted
serial baseline, on both batch kinds.  Each pair runs on its own fresh
machine, so a response must not depend on what it was batched with, nor
on whether it ran in the server's process or on the worker process
``repro serve`` starts by default.

The replay JIT has one kernel emitter and the memory model one batched
engine (pattern memoization in front of the scalar walk, always on), so
neither needs a switch axis: every replay cell of the base and
divergent grids runs the emitter with memoization on, under
{use_batched_memory} x {jobs 1/2}, on both batch kinds.

All cells outside the shard axis (including the baseline) run
``shard_size=1`` so the shard plan — the unit of determinism — is
common to every jobs value; fresh machines per pair make the serial
and pooled walks directly comparable.  ``jobs=2`` cells need the fork
start method so that the monkeypatched class toggles reach the
workers; they are skipped where only spawn exists.
"""

import contextlib
import itertools
import multiprocessing

import pytest

from repro.align.baseline import BiwfaBase, SsBase, WfaBase
from repro.align.dp_machine import KswVec, ParasailNwVec
from repro.align.quetzal_impl import (
    BiwfaQz,
    BiwfaQzc,
    KswQz,
    ParasailNwQz,
    SsQz,
    SsQzc,
    WfaQz,
    WfaQzc,
)
from repro.align.vectorized import BiwfaVec, SsVec, WfaVec
from repro.cache import CALIBRATION
from repro.config import SystemConfig
from repro.eval import records
from repro.eval.runner import run_implementation
from repro.genomics.generator import ErrorProfile, ReadPairGenerator
from repro.vector import backends, kernel_cache, program
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

IMPLS = {"wfa-vec": WfaVec, "ss-vec": SsVec, "ksw-qz": KswQz}
#: The base grid's families: IMPLS plus the QBUFFER window and count-ALU
#: read paths and the plain DP kernel (the other axes keep to IMPLS).
BASE_IMPLS = {
    **IMPLS, "wfa-qz": WfaQz, "biwfa-qzc": BiwfaQzc, "ksw-vec": KswVec,
}

#: The other ten Fig. 13a implementations (their own axis, below).
PUBLISHED_IMPLS = {
    "wfa-base": WfaBase, "wfa-qzc": WfaQzc, "biwfa-base": BiwfaBase,
    "biwfa-vec": BiwfaVec, "biwfa-qz": BiwfaQz, "ss-base": SsBase,
    "ss-qz": SsQz, "ss-qzc": SsQzc, "nw-vec": ParasailNwVec,
    "nw-qz": ParasailNwQz,
}
#: All sixteen, by name.
ALL_IMPLS = {**BASE_IMPLS, **PUBLISHED_IMPLS}

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
             shard_size=1, system=None):
    """One grid cell, with the toggles as class state.

    Class attributes (not instance state) are what worker processes
    inherit under fork, so this exercises exactly the production
    propagation path; ``auto_trace`` mirrors the ``REPRO_TRACE``
    environment knob.  The default ``shard_size=1`` puts every pair on
    a fresh machine; ``system=None`` is the default system.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "use_batched_memory", use_batched_memory)
        mp.setattr(VectorMachine, "use_replay", use_replay)
        mp.setattr(VectorMachine, "auto_trace", trace)
        sig = signature(
            run_implementation(
                impl_cls(), batch, system=system, jobs=jobs,
                shard_size=shard_size,
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
        _baselines[name] = run_cell(ALL_IMPLS[name], _batches[name], *BASELINE)
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


PATH_GRID = list(itertools.product((False, True), (False, True)))


def path_cell_id(cell):
    return f"{'batched' if cell[0] else 'serialmem'}-{'replay' if cell[1] else 'interp'}"


@pytest.mark.parametrize("name", sorted(PUBLISHED_IMPLS))
@pytest.mark.parametrize("cell", PATH_GRID, ids=path_cell_id)
def test_published_cell_matches_baseline(name, cell):
    batched, replay = cell
    expected = baseline_for(name)
    got = run_cell(
        PUBLISHED_IMPLS[name], _batches[name], batched, replay, False, 1
    )
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


#: (kernel source, jobs) — replay + batched memory on throughout.
KERNEL_GRID = list(itertools.product(("compiled", "disk", "corrupt"), (1, 2)))


def _empty_kernel_caches():
    """Drop both in-process kernel caches, as a new process starts."""
    backends._MEMORY.clear()
    program._EMISSIONS.clear()


@contextlib.contextmanager
def kernel_source(source, directory, prime):
    """Put the kernel caches in the state ``source`` names.

    ``prime`` runs the cell once (with empty in-process caches, so every
    kernel is compiled and stored) to warm the disk cache under
    ``directory``.  The disk switch and both in-process caches are
    restored afterwards.
    """
    saved = (
        CALIBRATION.directory, dict(backends._MEMORY), dict(program._EMISSIONS)
    )
    try:
        _empty_kernel_caches()
        if source == "compiled":
            CALIBRATION.disable_disk()
        else:
            CALIBRATION.enable_disk(directory)
            prime()
            files = sorted(kernel_cache.kernel_dir().glob("k-*.bin"))
            assert files, "priming stored no kernel files"
            if source == "corrupt":
                for path in files:
                    raw = bytearray(path.read_bytes())
                    raw[len(raw) // 2] ^= 0x01
                    path.write_bytes(bytes(raw))
            _empty_kernel_caches()
        yield
    finally:
        CALIBRATION.directory = saved[0]
        backends._MEMORY.clear()
        backends._MEMORY.update(saved[1])
        program._EMISSIONS.clear()
        program._EMISSIONS.update(saved[2])


def kernel_cell_id(cell):
    return f"{cell[0]}-j{cell[1]}"


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", KERNEL_GRID, ids=kernel_cell_id)
def test_kernel_cell_matches_baseline(tmp_path, name, cell, kind):
    source, jobs = cell
    if jobs > 1 and not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = kind_baseline_for(name, kind)
    batch = _kind_batches[(name, kind)]

    def run(jobs):
        return run_cell(IMPLS[name], batch, True, True, False, jobs)

    with kernel_source(source, tmp_path / "cache", lambda: run(1)):
        if source == "corrupt" and jobs == 1:
            with pytest.warns(RuntimeWarning, match="recompiling"):
                got = run(jobs)
        else:
            got = run(jobs)
        meter = REPLAY_METER.snapshot()
    assert_matches(got, expected)
    if jobs == 1:
        # Pooled cells meter in their workers; the serial ones prove
        # the kernels really came from the source the cell names.
        if source == "disk":
            assert meter["kernel_compiles"] == 0
            assert meter["kernel_cache_hits"] > 0
        else:
            assert meter["kernel_compiles"] > 0


#: The vector-length axis: its lengths, families, and
#: (vlen_bits, use_batched_memory, use_replay, jobs) cells.
VLENS = (256, 1024)
VLEN_IMPLS = {
    "wfa-vec": WfaVec, "ss-vec": SsVec, "biwfa-vec": BiwfaVec,
    "ksw-qz": KswQz, "wfa-qz": WfaQz,
}
VLEN_GRID = list(itertools.product(VLENS, (False, True), (False, True), (1, 2)))

_vlen_baselines: dict = {}


def vlen_baseline_for(name, vlen):
    """All-off serial reference of the divergent batch at ``vlen`` bits."""
    key = (name, vlen)
    if key not in _vlen_baselines:
        _vlen_baselines[key] = run_cell(
            VLEN_IMPLS[name], divergent_pairs(), *BASELINE,
            system=SystemConfig(vlen_bits=vlen),
        )
    return _vlen_baselines[key]


def vlen_cell_id(cell):
    return (
        f"v{cell[0]}-"
        f"{'batched' if cell[1] else 'serialmem'}-"
        f"{'replay' if cell[2] else 'interp'}-j{cell[3]}"
    )


@pytest.mark.parametrize("name", sorted(VLEN_IMPLS))
@pytest.mark.parametrize("cell", VLEN_GRID, ids=vlen_cell_id)
def test_vlen_cell_matches_baseline(name, cell):
    vlen, batched, replay, jobs = cell
    if jobs > 1 and not HAS_FORK:
        pytest.skip("pooled cells need the fork start method")
    expected = vlen_baseline_for(name, vlen)
    got = run_cell(
        VLEN_IMPLS[name], divergent_pairs(), batched, replay, False, jobs,
        system=SystemConfig(vlen_bits=vlen),
    )
    assert_matches(got, expected)


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("name", sorted(VLEN_IMPLS))
def test_vlen_baseline_is_nontrivial(name, vlen):
    """A vector-length cell proves nothing if the length never reaches
    the machine: its reference must differ from the 512-bit one."""
    sig = vlen_baseline_for(name, vlen)
    assert all(c > 0 for c in sig[0])
    assert sig[0] != vlen_baseline_for(name, 512)[0]


#: (batching, workers) — the serve axis: the alignment service's compute
#: path (AlignRequest -> ServeEngine -> per-request response records)
#: must land byte-for-byte on the same per-pair results as the all-off
#: interpreted serial baseline, with replay and batched memory on — the
#: production serve configuration — whether the requests arrive as one
#: batch or one batch each, and whether they run inline (``workers=0``)
#: or on the persistent worker process (``workers=1``, the default).
SERVE_GRID = list(itertools.product(("batch", "single"), (0, 1)))


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
    return f"{cell[0]}-{'worker' if cell[1] else 'inline'}"


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize("name", sorted(IMPLS))
@pytest.mark.parametrize("cell", SERVE_GRID, ids=serve_cell_id)
def test_serve_cell_matches_baseline(name, cell, kind):
    from repro.serve.engine import ServeEngine, ServeEngineConfig
    from repro.serve.protocol import canonical_encode

    batching, workers = cell
    expected = kind_baseline_for(name, kind)
    expected_lines = serve_expected_lines(name, kind)
    requests = serve_requests(name, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorMachine, "use_batched_memory", True)
        mp.setattr(VectorMachine, "use_replay", True)
        engine = ServeEngine(ServeEngineConfig(workers=workers))
        try:
            if batching == "batch":
                responses = engine.execute_batch(requests)
            else:
                responses = [
                    response
                    for request in requests
                    for response in engine.execute_batch([request])
                ]
        finally:
            engine.close()
        if not workers:
            # A worker's meters stay in its own process.
            assert_meter_conserved()
    assert engine.errors == 0
    assert engine.worker_starts == workers
    assert all(r["status"] == "ok" for r in responses)
    # Byte identity per request against the interpreted serial baseline.
    got_lines = [canonical_encode(r) for r in responses]
    assert got_lines == expected_lines, "serve responses diverged byte-wise"
    # Anchor to the shared batch-kind baseline signature too, tying this
    # axis to every other cell that reproduces the same reference.
    assert [r["cycles"] for r in responses] == expected[0]
    assert [r["instructions"] for r in responses] == expected[1]
    assert [r["output"] for r in responses] == [repr(o) for o in expected[3]]


@pytest.mark.parametrize("name", sorted(ALL_IMPLS))
def test_baseline_is_nontrivial(name):
    """The reference itself must do real work, or the grid proves nothing."""
    sig = baseline_for(name)
    assert all(c > 0 for c in sig[0])
    assert sig[2]["cycles"] > 0
    assert sig[2]["mem"]["requests"] > 0
