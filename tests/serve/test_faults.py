"""Fault injection against the serve engine.

The engine must uphold three promises under worker death:

* a batch whose worker is killed mid-flight is **retried** and its
  requests answered byte-identically to an undisturbed run;
* when the retry budget is exhausted, every affected request gets an
  explicit ``status: "error"`` response (never a hang, never a drop),
  and *unaffected* batches are completely undisturbed;
* a journal-backed engine, restarted after the fact, answers already-
  computed requests byte-identically without recomputation.

Worker-mode tests fork real processes and kill them with the
``ORDINAL:ACTION[@ATTEMPT]`` fault grammar shared with ``repro run``.
"""

import multiprocessing

import pytest

from repro.eval.supervise import FaultPlan
from repro.genomics.generator import ErrorProfile, ReadPairGenerator
from repro.serve.client import batch_reference_records
from repro.serve.engine import ServeEngine, ServeEngineConfig
from repro.serve.protocol import AlignRequest, canonical_encode

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker fault tests need the fork start method"
)


def make_requests():
    """Two batch keys (ss-vec and wfa-vec) over one small pair set."""
    gen = ReadPairGenerator(48, ErrorProfile(0.02, 0.005, 0.005), seed=21)
    batch = tuple(gen.pairs(3))
    out = []
    for impl in ("ss-vec", "wfa-vec"):
        for i, pair in enumerate(batch):
            out.append(AlignRequest(
                id=f"{impl}-{i}", tenant="t0", impl=impl,
                pattern=str(pair.pattern), text=str(pair.text),
            ))
    return out


def split_batches(requests):
    groups: dict = {}
    for request in requests:
        groups.setdefault(request.batch_key, []).append(request)
    return list(groups.values())


@pytest.fixture(scope="module")
def expected():
    return batch_reference_records(make_requests())


def run_engine(config):
    engine = ServeEngine(config)
    records = []
    for batch in split_batches(make_requests()):
        records.extend(engine.execute_batch(batch))
    return engine, records


def assert_identical(records, expected):
    assert [r["status"] for r in records] == ["ok"] * len(records)
    for record in records:
        assert canonical_encode(record) == expected[record["id"]]


@needs_fork
def test_worker_kill_is_retried_and_healed(expected):
    """Batch 0's worker is SIGKILLed on its first attempt; the retry
    must answer every request byte-identically, and batch 1 must run
    clean."""
    engine, records = run_engine(ServeEngineConfig(
        workers=1, retries=2, backoff=0.01,
        fault_plan=FaultPlan.parse("0:kill@0"),
    ))
    assert_identical(records, expected)
    assert engine.retries == 1
    assert engine.classifications == ["signal:SIGKILL"]
    assert engine.errors == 0


@needs_fork
def test_exhausted_retries_error_cleanly(expected):
    """Batch 0 dies on *every* attempt: its requests must come back as
    explicit errors carrying the crash classification — exactly one
    response per request — while batch 1 is untouched."""
    engine, records = run_engine(ServeEngineConfig(
        workers=1, retries=1, backoff=0.01,
        fault_plan=FaultPlan.parse("0:kill"),
    ))
    requests = make_requests()
    assert len(records) == len(requests)
    assert [r["id"] for r in records] == [r.id for r in requests]
    failed = [r for r in records if r["status"] == "error"]
    clean = [r for r in records if r["status"] == "ok"]
    assert len(failed) == 3 and len(clean) == 3
    assert {r["reason"] for r in failed} == {"signal:SIGKILL"}
    assert all(r["id"].startswith("ss-vec") for r in failed)
    for record in clean:
        assert canonical_encode(record) == expected[record["id"]]
    assert engine.errors == 3
    assert engine.classifications == ["signal:SIGKILL"] * 2


@needs_fork
def test_hung_worker_times_out_and_retries(expected):
    """A worker hang trips the batch timeout, is classified as such,
    and the retry heals the batch."""
    engine, records = run_engine(ServeEngineConfig(
        workers=1, retries=2, backoff=0.01, timeout=1.0,
        fault_plan=FaultPlan.parse("0:hang@0"),
    ))
    assert_identical(records, expected)
    assert engine.classifications == ["timeout"]


@needs_fork
def test_raised_fault_in_worker_is_classified_and_retried(expected):
    engine, records = run_engine(ServeEngineConfig(
        workers=1, retries=2, backoff=0.01,
        fault_plan=FaultPlan.parse("0:raise@0"),
    ))
    assert_identical(records, expected)
    assert len(engine.classifications) == 1
    assert engine.classifications[0].startswith("exception:InjectedFault")


def test_inline_faults_degrade_to_retryable(expected):
    """workers=0 has no process to kill: injected kill/hang degrade to
    a retryable exception so the retry path is still exercised."""
    engine, records = run_engine(ServeEngineConfig(
        workers=0, retries=2, backoff=0.0,
        fault_plan=FaultPlan.parse("0:kill@0"),
    ))
    assert_identical(records, expected)
    assert engine.retries == 1
    assert engine.classifications[0].startswith("exception:InjectedFault")


class TestJournal:
    def test_restart_restores_byte_identically(self, tmp_path, expected):
        journal = str(tmp_path / "journal")
        first_engine, first = run_engine(ServeEngineConfig(
            workers=0, journal_dir=journal,
        ))
        assert_identical(first, expected)
        assert first_engine.completed == 6

        second_engine, second = run_engine(ServeEngineConfig(
            workers=0, journal_dir=journal,
        ))
        assert_identical(second, expected)
        assert [canonical_encode(r) for r in second] == [
            canonical_encode(r) for r in first
        ]
        assert second_engine.restored == 6
        assert second_engine.completed == 0

    @needs_fork
    def test_crash_then_restart_only_recomputes_the_lost_batch(
        self, tmp_path, expected
    ):
        """First life: batch 0 fails permanently (not journaled), batch
        1 completes (journaled).  Second life, no fault: batch 1 is
        answered from the journal, batch 0 is recomputed — and the full
        response set is byte-identical to the undisturbed reference."""
        journal = str(tmp_path / "journal")
        first_engine, first = run_engine(ServeEngineConfig(
            workers=1, retries=0, backoff=0.01,
            journal_dir=journal,
            fault_plan=FaultPlan.parse("0:kill"),
        ))
        assert first_engine.errors == 3
        assert first_engine.completed == 3

        second_engine, second = run_engine(ServeEngineConfig(
            workers=1, retries=0, journal_dir=journal,
        ))
        assert_identical(second, expected)
        assert second_engine.restored == 3
        assert second_engine.completed == 3

    def test_journal_keys_by_request_id(self, tmp_path):
        """Same payload, different request id: both ids are journaled
        and answered separately (fingerprint covers the id)."""
        journal = str(tmp_path / "journal")
        gen = ReadPairGenerator(48, ErrorProfile(0.02, 0.0, 0.0), seed=5)
        pair = next(iter(gen.pairs(1)))
        twins = [
            AlignRequest(id=rid, tenant="t0", impl="ss-vec",
                         pattern=str(pair.pattern), text=str(pair.text))
            for rid in ("a", "b")
        ]
        engine = ServeEngine(ServeEngineConfig(
            workers=0, journal_dir=journal,
        ))
        records = engine.execute_batch(twins)
        assert [r["id"] for r in records] == ["a", "b"]
        restarted = ServeEngine(ServeEngineConfig(
            workers=0, journal_dir=journal,
        ))
        again = restarted.execute_batch(twins)
        assert restarted.restored == 2
        assert [canonical_encode(r) for r in again] == [
            canonical_encode(r) for r in records
        ]
        # The two ids differ only in the envelope, never in the result.
        assert records[0]["cycles"] == records[1]["cycles"]
        assert records[0]["machine"] == records[1]["machine"]
