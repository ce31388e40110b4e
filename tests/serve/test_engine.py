"""The serve engine's lifecycle: one persistent worker process serves
batch after batch, is replaced only when an attempt fails or the
execution-path toggles change, and never outlives its engine, its
server or its parent process.  Also pins the configuration the engine
accepts and what it keeps in memory between batches.
"""

import asyncio
import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.cli import main
from repro.errors import ServeError
from repro.eval.supervise import FaultPlan
from repro.genomics.generator import ErrorProfile, ReadPairGenerator
from repro.serve.client import batch_reference_records, open_loop
from repro.serve.engine import (
    ServeEngine,
    ServeEngineConfig,
    _toggles_snapshot,
)
from repro.serve.protocol import AlignRequest, canonical_encode
from repro.serve.server import AlignmentServer, ServeConfig
from repro.vector.machine import VectorMachine

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker tests need the fork start method",
)
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self"),
    reason="process states are read from /proc",
)


def make_batches():
    """Two ss-vec and two wfa-vec batches of two requests each."""
    gen = ReadPairGenerator(48, ErrorProfile(0.02, 0.005, 0.005), seed=33)
    pairs = tuple(gen.pairs(4))
    return [
        [
            AlignRequest(
                id=f"{impl}-{b}-{i}", tenant="t0", impl=impl,
                pattern=str(pair.pattern), text=str(pair.text),
            )
            for i, pair in enumerate(pairs[2 * b:2 * b + 2])
        ]
        for impl in ("ss-vec", "wfa-vec")
        for b in range(2)
    ]


@pytest.fixture(scope="module")
def expected():
    return batch_reference_records(
        [r for batch in make_batches() for r in batch]
    )


def run_batches(engine, expected):
    """Every batch through ``engine``; asserts byte identity."""
    for batch in make_batches():
        for record in engine.execute_batch(batch):
            assert canonical_encode(record) == expected[record["id"]]


def alive(pid: int) -> bool:
    """True while ``pid`` runs; an exited zombie counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def worker_pid(engine) -> int:
    return engine._worker.proc.pid


@needs_fork
@needs_proc
def test_clean_batches_share_one_worker_until_close(expected):
    engine = ServeEngine(ServeEngineConfig(workers=1))
    pids = set()
    for batch in make_batches():
        for record in engine.execute_batch(batch):
            assert canonical_encode(record) == expected[record["id"]]
        pids.add(worker_pid(engine))
    assert len(pids) == 1
    assert engine.counters()["worker_starts"] == 1
    engine.close()
    assert not alive(pids.pop())
    engine.close()  # idempotent
    assert engine.counters()["worker_starts"] == 1


@needs_fork
@pytest.mark.parametrize("action, reason", (
    ("kill", "signal:SIGKILL"),
    ("raise", "exception:InjectedFault"),
    ("hang", "timeout"),
))
def test_failed_attempt_is_retried_on_a_fresh_worker(expected, action, reason):
    engine = ServeEngine(ServeEngineConfig(
        workers=1, retries=1, backoff=0.0, timeout=1.0,
        fault_plan=FaultPlan.parse(f"0:{action}@0"),
    ))
    try:
        run_batches(engine, expected)
        assert engine.counters()["worker_starts"] == 2
        assert len(engine.classifications) == 1
        assert engine.classifications[0].startswith(reason)
        assert engine.retries == 1 and engine.errors == 0
    finally:
        engine.close()


@needs_fork
@needs_proc
def test_worker_that_died_while_idle_is_replaced_without_a_retry(expected):
    engine = ServeEngine(ServeEngineConfig(workers=1))
    try:
        batches = make_batches()
        engine.execute_batch(batches[0])
        pid = worker_pid(engine)
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        for batch in batches[1:]:
            for record in engine.execute_batch(batch):
                assert canonical_encode(record) == expected[record["id"]]
        assert engine.counters()["worker_starts"] == 2
        assert engine.retries == 0 and engine.classifications == []
    finally:
        engine.close()


@needs_fork
def test_toggle_change_replaces_the_worker(expected, monkeypatch):
    """A worker never runs under class toggles older than the batch."""
    engine = ServeEngine(ServeEngineConfig(workers=1))
    try:
        batches = make_batches()
        engine.execute_batch(batches[0])
        monkeypatch.setattr(VectorMachine, "use_replay", False)
        for batch in batches[1:]:
            for record in engine.execute_batch(batch):
                assert canonical_encode(record) == expected[record["id"]]
        assert engine.counters()["worker_starts"] == 2
        assert engine._worker.toggles == _toggles_snapshot()
    finally:
        engine.close()


@needs_fork
@needs_proc
def test_unclosed_engine_stops_its_worker_when_collected():
    engine = ServeEngine(ServeEngineConfig(workers=1))
    engine.execute_batch(make_batches()[0])
    pid = worker_pid(engine)
    del engine
    gc.collect()
    assert not alive(pid)


@needs_fork
@needs_proc
def test_drain_leaves_no_worker(tmp_path, expected):
    sock = str(tmp_path / "serve.sock")
    requests = [r for batch in make_batches() for r in batch]

    async def go():
        server = AlignmentServer(ServeConfig(
            unix_path=sock, max_batch=2, max_wait=0.002,
            engine=ServeEngineConfig(workers=1),
        ))
        await server.start()
        try:
            report = await asyncio.wait_for(
                open_loop(sock, requests, rate=500.0), timeout=60
            )
            pid = worker_pid(server.engine)
        finally:
            await server.drain()
        return report, pid, server.counters()

    report, pid, counters = asyncio.run(go())
    assert {rid: report.lines[rid] for rid in expected} == expected
    assert counters["engine"]["worker_starts"] == 1
    assert not alive(pid)


@needs_fork
@needs_proc
def test_sigterm_to_the_worker_does_not_drain_the_server(tmp_path, expected):
    """The worker drops the signal handling it inherits from a server
    that drains on SIGTERM (as ``repro serve`` does): SIGTERM ends the
    worker alone, and the next batch runs on a fresh one."""
    sock = str(tmp_path / "serve.sock")
    first, second = make_batches()[:2]

    async def go():
        server = AlignmentServer(ServeConfig(
            unix_path=sock, max_batch=2, max_wait=0.002,
            engine=ServeEngineConfig(workers=1),
        ))
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, server.request_drain)
        await server.start()
        try:
            before = await asyncio.wait_for(
                open_loop(sock, first, rate=500.0), timeout=60
            )
            pid = worker_pid(server.engine)
            os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + 5.0
            while alive(pid) and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # a stray wakeup byte would land now
            draining = server._draining
            after = await asyncio.wait_for(
                open_loop(sock, second, rate=500.0), timeout=60
            )
        finally:
            await server.drain()
        return before, after, pid, draining, server.counters()

    before, after, pid, draining, counters = asyncio.run(go())
    assert not alive(pid)
    assert not draining
    for report in (before, after):
        assert report.rejected == 0 and report.errors == 0
        for rid, line in report.lines.items():
            assert line == expected[rid]
    assert counters["engine"]["worker_starts"] == 2


@needs_fork
@needs_proc
def test_worker_exits_when_its_parent_is_killed(tmp_path):
    """The worker watches its parent: SIGKILL the server process and the
    worker is gone within about two seconds."""
    script = textwrap.dedent("""
        import time
        from repro.serve.engine import ServeEngine, ServeEngineConfig
        from repro.serve.protocol import AlignRequest
        engine = ServeEngine(ServeEngineConfig(workers=1))
        engine.execute_batch([AlignRequest(
            id="r0", tenant="t0", impl="ss-vec",
            pattern="ACGTACGTACGTACGT", text="ACGTACGTACGTACGT",
        )])
        print(engine._worker.proc.pid, flush=True)
        time.sleep(120)
    """)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, REPRO_NO_CACHE="1")
    parent = subprocess.Popen(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        pid = int(parent.stdout.readline())
        assert alive(pid)
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 2.0
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not alive(pid)
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()


@pytest.mark.parametrize("workers", (-1, 2, 4))
def test_only_inline_or_one_worker_is_accepted(workers):
    with pytest.raises(ServeError, match="0 \\(inline\\) or 1"):
        ServeEngineConfig(workers=workers)


def test_cli_rejects_more_than_one_worker(capsys):
    assert main(["serve", "--stdio", "--workers", "4", "--no-cache"]) == 2
    assert "0 (inline) or 1" in capsys.readouterr().err


def test_without_a_journal_results_are_not_retained(expected):
    """With no journal nothing outlives its batch: a repeated request is
    recomputed, not answered from memory."""
    engine = ServeEngine(ServeEngineConfig(workers=0))
    batches = make_batches()
    for _ in range(2):
        run_batches(engine, expected)
    requests = sum(len(batch) for batch in batches)
    assert engine._restored == {}
    assert engine.restored == 0
    assert engine.completed == 2 * requests
