"""Server behaviour around the happy path: malformed lines answered in
place, 429-style rejections, and the graceful-drain contract."""

import asyncio
import json

from repro.serve.client import batch_reference_records, open_loop, request_line
from repro.serve.engine import ServeEngineConfig
from repro.serve.protocol import AlignRequest
from repro.serve.server import AlignmentServer, ServeConfig


def make_request(i, tenant="t0"):
    return AlignRequest(
        id=f"r{i:03d}", tenant=tenant, impl="ss-vec",
        pattern="ACGTACGTACGTACGT", text="ACGTACGTACGTACGT",
    )


async def start_server(sock, **overrides):
    settings = dict(
        unix_path=sock, max_batch=4, max_wait=0.002,
        engine=ServeEngineConfig(workers=0),
    )
    settings.update(overrides)
    server = AlignmentServer(ServeConfig(**settings))
    await server.start()
    return server


async def talk(sock, lines):
    """Send raw lines on one connection; collect response records."""
    reader, writer = await asyncio.open_unix_connection(sock)
    for line in lines:
        writer.write(line if isinstance(line, bytes) else line.encode("utf-8"))
    if writer.can_write_eof():
        writer.write_eof()
    records = []
    while True:
        raw = await reader.readline()
        if not raw:
            break
        records.append(json.loads(raw))
    writer.close()
    return records


def test_invalid_lines_answered_in_arrival_order(tmp_path):
    """Garbage interleaved with valid requests: every line gets exactly
    one response, streamed in arrival order, and the server survives."""
    sock = str(tmp_path / "serve.sock")

    async def go():
        server = await start_server(sock)
        try:
            records = await talk(sock, [
                request_line(make_request(0)) + "\n",
                "this is not json\n",
                '{"id": "bad1", "tenant": "t9", "impl": "nope",'
                ' "pattern": "A", "text": "A"}\n',
                request_line(make_request(1)) + "\n",
            ])
        finally:
            await server.drain()
        return records, server.counters()

    records, counters = asyncio.run(go())
    assert [r["status"] for r in records] == ["ok", "invalid", "invalid", "ok"]
    assert [r["id"] for r in records] == ["r000", "", "bad1", "r001"]
    assert records[2]["tenant"] == "t9"  # identity echoed when readable
    assert "unknown impl" in records[2]["reason"]
    assert counters["invalid"] == 2
    assert counters["served"] == 4


def test_rate_limited_tenant_gets_429s(tmp_path):
    """Token bucket with burst 1 and a negligible refill: exactly one
    request per tenant is admitted, the rest are rejected."""
    sock = str(tmp_path / "serve.sock")
    requests = [make_request(i) for i in range(4)]
    requests.append(make_request(4, tenant="t1"))

    async def go():
        server = await start_server(sock, rate=0.001, burst=1.0)
        try:
            report = await open_loop(sock, requests, rate=1000.0)
        finally:
            await server.drain()
        return report, server.counters()

    report, counters = asyncio.run(go())
    assert report.dropped == 0
    assert report.completed == 2  # one per tenant
    assert report.rejected == 3
    rejected = [r for r in report.responses if r["status"] == "rejected"]
    assert {r["reason"] for r in rejected} == {"rate_limited"}
    assert all(r["tenant"] == "t0" for r in rejected)
    assert counters["admission"]["rejected"] == {"rate_limited": 3}


def test_queue_full_rejections_release_after_completion(tmp_path):
    """With max_pending=1 and a flush timer much slower than the
    arrival burst, the first request occupies the only slot while
    coalesced, so the rest bounce with 'queue_full' — and the occupant
    still completes once the timer fires."""
    sock = str(tmp_path / "serve.sock")
    requests = [make_request(i) for i in range(3)]

    async def go():
        server = await start_server(
            sock, max_pending=1, max_batch=100, max_wait=0.25
        )
        try:
            report = await open_loop(sock, requests, rate=1000.0)
        finally:
            await server.drain()
        return report

    report = asyncio.run(go())
    assert report.dropped == 0
    assert report.completed == 1
    assert report.rejected == 2
    statuses = {r["id"]: r["status"] for r in report.responses}
    assert statuses["r000"] == "ok"
    reasons = {r["reason"] for r in report.responses if "reason" in r}
    assert reasons == {"queue_full"}


def test_drain_flushes_coalesced_requests(tmp_path):
    """Triggers that would never fire (huge batch, huge wait): a drain
    request mid-stream must still flush, execute, and answer everything
    admitted — byte-identically."""
    sock = str(tmp_path / "serve.sock")
    requests = [make_request(i) for i in range(4)]
    expected = batch_reference_records(requests)

    async def go():
        server = await start_server(sock, max_batch=100, max_wait=30.0)

        async def drain_soon():
            await asyncio.sleep(0.15)
            server.request_drain()

        report, _ = await asyncio.gather(
            open_loop(sock, requests, rate=1000.0), drain_soon()
        )
        await server.drain()
        return report

    report = asyncio.run(go())
    assert report.dropped == 0
    assert report.completed == len(requests)
    assert {rid: report.lines[rid] for rid in expected} == expected


def test_late_requests_rejected_while_draining(tmp_path):
    """After request_drain, new requests are answered with an explicit
    'draining' rejection instead of being dropped on the floor."""
    sock = str(tmp_path / "serve.sock")

    async def go():
        server = await start_server(sock)
        server.request_drain()
        records = await talk(
            sock, [request_line(make_request(0)) + "\n"]
        )
        await server.drain()
        return records

    records = asyncio.run(go())
    assert [r["status"] for r in records] == ["rejected"]
    assert records[0]["reason"] == "draining"
    assert records[0]["id"] == "r000"


def test_oversized_line_answered_and_connection_survives_server(tmp_path):
    """A line past the read limit yields one 'invalid' response; the
    server keeps serving other connections."""
    sock = str(tmp_path / "serve.sock")
    from repro.serve.protocol import MAX_LINE_BYTES

    async def go():
        server = await start_server(sock)
        try:
            huge = b'{"id": "x", "pattern": "' + b"A" * (
                MAX_LINE_BYTES + 4096
            ) + b'"}\n'
            first = await talk(sock, [huge])
            second = await talk(sock, [request_line(make_request(0)) + "\n"])
        finally:
            await server.drain()
        return first, second

    first, second = asyncio.run(go())
    assert [r["status"] for r in first] == ["invalid"]
    assert "too long" in first[0]["reason"]
    assert [r["status"] for r in second] == ["ok"]


def test_engine_counters_surface_in_server_counters(tmp_path):
    sock = str(tmp_path / "serve.sock")
    requests = [make_request(i) for i in range(4)]

    async def go():
        server = await start_server(sock)
        try:
            await open_loop(sock, requests, rate=1000.0)
        finally:
            await server.drain()
        return server.counters()

    counters = asyncio.run(go())
    assert counters["engine"]["completed"] == 4
    assert counters["engine"]["batches"] >= 1
    assert counters["admission"]["admitted"] == 4
    assert counters["served"] == 4
