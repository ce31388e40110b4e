"""Service-level identity: a *running* server must answer byte-
identically to the batch path.

Each cell starts a real asyncio server on a unix socket, drives it with
the open-loop client, and compares every response line byte-for-byte
against :func:`repro.serve.client.batch_reference_records` (the batch-
CLI-equivalent answer, one fresh machine per pair).  The grid runs

    {max_batch 1/4} x {vlen_bits default/256}

on a standard batch and on a divergence-heavy batch (mixed lengths and
error rates), with the request stream
mixing two implementations and two tenants — the coalescer must keep
the configurations apart while the identity holds per request, and
since every pair runs on its own fresh machine, no response may depend
on how many requests were coalesced with it.  The 256-bit cells send
every request with ``vlen_bits`` set, so the request's vector length
must reach the machine that answers it.

The grid runs inline (``workers=0``).  The worker cells run the path
``repro serve`` takes by default: one persistent worker process
(``workers=1``) serving a stream that cycles through every offered
implementation, batch after batch, all on the worker it started with.

A separate test pins the arrival-order streaming contract: on one
connection, responses come back in exactly the order the requests were
sent, across coalesced batches and implementations.
"""

import asyncio

import pytest

from repro.genomics.generator import ErrorProfile, ReadPairGenerator
from repro.serve.client import batch_reference_records, open_loop
from repro.serve.engine import ServeEngineConfig
from repro.serve.protocol import AlignRequest
from repro.serve.server import AlignmentServer, ServeConfig

#: max_batch — the service must be batch-size-invariant, byte for byte.
GRID = (1, 4)
#: Request vector lengths: ``None`` is the default system's.
VLENS = (None, 256)


def standard_pairs():
    gen = ReadPairGenerator(64, ErrorProfile(0.02, 0.005, 0.005), seed=11)
    return tuple(gen.pairs(6))


def divergent_pairs():
    """Mixed lengths and error rates (with indels, as in the conformance
    grid's divergent batch): pairs finish at very different iteration
    counts."""
    out = []
    for length, err, seed in ((48, 0.08, 3), (96, 0.01, 5), (160, 0.15, 7)):
        gen = ReadPairGenerator(
            length, ErrorProfile(err * 0.6, err * 0.2, err * 0.2), seed=seed
        )
        out.extend(gen.pairs(2))
    return tuple(out)


#: Every implementation the service offers.
MIXED_IMPLS = ("wfa-vec", "ss-vec", "biwfa-vec", "ksw-qz")


def make_requests(kind, vlen=None):
    """Alternating implementations and tenants over one batch, every
    request at vector length ``vlen`` (``None``: the default)."""
    if kind == "mixed":
        return mixed_requests()
    batch = standard_pairs() if kind == "standard" else divergent_pairs()
    return [
        AlignRequest(
            id=f"r{i:03d}",
            tenant=f"t{i % 2}",
            impl=("ss-vec", "wfa-vec")[i % 2],
            pattern=str(pair.pattern),
            text=str(pair.text),
            vlen_bits=vlen,
        )
        for i, pair in enumerate(batch)
    ]


def mixed_requests(count=40):
    """Both pair kinds under every implementation: each pass over the
    pairs shifts the implementation, so no pair repeats one."""
    pairs = standard_pairs() + divergent_pairs()
    out = []
    for i in range(count):
        pair = pairs[i % len(pairs)]
        impl = MIXED_IMPLS[(i + i // len(pairs)) % len(MIXED_IMPLS)]
        out.append(AlignRequest(
            id=f"m{i:03d}", tenant=f"t{i % 2}", impl=impl,
            pattern=str(pair.pattern), text=str(pair.text),
        ))
    return out


_references: dict = {}


def reference_for(kind, vlen=None):
    """Batch reference lines, computed once per batch kind and vector
    length (responses are batch-size-invariant — the grid cells prove
    exactly that by all comparing against this one reference)."""
    key = (kind, vlen)
    if key not in _references:
        _references[key] = batch_reference_records(make_requests(kind, vlen))
    return _references[key]


def run_server(requests, sock, rate=500.0, **config_overrides):
    """One fresh server on a unix socket, one open-loop client run."""

    async def go():
        settings = dict(
            unix_path=sock,
            max_batch=4,
            max_wait=0.002,
            engine=ServeEngineConfig(workers=0),
        )
        settings.update(config_overrides)
        server = AlignmentServer(ServeConfig(**settings))
        await server.start()
        try:
            report = await asyncio.wait_for(
                open_loop(sock, requests, rate=rate), timeout=120
            )
        finally:
            await server.drain()
        return report, server.counters()

    return asyncio.run(go())


@pytest.mark.parametrize("kind", ("standard", "divergent"))
@pytest.mark.parametrize(
    "vlen", VLENS, ids=lambda v: "vdefault" if v is None else f"v{v}"
)
@pytest.mark.parametrize("max_batch", GRID, ids=lambda n: f"max_batch{n}")
def test_server_matches_batch_byte_for_byte(tmp_path, kind, vlen, max_batch):
    requests = make_requests(kind, vlen)
    expected = reference_for(kind, vlen)
    if vlen is not None:
        # The reference must depend on the vector length, or these
        # cells would pass with the field ignored end to end.
        assert expected != reference_for(kind)
    report, counters = run_server(
        requests, str(tmp_path / "serve.sock"), max_batch=max_batch
    )
    assert report.dropped == 0
    assert report.errors == 0
    assert report.rejected == 0
    assert report.completed == len(requests)
    mismatches = [
        rid for rid, line in expected.items()
        if report.lines.get(rid) != line
    ]
    assert mismatches == [], f"serve responses diverged for {mismatches}"
    assert counters["engine"]["errors"] == 0
    assert counters["admission"]["pending"] == 0


def test_responses_stream_in_arrival_order(tmp_path):
    """One connection: response order == send order, across batch keys
    and coalesced batches — so every tenant's stream is FIFO."""
    requests = make_requests("standard")
    report, _ = run_server(requests, str(tmp_path / "serve.sock"))
    assert [r["id"] for r in report.responses] == [r.id for r in requests]
    for tenant in ("t0", "t1"):
        got = [r["id"] for r in report.responses if r["tenant"] == tenant]
        sent = [r.id for r in requests if r.tenant == tenant]
        assert got == sent


def test_identity_survives_tiny_batches_and_zero_wait(tmp_path):
    """Degenerate coalescing (every request its own batch, immediate
    flush) must not change a single byte."""
    requests = make_requests("standard")
    expected = reference_for("standard")
    report, _ = run_server(
        requests, str(tmp_path / "serve.sock"), max_batch=1, max_wait=0.0,
    )
    assert report.dropped == 0 and report.errors == 0
    assert {rid: report.lines[rid] for rid in expected} == expected


@pytest.mark.parametrize("max_batch", (1, 2), ids=lambda n: f"max_batch{n}")
def test_one_worker_serves_every_batch_byte_for_byte(tmp_path, max_batch):
    """The default execution path: one persistent worker answers at
    least 20 batches of mixed implementations, every byte equal to the
    batch reference, without ever being replaced."""
    requests = make_requests("mixed")
    expected = reference_for("mixed")
    report, counters = run_server(
        requests, str(tmp_path / "serve.sock"), max_batch=max_batch,
        engine=ServeEngineConfig(workers=1),
    )
    assert report.dropped == 0 and report.errors == 0
    assert {rid: report.lines.get(rid) for rid in expected} == expected
    engine = counters["engine"]
    assert engine["batches"] >= 20
    assert engine["worker_starts"] == 1
    assert engine["errors"] == 0 and engine["retries"] == 0
