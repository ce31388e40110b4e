"""Open-loop load generator and identity checker for the service.

The generator is *open-loop*: request i is sent at ``start + i/rate``
regardless of how fast responses come back, so offered load is a free
variable and queueing delay shows up in the measured latency instead of
silently throttling the client (the standard way to avoid coordinated
omission).  Arrival spacing is deterministic, so a load run is exactly
reproducible.

Also provides :func:`batch_reference_records` — the batch-CLI-equivalent
response for a request list — which the identity gate and the smoke
mode compare server output against, byte for byte.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.genomics.datasets import build_dataset
from repro.serve.engine import compute_batch
from repro.serve.protocol import (
    AlignRequest,
    canonical_encode,
    response_record,
)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def dataset_requests(
    dataset: str,
    num_pairs: int,
    impl: str,
    tenants: int = 1,
    seed: int = 1234,
    params: "dict | None" = None,
) -> "list[AlignRequest]":
    """Build a request list from a named dataset.

    Tenants are assigned round-robin; ids are stable (``r0000``...), so
    the same arguments always produce the same requests — and therefore
    the same responses.
    """
    if tenants < 1:
        raise ServeError(f"tenants must be >= 1: {tenants}")
    pairs = build_dataset(dataset, num_pairs=num_pairs, seed=seed)
    return [
        AlignRequest(
            id=f"r{i:04d}",
            tenant=f"tenant{i % tenants}",
            impl=impl,
            pattern=str(pair.pattern),
            text=str(pair.text),
            params=tuple(sorted((params or {}).items())),
        )
        for i, pair in enumerate(pairs)
    ]


def request_line(request: AlignRequest) -> str:
    """Encode one request as its wire line (without the newline)."""
    payload = {
        "id": request.id,
        "tenant": request.tenant,
        "impl": request.impl,
        "pattern": request.pattern,
        "text": request.text,
    }
    if request.params:
        payload["params"] = dict(request.params)
    if request.vlen_bits is not None:
        payload["vlen_bits"] = request.vlen_bits
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def batch_reference_records(requests: "list[AlignRequest]") -> "dict[str, str]":
    """The batch-equivalent response for each request: ``{id: line}``.

    Groups by batch key and runs the exact engine compute path
    (:func:`repro.serve.engine.compute_batch` — meters reset, one fresh
    machine per pair), so the returned canonical lines are what a
    correct server must produce byte for byte.
    """
    expected: "dict[str, str]" = {}
    groups: "dict[tuple, list[AlignRequest]]" = {}
    for request in requests:
        groups.setdefault(request.batch_key, []).append(request)
    for group in groups.values():
        for request, pair_result in zip(group, compute_batch(group, None)):
            expected[request.id] = canonical_encode(
                response_record(request, pair_result)
            )
    return expected


@dataclass
class LoadReport:
    """Outcome of one open-loop run against a server."""

    offered: int
    rate: float
    wall_s: float
    responses: "list[dict]" = field(default_factory=list)
    lines: "dict[str, str]" = field(default_factory=dict)
    latencies_ms: "list[float]" = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.responses if r.get("status") == "ok")

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.responses if r.get("status") == "rejected")

    @property
    def errors(self) -> int:
        return sum(
            1 for r in self.responses if r.get("status") in ("error", "invalid")
        )

    @property
    def dropped(self) -> int:
        """Requests that never got any response — must always be 0."""
        return self.offered - len(self.responses)

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 0.50)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 0.99)

    @property
    def served_aps(self) -> float:
        """Completed alignments per second of wall time."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def to_record(self) -> dict:
        return {
            "offered": self.offered,
            "offered_aps": self.rate,
            "wall_s": self.wall_s,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "dropped": self.dropped,
            "served_aps": self.served_aps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }


async def open_loop(
    address,
    requests: "list[AlignRequest]",
    rate: float,
) -> LoadReport:
    """Send ``requests`` open-loop at ``rate``/s; collect all responses.

    ``address`` is a unix-socket path (str) or a ``(host, port)`` tuple.
    The connection is half-closed after the last send; the server
    answers everything admitted before EOF comes back.
    """
    if rate <= 0:
        raise ServeError(f"offered rate must be positive: {rate}")
    if isinstance(address, str):
        reader, writer = await asyncio.open_unix_connection(address)
    else:
        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
    loop = asyncio.get_running_loop()
    send_times: "dict[str, float]" = {}
    report = LoadReport(offered=len(requests), rate=rate, wall_s=0.0)
    start = loop.time()

    async def sender() -> None:
        for i, request in enumerate(requests):
            delay = (start + i / rate) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            send_times[request.id] = loop.time()
            writer.write((request_line(request) + "\n").encode("utf-8"))
            await writer.drain()
        if writer.can_write_eof():
            writer.write_eof()

    async def receiver() -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            arrived = loop.time()
            record = json.loads(line)
            report.responses.append(record)
            rid = record.get("id", "")
            report.lines[rid] = line.decode("utf-8").rstrip("\n")
            sent = send_times.get(rid)
            if sent is not None and record.get("status") == "ok":
                report.latencies_ms.append((arrived - sent) * 1e3)

    try:
        await asyncio.gather(sender(), receiver())
    finally:
        report.wall_s = loop.time() - start
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    return report
