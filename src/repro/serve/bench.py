"""The ``serve`` bench workload: service throughput and latency.

Unlike the two-leg microbenchmarks in :mod:`repro.eval.bench`, the serve
workload compares a *pure batch run* against the *full service path*
(socket framing, admission, coalescing, executor hand-off) over the same
requests, at offered-load points derived from the measured batch
capacity so the cells are portable across machines:

``serve_open``
    Open-loop arrival at ~0.5x batch capacity — the service must keep
    up, so the cell's ``speedup`` is goodput over offered load
    (``served_aps / offered_aps``, ~1.0 when nothing queues unboundedly)
    and the p50/p99 latencies measure coalescing + queueing delay.
``serve_sat``
    Offered at ~3x capacity — wall time is service-bound, so
    ``speedup`` is serve efficiency (``served_aps / batch_aps``): how
    much of the raw batch throughput survives the service machinery.

Every cell is identity-gated exactly like the rest of the bench:
``stats_identical`` is true only when *every* response line is
byte-identical to the batch reference for the same request.  The
committed report lives at ``results/BENCH_serve.json`` and is gated in
CI through the ordinary ``check_regression`` machinery.
"""

from __future__ import annotations

import asyncio
import time

from repro.serve.client import (
    batch_reference_records,
    dataset_requests,
    open_loop,
)
from repro.serve.engine import ServeEngineConfig, compute_batch
from repro.serve.server import AlignmentServer, ServeConfig

#: Requests offered per load point (full, quick).
_REQUESTS = (96, 24)

#: (cell name, offered load as a multiple of measured batch capacity).
_LOAD_POINTS = (("serve_open", 0.5), ("serve_sat", 3.0))


def _run_serve_point(requests, rate: float):
    """One open-loop run against a fresh inline server; returns the
    load report and the server counters."""

    async def go():
        server = AlignmentServer(
            ServeConfig(
                host="127.0.0.1",
                port=0,
                max_batch=16,
                max_wait=0.005,
                max_pending=0,
                engine=ServeEngineConfig(workers=0),
            )
        )
        await server.start()
        try:
            report = await open_loop(server.address, requests, rate=rate)
        finally:
            await server.drain()
        return report, server.counters()

    return asyncio.run(go())


def serve_bench_cells(quick: bool = False, rounds: int = 2) -> dict:
    """Measure the serve load points; returns ``{cell_name: cell}``.

    Cell shape matches :func:`repro.eval.bench._measure` output
    (``reps``/``serial_s``/``batched_s``/``speedup``/``stats_identical``)
    so rendering, ``check_report`` identity gating, and
    ``check_regression`` baselines all work unchanged, with the
    service-level numbers (p50/p99 latency, offered/served throughput)
    carried alongside.
    """
    n = _REQUESTS[1 if quick else 0]
    requests = dataset_requests("250bp_1", n, "ss-vec", tenants=2, seed=77)
    # Building the reference doubles as the warmup pass: kernels
    # compile, calibration caches fill, numpy finishes importing.
    expected = batch_reference_records(requests)
    batch_s = None
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        compute_batch(requests, None)
        elapsed = time.perf_counter() - start
        if batch_s is None or elapsed < batch_s:
            batch_s = elapsed
    batch_aps = n / max(batch_s, 1e-9)
    cells = {}
    for name, factor in _LOAD_POINTS:
        rate = max(1.0, batch_aps * factor)
        report, counters = _run_serve_point(requests, rate)
        identical = report.dropped == 0 and all(
            report.lines.get(rid) == line for rid, line in expected.items()
        )
        if name == "serve_sat":
            speedup = report.served_aps / max(batch_aps, 1e-9)
        else:
            speedup = report.served_aps / max(report.rate, 1e-9)
        cells[name] = {
            "reps": n,
            "dimension": "serve",
            "serial_s": round(batch_s, 4),
            "batched_s": round(report.wall_s, 4),
            "speedup": round(speedup, 3),
            "stats_identical": identical,
            "load_factor": factor,
            "offered_aps": round(report.rate, 2),
            "served_aps": round(report.served_aps, 2),
            "batch_aps": round(batch_aps, 2),
            "p50_ms": round(report.p50_ms, 2),
            "p99_ms": round(report.p99_ms, 2),
            "completed": report.completed,
            "rejected": report.rejected,
            "errors": report.errors,
            "dropped": report.dropped,
            "batches": counters["engine"]["batches"],
        }
    return cells
