"""``python -m repro serve`` — run the alignment service.

Three transports::

    python -m repro serve --unix /tmp/repro.sock     # unix socket
    python -m repro serve --port 7878                # TCP (port 0 = auto)
    python -m repro serve --stdio                    # stdin/stdout framing

and a self-contained smoke mode for CI::

    python -m repro serve --smoke --smoke-requests 64 --smoke-rate 200

which starts an in-process server, drives it with the open-loop load
generator, checks every response byte-for-byte against the batch
reference, prints a JSON summary, and exits non-zero on any dropped
request, execution error, or identity mismatch.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile

from repro.cache import CALIBRATION, configure_from_env
from repro.eval.supervise import FaultPlan
from repro.serve.client import batch_reference_records, dataset_requests, open_loop
from repro.serve.engine import ServeEngineConfig
from repro.serve.protocol import IMPL_REGISTRY
from repro.serve.server import AlignmentServer, ServeConfig


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Async alignment service: JSONL requests in, "
        "bit-identical-to-batch responses out, with per-tenant admission "
        "control, request batching, and a crash-isolated worker process.",
    )
    transport = parser.add_argument_group("transport (pick one)")
    transport.add_argument(
        "--unix", metavar="PATH", default=None,
        help="listen on a unix socket at PATH",
    )
    transport.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind host (default 127.0.0.1)",
    )
    transport.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="listen on TCP PORT (0 picks a free port, printed on start)",
    )
    transport.add_argument(
        "--stdio", action="store_true",
        help="serve one connection over stdin/stdout, then exit",
    )
    batching = parser.add_argument_group("coalescing")
    batching.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="release a batch when N same-configuration requests "
        "are pending (default 16)",
    )
    batching.add_argument(
        "--max-wait", type=float, default=0.01, metavar="SECONDS",
        help="flush-timer bound: the oldest pending request waits at "
        "most this long before its batch is released (default 0.01)",
    )
    admission = parser.add_argument_group("admission control")
    admission.add_argument(
        "--rate", type=float, default=0.0, metavar="R",
        help="per-tenant token-bucket rate in requests/second "
        "(default 0 = unlimited)",
    )
    admission.add_argument(
        "--burst", type=float, default=0.0, metavar="B",
        help="per-tenant burst capacity (default: max(rate, 1))",
    )
    admission.add_argument(
        "--max-pending", type=int, default=256, metavar="N",
        help="bound on admitted-but-unanswered requests across all "
        "tenants; beyond it requests are rejected with reason "
        "'queue_full' (default 256, 0 = unbounded)",
    )
    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="0 (inline, in the server process) or 1 (one persistent, "
        "crash-isolated worker process that serves every batch and is "
        "replaced after a failed attempt); default 1",
    )
    execution.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-batch worker timeout (default 120)",
    )
    execution.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry budget per batch before its requests are answered "
        "with status 'error' (default 2)",
    )
    execution.add_argument(
        "--journal", metavar="DIR", default=None,
        help="fsync completed requests to an append-only journal under "
        "DIR; a restarted server pointed at the same DIR answers "
        "already-computed requests byte-identically without recomputation",
    )
    execution.add_argument(
        "--fault-plan", metavar="SPEC", default=None,
        help="deterministic fault injection into serve workers, e.g. "
        "'0:kill@0' (ORDINAL:ACTION[@ATTEMPT] with ORDINAL addressing "
        "batches in execution order; actions: kill, hang, raise)",
    )
    toggles = parser.add_argument_group("execution-path toggles")
    toggles.add_argument(
        "--no-replay", action="store_true",
        help="interpret every vector op (bit-identical results)",
    )
    parser.add_argument("--no-cache", action="store_true")
    smoke = parser.add_argument_group("smoke mode (CI)")
    smoke.add_argument(
        "--smoke", action="store_true",
        help="start an in-process server, drive it with the open-loop "
        "load generator, gate byte-identity against the batch reference, "
        "print a JSON summary, and exit 1 on drops/errors/mismatches",
    )
    smoke.add_argument(
        "--smoke-requests", type=int, default=32, metavar="N",
        help="requests the smoke run offers (default 32)",
    )
    smoke.add_argument(
        "--smoke-rate", type=float, default=200.0, metavar="R",
        help="offered load of the smoke run in requests/second "
        "(default 200)",
    )
    smoke.add_argument(
        "--dataset", default="250bp_1",
        help="dataset the smoke requests are drawn from (default 250bp_1)",
    )
    smoke.add_argument(
        "--impl", default="ss-vec", choices=sorted(IMPL_REGISTRY),
        help="implementation the smoke requests name (default ss-vec)",
    )
    return parser


def _config_from_args(args) -> ServeConfig:
    engine = ServeEngineConfig(
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        journal_dir=args.journal,
        fault_plan=FaultPlan.parse(
            args.fault_plan or os.environ.get("REPRO_FAULT_PLAN")
        ),
    )
    return ServeConfig(
        unix_path=args.unix,
        host=args.host,
        port=args.port or 0,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        rate=args.rate,
        burst=args.burst,
        max_pending=args.max_pending,
        engine=engine,
    )


async def _serve(config: ServeConfig, stdio: bool) -> dict:
    server = AlignmentServer(config)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    if stdio:
        await server.run_stdio()
    else:
        await server.start()
        print(f"[serving on {server.address}]", file=sys.stderr, flush=True)
        await server.serve_until_drained()
    return server.counters()


async def _smoke(args) -> int:
    requests = dataset_requests(
        args.dataset, args.smoke_requests, args.impl, tenants=2, seed=1234
    )
    expected = batch_reference_records(requests)
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        config = _config_from_args(args)
        config = ServeConfig(
            unix_path=os.path.join(tmp, "serve.sock"),
            max_batch=config.max_batch,
            max_wait=config.max_wait,
            rate=config.rate,
            burst=config.burst,
            max_pending=config.max_pending,
            engine=config.engine,
        )
        server = AlignmentServer(config)
        await server.start()
        report = await open_loop(config.unix_path, requests, rate=args.smoke_rate)
        await server.drain()
    mismatches = [
        rid for rid, line in expected.items() if report.lines.get(rid) != line
    ]
    summary = dict(report.to_record())
    summary["identity_mismatches"] = len(mismatches)
    summary["counters"] = server.counters()
    print(json.dumps(summary, indent=2, sort_keys=True))
    failed = bool(report.dropped or report.errors or mismatches)
    if failed:
        print(
            f"SERVE SMOKE FAIL: dropped={report.dropped} "
            f"errors={report.errors} identity_mismatches={len(mismatches)}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def serve_main(argv: "list[str]") -> int:
    """``python -m repro serve [--unix P | --port N | --stdio | --smoke]``."""
    from repro.cli import _disable_replay

    args = build_serve_parser().parse_args(argv)
    configure_from_env(default_disk=not args.no_cache)
    if args.no_cache:
        CALIBRATION.disable_disk()
    if args.no_replay:
        _disable_replay()
    if args.smoke:
        return asyncio.run(_smoke(args))
    transports = sum(
        1 for chosen in (args.unix, args.port, args.stdio or None)
        if chosen is not None
    )
    if transports != 1:
        print(
            "pick exactly one transport: --unix PATH, --port N, or --stdio",
            file=sys.stderr,
        )
        return 2
    counters = asyncio.run(_serve(_config_from_args(args), args.stdio))
    print(json.dumps(counters, sort_keys=True), file=sys.stderr)
    return 0
