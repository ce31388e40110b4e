"""`repro serve`: a long-lived asyncio alignment service.

The batch CLI simulates a fixed pair set and exits; this package turns
the same engines into a request/response service:

* :mod:`repro.serve.protocol` — JSONL request/response framing on the
  schema-versioned records envelope (:mod:`repro.eval.records`).
* :mod:`repro.serve.admission` — per-tenant token-bucket rate limits and
  a bounded in-flight queue with explicit 429-style rejection.
* :mod:`repro.serve.coalescer` — groups admitted requests into batches
  of one implementation and configuration, with a max-wait flush timer
  bounding latency under low load.
* :mod:`repro.serve.engine` — supervise-style batch execution: one
  persistent worker process serving batch after batch, replaced after
  a crash or timeout and the batch retried, an fsync'd journal
  (reusing :class:`repro.eval.supervise.RunJournal`) so completed
  requests survive worker death and server restarts, and deterministic
  fault injection via the same ``--fault-plan`` grammar.
* :mod:`repro.serve.server` — the asyncio front end: unix/TCP sockets or
  stdio framing, per-connection arrival-order response streaming, and
  graceful drain on SIGTERM.
* :mod:`repro.serve.client` — the open-loop load generator and identity
  checker used by ``repro serve --smoke``.

Every response is **bit-identical** to running the same pair through the
batch CLI on a fresh machine (``run_implementation(impl, [pair])``, one
call per pair): the service never trades correctness for throughput,
exactly like every prior fast path.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.client import (
    LoadReport,
    batch_reference_records,
    dataset_requests,
    open_loop,
)
from repro.serve.coalescer import Coalescer
from repro.serve.engine import ServeEngine, ServeEngineConfig
from repro.serve.protocol import (
    AlignRequest,
    SERVE_RESPONSE_KIND,
    canonical_encode,
    parse_request,
    response_record,
)
from repro.serve.server import AlignmentServer, ServeConfig

__all__ = [
    "AdmissionController",
    "AlignRequest",
    "AlignmentServer",
    "Coalescer",
    "LoadReport",
    "SERVE_RESPONSE_KIND",
    "ServeConfig",
    "ServeEngine",
    "ServeEngineConfig",
    "TokenBucket",
    "batch_reference_records",
    "canonical_encode",
    "dataset_requests",
    "open_loop",
    "parse_request",
    "response_record",
]
