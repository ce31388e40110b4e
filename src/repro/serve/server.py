"""The asyncio front end of the alignment service.

One :class:`AlignmentServer` owns the full request path::

    socket line -> parse_request -> AdmissionController -> Coalescer
        -> ServeEngine (executor thread -> persistent worker process)
        -> response line

Responses stream back **in arrival order per connection**: every
ingested line immediately gets a future slotted into the connection's
ordered response queue, so a rejected request is answered in place and a
slow batch never lets a later request overtake an earlier one on the
same connection.  Across connections there is no ordering contract,
exactly like independent HTTP clients.

The coalescer flush timer runs as a single task that sleeps until the
oldest pending request's deadline — an idle server burns no CPU.  Batch
execution happens on a one-thread executor (the engine's meters and
class toggles are process-global, so batches serialize in the parent),
keeping the event loop free to accept and answer.  The executor hands
each batch to the engine's one persistent worker process, which
isolates crashes and keeps its warmed caches from batch to batch.
Because that worker holds forked copies of the server's sockets, a
finished connection is half-closed before it is closed, so the client
sees EOF.

``SIGTERM``/``SIGINT`` trigger a graceful drain: admission closes
(late requests get ``status: "rejected", reason: "draining"``), every
coalesced request is flushed and executed, in-flight responses are
delivered, the listener closes, and the worker is stopped.
"""

from __future__ import annotations

import asyncio
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ServeError, ServeProtocolError
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import Coalescer
from repro.serve.engine import ServeEngine, ServeEngineConfig
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    canonical_encode,
    error_record,
    invalid_record,
    parse_request,
    rejection_record,
)


@dataclass(frozen=True)
class ServeConfig:
    """Operator-facing configuration of one server instance.

    Exactly one transport is used: ``unix_path`` when set, else TCP on
    ``host:port`` (``port=0`` picks a free port), else stdio via
    :meth:`AlignmentServer.run_stdio`.
    """

    unix_path: "str | None" = None
    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 16
    max_wait: float = 0.01
    rate: float = 0.0
    burst: float = 0.0
    max_pending: int = 256
    engine: ServeEngineConfig = field(default_factory=ServeEngineConfig)


class AlignmentServer:
    """Asyncio server wiring admission, coalescing, and execution."""

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config or ServeConfig()
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.burst,
            max_pending=self.config.max_pending,
        )
        self.coalescer = Coalescer(
            max_batch=self.config.max_batch, max_wait=self.config.max_wait
        )
        self.engine = ServeEngine(self.config.engine)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._futures: "dict[int, asyncio.Future]" = {}
        self._inflight: "set[asyncio.Task]" = set()
        self._server: "asyncio.AbstractServer | None" = None
        self._flusher: "asyncio.Task | None" = None
        self._wake: "asyncio.Event | None" = None
        self._draining = False
        self.served = 0
        self.invalid = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the transport and start the flush-timer task."""
        if self._server is not None:
            raise ServeError("server already started")
        self._wake = asyncio.Event()
        limit = MAX_LINE_BYTES + 1024
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path,
                limit=limit,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port, limit=limit,
            )
        self._flusher = asyncio.create_task(self._flush_loop())

    @property
    def address(self):
        """Bound address: the unix path, or the actual (host, port)."""
        if self.config.unix_path is not None:
            return self.config.unix_path
        if self._server is None:
            raise ServeError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`request_drain` fires (e.g. from SIGTERM),
        then finish the graceful shutdown."""
        if self._flusher is None:
            raise ServeError("server not started")
        await self._flusher
        self._flusher = None
        await self.drain()

    def request_drain(self) -> None:
        """Signal-handler entry: stop admitting, flush, then shut down."""
        if not self._draining:
            self._draining = True
            self.admission.start_drain()
            if self._wake is not None:
                self._wake.set()

    async def drain(self) -> None:
        """Graceful shutdown: answer everything admitted, then close."""
        self.request_drain()
        if self._flusher is not None:
            await self._flusher
            self._flusher = None
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)
        self.engine.close()

    def counters(self) -> dict:
        """Operational counters across admission, engine, and transport."""
        return {
            "served": self.served,
            "invalid": self.invalid,
            "admission": self.admission.counters(),
            "engine": self.engine.counters(),
        }

    # -- stdio transport -----------------------------------------------
    async def run_stdio(self) -> None:
        """Serve one stdin/stdout connection, then drain.

        The socket transports stay unbound; the flush loop still runs so
        coalescing and admission behave identically to socket mode.
        stdin is pumped from a thread (works for pipes, regular files,
        and terminals alike — pipe transports reject regular files) and
        responses go straight to the stdout buffer.
        """
        import threading

        if self._wake is None:
            self._wake = asyncio.Event()
        if self._flusher is None:
            self._flusher = asyncio.create_task(self._flush_loop())
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES + 1024)

        def pump() -> None:
            try:
                while True:
                    chunk = sys.stdin.buffer.readline()
                    if not chunk:
                        break
                    loop.call_soon_threadsafe(reader.feed_data, chunk)
            finally:
                loop.call_soon_threadsafe(reader.feed_eof)

        threading.Thread(target=pump, daemon=True, name="repro-stdin").start()
        await self._handle_connection(reader, _StdoutWriter())
        await self.drain()

    # -- request path --------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Read request lines; stream responses back in arrival order."""
        queue: "asyncio.Queue" = asyncio.Queue()
        responder = asyncio.create_task(self._write_responses(queue, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await queue.put(self._immediate(
                        invalid_record("request line too long")
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await queue.put(self._ingest(line))
        finally:
            await queue.put(None)
            await responder
            # Half-close first: the worker may hold a forked copy of this
            # socket, and then close() alone would never reach the client.
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, ConnectionError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    def _immediate(self, record: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        future.set_result(record)
        return future

    def _ingest(self, line: bytes) -> asyncio.Future:
        """Parse + admit + coalesce one line; the future resolves to the
        response record (possibly immediately, for invalid/rejected)."""
        loop = asyncio.get_running_loop()
        try:
            request = parse_request(line)
        except ServeProtocolError as exc:
            self.invalid += 1
            rid, tenant = _best_effort_identity(line)
            return self._immediate(invalid_record(str(exc), rid, tenant))
        reason = self.admission.admit(request.tenant)
        if reason is not None:
            return self._immediate(
                rejection_record(request.id, request.tenant, reason)
            )
        future = loop.create_future()
        # Keyed by object identity: the coalescer (then the dispatched
        # batch) keeps the request alive until the future resolves, so
        # equal-content requests never collide.
        self._futures[id(request)] = future
        batch = self.coalescer.add(request, loop.time())
        if batch is not None:
            self._dispatch(batch)
        else:
            self._wake.set()
        return future

    async def _write_responses(self, queue, writer) -> None:
        """Drain the connection's ordered future queue onto the wire."""
        while True:
            future = await queue.get()
            if future is None:
                return
            record = await future
            self.served += 1
            try:
                writer.write((canonical_encode(record) + "\n").encode("utf-8"))
                await writer.drain()
            except (OSError, ConnectionError):
                # Client went away: keep consuming so admitted requests
                # still release their admission slots.
                continue

    # -- batch dispatch ------------------------------------------------
    def _dispatch(self, batch) -> None:
        task = asyncio.create_task(self._execute(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _execute(self, batch) -> None:
        loop = asyncio.get_running_loop()
        try:
            records = await loop.run_in_executor(
                self._executor, self.engine.execute_batch, batch
            )
        except Exception as exc:  # engine bug: answer, don't hang
            records = [
                error_record(request, f"exception:{type(exc).__name__}: {exc}")
                for request in batch
            ]
        for request, record in zip(batch, records):
            future = self._futures.pop(id(request), None)
            if future is not None and not future.done():
                future.set_result(record)
            self.admission.release()

    async def _flush_loop(self) -> None:
        """Single timer task releasing age-triggered batches."""
        while True:
            loop = asyncio.get_running_loop()
            if self._draining:
                for batch in self.coalescer.flush_all():
                    self._dispatch(batch)
                return
            for batch in self.coalescer.due(loop.time()):
                self._dispatch(batch)
            deadline = self.coalescer.next_deadline(loop.time())
            self._wake.clear()
            if deadline is None:
                await self._wake.wait()
            else:
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=deadline
                    )
                except asyncio.TimeoutError:
                    pass


class _StdoutWriter:
    """Duck-typed StreamWriter over the stdout buffer for stdio mode."""

    def write(self, data: bytes) -> None:
        sys.stdout.buffer.write(data)

    def can_write_eof(self) -> bool:
        return False

    async def drain(self) -> None:
        sys.stdout.buffer.flush()

    def close(self) -> None:
        try:
            sys.stdout.buffer.flush()
        except (OSError, ValueError):
            pass

    async def wait_closed(self) -> None:
        return None


def _best_effort_identity(line: bytes) -> "tuple[str, str]":
    """Echo id/tenant on invalid requests when the JSON is readable."""
    try:
        obj = json.loads(line)
        if isinstance(obj, dict):
            rid = obj.get("id")
            tenant = obj.get("tenant")
            return (
                rid if isinstance(rid, str) else "",
                tenant if isinstance(tenant, str) else "",
            )
    except Exception:
        pass
    return "", ""
