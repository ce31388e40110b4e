"""Request coalescer: group admitted requests into batches.

Admitted requests queue here until a batch is *due*.  Requests sharing a
:attr:`~repro.serve.protocol.AlignRequest.batch_key` — same
implementation, parameters, and vector width — share one batch, which
the engine runs with one implementation object and one system
configuration.

Two triggers release a batch:

* **size** — a key reaches ``max_batch`` pending requests (released
  immediately, oldest first);
* **time** — the oldest request under a key has waited ``max_wait``
  seconds (the flush timer bounds latency under low load).

The class is pure logic over an injected clock: the asyncio server
drives it from real time, the hypothesis property suite from simulated
time.  Order is preserved: requests leave in arrival order within each
key, and batches for a key are released oldest-first, so a tenant
streaming requests with one configuration observes FIFO completion.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ServeError
from repro.serve.protocol import AlignRequest


class Coalescer:
    """Accumulate requests and release them as due batches.

    Parameters
    ----------
    max_batch:
        Size trigger; a key's queue never exceeds this (must be >= 1).
    max_wait:
        Time trigger in seconds; 0 makes every request due immediately
        (batching then happens only among same-tick arrivals).
    """

    def __init__(self, max_batch: int = 16, max_wait: float = 0.01) -> None:
        if max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if max_wait < 0:
            raise ServeError("max_wait must be >= 0")
        self.max_batch = max_batch
        self.max_wait = max_wait
        # key -> list of (arrival_time, request); OrderedDict so ties on
        # deadline release in first-arrival order across keys too.
        self._queues: "OrderedDict[tuple, list]" = OrderedDict()

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def add(self, request: AlignRequest, now: float) -> "list[AlignRequest] | None":
        """Enqueue one request; return a full batch if the size trigger
        fired, else None."""
        queue = self._queues.setdefault(request.batch_key, [])
        queue.append((now, request))
        if len(queue) >= self.max_batch:
            del self._queues[request.batch_key]
            return [req for _, req in queue]
        return None

    def due(self, now: float) -> "list[list[AlignRequest]]":
        """Release every batch whose oldest request has aged past
        ``max_wait``, oldest key first."""
        released = []
        for key in [
            key
            for key, queue in self._queues.items()
            if now - queue[0][0] >= self.max_wait
        ]:
            queue = self._queues.pop(key)
            released.append([req for _, req in queue])
        return released

    def next_deadline(self, now: float) -> "float | None":
        """Seconds until the earliest time trigger, or None if empty.

        The server sleeps exactly this long between flush checks, so an
        idle service burns no CPU.
        """
        if not self._queues:
            return None
        oldest = min(queue[0][0] for queue in self._queues.values())
        return max(0.0, oldest + self.max_wait - now)

    def flush_all(self) -> "list[list[AlignRequest]]":
        """Release everything regardless of age (drain path)."""
        released = [
            [req for _, req in queue] for queue in self._queues.values()
        ]
        self._queues.clear()
        return released
