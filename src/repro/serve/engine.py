"""Supervise-style batch execution for the alignment service.

The engine takes one coalesced batch (requests sharing a
:attr:`~repro.serve.protocol.AlignRequest.batch_key`) and turns it into
one response record per request, in order.  Execution mirrors
:mod:`repro.eval.supervise`:

* **Worker isolation.**  With ``workers=1`` batches run in one
  persistent worker process, forked on the first batch attempt and
  reused for every later batch until it dies, so a crash — real or
  injected — kills the worker, never the server.  A failed attempt is
  classified (``signal:SIGKILL``, ``exit:N``, ``timeout``,
  ``exception:...``), the worker is reaped, and the batch is retried on
  a fresh worker with exponential backoff up to the retry budget;
  exhaustion turns every request of the batch into an explicit
  ``status: "error"`` response instead of a hang.  The worker exits
  when the engine closes (:meth:`ServeEngine.close`, or a finalizer
  for an engine that is never closed) and when its parent dies.
* **Journal.**  Completed requests are recorded to an fsync'd
  :class:`~repro.eval.supervise.RunJournal` (one single-pair
  :class:`~repro.eval.runner.RunResult` per request, keyed by the
  request content fingerprint), so results survive worker death *and*
  server restarts: a restarted engine pointed at the same journal
  answers already-computed requests without recomputation, byte-
  identically.
* **Fault injection.**  The same ``ORDINAL:ACTION[@ATTEMPT]`` grammar as
  ``--fault-plan``, with ORDINAL addressing *batches* in execution
  order.
* **Determinism.**  Every pair of a batch runs through
  ``run_implementation(impl, [pair])`` on its own fresh machine, so a
  response never depends on which batch carried the request, and
  :func:`repro.eval.timing.reset_run_meters` runs before every batch so
  a long-lived serve process meters each run from zero exactly like a
  fresh CLI invocation.

Inline mode (``workers=0``) executes batches in-process — no fork, no
timeout enforcement — for fast tests and the conformance grid;
injected ``kill``/``hang`` faults degrade
to retryable exceptions there because there is no worker to sacrifice.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
import weakref
from dataclasses import dataclass
from multiprocessing.connection import wait

from repro.errors import ServeError
from repro.eval import timing
from repro.eval.runner import RunResult, run_implementation
from repro.eval.supervise import (
    FaultPlan,
    InjectedFault,
    RunJournal,
    _trigger_in_worker,
)
from repro.serve.protocol import (
    AlignRequest,
    error_record,
    response_record,
)


def _toggles_snapshot() -> tuple:
    """Capture the process-global execution-path toggles for a worker.

    Fork already inherits them; re-applying makes the worker correct
    under a spawn start method too.  A worker started under another
    snapshot is replaced before it runs a batch.
    """
    from repro.vector.machine import VectorMachine

    return VectorMachine.use_batched_memory, VectorMachine.use_replay


def _apply_toggles(toggles: tuple) -> None:
    from repro.vector.machine import VectorMachine

    VectorMachine.use_batched_memory, VectorMachine.use_replay = toggles


def compute_batch(requests: "list[AlignRequest]", fleet=None) -> list:
    """Simulate one coalesced batch; returns per-request ``PairResult``s.

    The meters are reset first so every batch runs from a zero meter
    state — the same contract ``evaluate_units`` gives each CLI run.
    Each pair runs on its own fresh machine, which is what makes serve
    responses independent of batch composition.

    ``fleet`` is ignored.  It stays because the benchmark's tracer
    (``perfbench/tracing.py``) replaces this function with a wrapper
    of the shape ``(requests, fleet)``; callers pass it positionally.
    """
    if not requests:
        return []
    timing.reset_run_meters()
    impl = requests[0].make_impl()
    system = requests[0].system()
    return [
        run_implementation(impl, [request.make_pair()], system=system)
        .pair_results[0]
        for request in requests
    ]


def _worker_main(
    conn, parent_end, toggles, fault_spec, cache_dir
) -> None:  # pragma: no cover — runs in a child process
    """Entry point of the persistent serve worker.

    Answers each ``(requests, ordinal, attempt)`` message with ``("ok",
    pair_results)`` until the pipe closes or the parent dies.  A batch
    that raises is answered with ``("error", reason)`` and ends the
    worker, so every retry starts on a fresh process.
    """
    try:
        # Fork copies the parent's end of the pipe, its asyncio signal
        # handlers and their wakeup socket: drop them, so EOF reaches a
        # worker whose parent is gone and SIGTERM ends the worker
        # instead of draining the server.
        parent_end.close()
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        from repro.cache import CALIBRATION, configure_from_env

        configure_from_env(default_disk=False)
        if cache_dir is not None:
            CALIBRATION.enable_disk(cache_dir)
        _apply_toggles(toggles)
        plan = FaultPlan.parse(fault_spec)
        watched = [conn, multiprocessing.parent_process().sentinel]
        while conn in wait(watched):
            try:
                requests, ordinal, attempt = conn.recv()
            except EOFError:
                break
            if plan is not None:
                _trigger_in_worker(plan.lookup(ordinal, attempt))
            conn.send(("ok", compute_batch(requests, None)))
    except BaseException as exc:  # report, then die: nothing to salvage
        try:
            conn.send(("error", f"exception:{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


def _stop_worker(proc, conn) -> "int | None":
    """Kill and reap one worker; returns its exit code.

    Killing is safe: the worker holds no state the parent needs, and a
    hung one would never exit by itself.
    """
    conn.close()
    proc.kill()
    proc.join()
    code = proc.exitcode
    proc.close()
    return code


def _classify_exit(code: "int | None") -> str:
    """Failure reason for a worker that died without reporting."""
    if code is not None and code < 0:
        try:
            return f"signal:{signal.Signals(-code).name}"
        except ValueError:
            return f"signal:{-code}"
    return f"exit:{code}"


class _Worker:
    """The persistent worker process and the parent's end of its pipe."""

    def __init__(self, engine: "ServeEngine", toggles: tuple) -> None:
        from repro.cache import CALIBRATION
        from repro.eval.parallel import _pool_context

        config = engine.config
        ctx = _pool_context()
        cache_dir = (
            str(CALIBRATION.directory) if CALIBRATION.disk_enabled else None
        )
        fault_spec = config.fault_plan.to_spec() if config.fault_plan else None
        self.toggles = toggles
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, self.conn, toggles, fault_spec, cache_dir),
            daemon=True,
        )
        self.proc.start()
        child.close()
        # Called once: on close(), on a failed attempt, or when the
        # engine is collected or the interpreter exits unclosed.
        self.stop = weakref.finalize(engine, _stop_worker, self.proc, self.conn)


@dataclass(frozen=True)
class ServeEngineConfig:
    """Execution policy for the serve engine.

    ``workers=0`` selects inline (in-process) execution, ``workers=1``
    one persistent worker process (the server runs one batch at a time,
    so more workers would idle).  ``journal_dir=None`` disables the
    journal.
    """

    workers: int = 1
    timeout: float = 120.0
    retries: int = 2
    backoff: float = 0.05
    journal_dir: "str | None" = None
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.workers not in (0, 1):
            raise ServeError(
                f"workers must be 0 (inline) or 1: {self.workers}"
            )
        if self.timeout <= 0:
            raise ServeError(f"batch timeout must be positive: {self.timeout}")
        if self.retries < 0:
            raise ServeError(f"retry budget must be >= 0: {self.retries}")
        if self.backoff < 0:
            raise ServeError(f"backoff must be >= 0: {self.backoff}")


class ServeEngine:
    """Turn coalesced request batches into response records."""

    def __init__(self, config: "ServeEngineConfig | None" = None) -> None:
        self.config = config or ServeEngineConfig()
        self.journal: "RunJournal | None" = None
        self._restored: "dict[str, RunResult]" = {}
        if self.config.journal_dir is not None:
            self.journal = RunJournal(self.config.journal_dir)
            self._restored = self.journal.load()
        self._next_ordinal = 0
        self.batches = 0
        self.completed = 0
        self.restored = 0
        self.errors = 0
        self.retries = 0
        self.worker_starts = 0
        self.classifications: "list[str]" = []
        self._worker: "_Worker | None" = None

    # -- public entry --------------------------------------------------
    def execute_batch(self, requests: "list[AlignRequest]") -> "list[dict]":
        """One coalesced batch in, one response record per request out.

        Requests already present in the journal are answered from it;
        only the remainder is computed (and then journaled).  A batch
        that fails permanently yields ``status: "error"`` records — the
        caller always gets exactly ``len(requests)`` responses.
        """
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self.batches += 1
        responses: "list[dict | None]" = [None] * len(requests)
        todo: "list[tuple[int, AlignRequest, str]]" = []
        for i, request in enumerate(requests):
            fingerprint = request.fingerprint()
            journaled = self._restored.get(fingerprint)
            if journaled is not None and journaled.pair_results:
                self.restored += 1
                responses[i] = response_record(
                    request, journaled.pair_results[0]
                )
            else:
                todo.append((i, request, fingerprint))
        if todo:
            outcome = self._run_supervised([r for _, r, _ in todo], ordinal)
            if isinstance(outcome, str):
                self.errors += len(todo)
                for i, request, _ in todo:
                    responses[i] = error_record(request, outcome)
            else:
                for (i, request, fingerprint), pair_result in zip(todo, outcome):
                    if self.journal is not None:
                        single = RunResult(
                            name=request.impl,
                            system=request.system(),
                            pair_results=[pair_result],
                        )
                        self.journal.record(fingerprint, single)
                        self._restored[fingerprint] = single
                    self.completed += 1
                    responses[i] = response_record(request, pair_result)
        return responses  # type: ignore[return-value]

    def counters(self) -> dict:
        return {
            "batches": self.batches,
            "completed": self.completed,
            "restored": self.restored,
            "errors": self.errors,
            "retries": self.retries,
            "worker_starts": self.worker_starts,
            "classifications": list(self.classifications),
        }

    def close(self) -> None:
        """Stop the persistent worker, if one is running."""
        if self._worker is not None:
            self._worker.stop()
            self._worker = None

    # -- supervised execution ------------------------------------------
    def _run_supervised(self, requests, ordinal: int):
        """Run one batch with retries; PairResults, or a failure reason.

        Returns either the list of per-request results (success) or the
        final classification string (permanent failure after the retry
        budget).
        """
        attempt = 0
        while True:
            if self.config.workers > 0:
                outcome = self._attempt_in_worker(requests, ordinal, attempt)
            else:
                outcome = self._attempt_inline(requests, ordinal, attempt)
            if isinstance(outcome, list):
                return outcome
            self.classifications.append(outcome)
            attempt += 1
            if attempt > self.config.retries:
                return outcome
            self.retries += 1
            time.sleep(self.config.backoff * (2.0 ** max(0, attempt - 1)))

    def _attempt_inline(self, requests, ordinal: int, attempt: int):
        """In-process attempt: no fork, no timeout enforcement.

        ``kill``/``hang`` faults target a worker process this mode does
        not have; they degrade to a retryable injected exception so the
        retry path is still exercised without killing the server.
        """
        plan = self.config.fault_plan
        try:
            action = plan.lookup(ordinal, attempt) if plan else None
            if action is not None:
                raise InjectedFault(
                    f"injected {action} fault (inline: no worker to kill)"
                )
            return compute_batch(requests, None)
        except Exception as exc:
            return f"exception:{type(exc).__name__}: {exc}"

    def _attempt_in_worker(self, requests, ordinal: int, attempt: int):
        """One attempt on the persistent worker, with classification.

        The worker is started on first use, and replaced when it has
        died or the execution-path toggles changed since it started.
        Any failure retires it, so a retry runs on a fresh process.
        """
        toggles = _toggles_snapshot()
        worker = self._worker
        if worker is not None and (
            worker.toggles != toggles or not worker.proc.is_alive()
        ):
            self.close()
            worker = None
        if worker is None:
            worker = self._worker = _Worker(self, toggles)
            self.worker_starts += 1
        try:
            worker.conn.send((list(requests), ordinal, attempt))
            if not worker.conn.poll(self.config.timeout):
                self.close()
                return "timeout"
            kind, payload = worker.conn.recv()
        except (EOFError, OSError, pickle.UnpicklingError):
            # The worker died without reporting: classify its end.
            self._worker = None
            return _classify_exit(worker.stop())
        if kind == "ok":
            return payload
        self.close()  # it exits after reporting an exception
        return str(payload)
