"""Fault-tolerant, resumable work-unit execution for experiment sweeps.

The plain engine in :mod:`repro.eval.parallel` is fail-fast: one
poisoned worker, OOM-killed process, or hung unit aborts an entire
Fig. 13/14-style sweep and throws away every simulated cycle already
spent.  This module layers a *supervisor* under
:func:`repro.eval.parallel.evaluate_units` that makes long campaigns
operable:

* **Checkpointing.**  Every completed :class:`~repro.eval.parallel.WorkUnit`
  result is appended to a journal under ``.repro_cache/runs/<run_id>/``.
  An interrupted sweep resumes with ``python -m repro run --resume
  <run_id>`` (or ``--resume`` on the original command line) and only
  recomputes the units the journal does not already hold.  Units are
  identified by a content fingerprint — implementation, configuration,
  dataset pairs, repro version — so a stale or foreign journal entry can
  never be silently reused.
* **Retry and crash classification.**  Each unit runs in its own worker
  process with a per-unit timeout; a worker that exits on a signal, dies
  with a non-zero exit code, raises, or hangs is classified
  (``signal:SIGKILL``, ``exit:3``, ``exception:...``, ``timeout``) and
  the unit is re-dispatched to a fresh worker with exponential backoff,
  up to a bounded retry budget.
* **Graceful degradation.**  If workers keep dying (infrastructure
  failure rather than a bad unit), the supervisor stops trusting the
  pool and finishes the remaining units serially in-process.
* **Reporting.**  A structured :class:`RunReport` — attempts, retries,
  classifications, degradations, wall time per unit — is written to the
  run directory via the :mod:`repro.eval.records` schema.
* **Deterministic fault injection.**  ``REPRO_FAULT_PLAN`` (or CLI
  ``--fault-plan``) kills, hangs, or exception-poisons chosen units on
  chosen attempts, so every recovery path above is exercised in CI
  rather than discovered in production.

Execution semantics are unchanged: a unit always runs on a fresh
machine, exactly like the plain engine, so a supervised sweep (resumed
or not) produces bit-identical results to an unsupervised one.
"""

from __future__ import annotations

import base64
import heapq
import json
import os
import pickle
import signal
import time
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from repro._version import __version__
from repro.errors import FaultAbort, ReproError, SupervisionError
from repro.eval import records, timing
from repro.eval.runner import RunResult

#: Environment override for the fault plan (CLI ``--fault-plan``).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: How long an injected ``hang`` fault sleeps inside a worker; the
#: supervisor's per-unit timeout is what actually ends it.
HANG_SECONDS = 3600.0

#: Journal entry schema version (bump on any layout change).
JOURNAL_VERSION = 1


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
_FAULT_ACTIONS = ("kill", "hang", "raise")


class InjectedFault(ReproError):
    """Exception raised by a ``raise`` fault inside a unit."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule for supervised runs.

    The spec grammar is ``ORDINAL:ACTION[@ATTEMPT]``, comma-separated::

        2:kill          kill the worker running unit 2, every attempt
        2:kill@0        kill only the first attempt (retries succeed)
        5:hang@1        hang the second attempt of unit 5
        0:raise         poison unit 0 with an exception, every attempt

    ``ORDINAL`` is the unit's position in overall plan order (across
    every ``evaluate_units`` call of the run).  ``kill`` sends the
    worker SIGKILL (simulating an OOM kill), ``hang`` sleeps past any
    timeout, ``raise`` raises :class:`InjectedFault` inside the unit.
    In-process serial execution (``jobs=1``) has no worker to kill, so
    ``kill``/``hang`` there abort the whole run via
    :class:`~repro.errors.FaultAbort` — simulating the operator's
    process dying — while ``raise`` stays retryable.  After pool
    degradation, ``kill``/``hang`` faults are ignored (the worker they
    target is exactly what the fallback no longer has).
    """

    entries: "tuple[tuple[int, str, int | None], ...]" = ()

    @classmethod
    def parse(cls, spec: "str | None") -> "FaultPlan | None":
        """Parse a spec string; ``None``/empty means no plan."""
        if not spec or not spec.strip():
            return None
        entries = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                ordinal_s, action = part.split(":", 1)
                attempt: "int | None" = None
                if "@" in action:
                    action, attempt_s = action.split("@", 1)
                    attempt = int(attempt_s)
                ordinal = int(ordinal_s)
            except ValueError:
                raise ReproError(f"malformed fault-plan entry: {part!r}")
            if action not in _FAULT_ACTIONS:
                raise ReproError(
                    f"unknown fault action {action!r} in {part!r}; "
                    f"choose from {', '.join(_FAULT_ACTIONS)}"
                )
            if ordinal < 0 or (attempt is not None and attempt < 0):
                raise ReproError(f"negative fault-plan ordinal: {part!r}")
            entries.append((ordinal, action, attempt))
        return cls(tuple(entries)) if entries else None

    def to_spec(self) -> str:
        """Round-trip the plan back to its spec string."""
        parts = []
        for ordinal, action, attempt in self.entries:
            suffix = "" if attempt is None else f"@{attempt}"
            parts.append(f"{ordinal}:{action}{suffix}")
        return ",".join(parts)

    def lookup(self, ordinal: int, attempt: int) -> "str | None":
        """The fault to inject for this (unit ordinal, attempt), if any."""
        for entry_ordinal, action, entry_attempt in self.entries:
            if entry_ordinal == ordinal and (
                entry_attempt is None or entry_attempt == attempt
            ):
                return action
        return None


def _trigger_in_worker(action: "str | None") -> None:  # pragma: no cover
    """Carry out a fault inside a worker process (invisible to coverage)."""
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        time.sleep(HANG_SECONDS)
    elif action == "raise":
        raise InjectedFault("injected exception fault")


# ----------------------------------------------------------------------
# Unit fingerprints
# ----------------------------------------------------------------------
def _scrub(text: str) -> str:
    """Drop memory addresses from reprs so fingerprints are stable."""
    out = []
    i = 0
    while True:
        j = text.find(" at 0x", i)
        if j < 0:
            out.append(text[i:])
            return "".join(out)
        out.append(text[i:j])
        k = j + len(" at 0x")
        while k < len(text) and text[k] in "0123456789abcdefABCDEF":
            k += 1
        i = k


def unit_fingerprint(unit) -> str:
    """Stable content digest identifying one work unit's computation.

    Covers everything that determines the unit's result: the repro
    version, the implementation (class + constructor state), the
    system/QUETZAL configuration, the shard coordinates, and the
    sequence pairs themselves.  A fingerprint mismatch is always safe —
    it only means the unit is recomputed instead of restored.
    """
    impl = unit.impl
    digest = sha256()
    for chunk in (
        __version__,
        repr(unit.key),
        f"{impl.__class__.__module__}.{impl.__class__.__qualname__}",
        impl.name,
        _scrub(repr(sorted(vars(impl).items()))),
        _scrub(repr(unit.system)),
        _scrub(repr(unit.quetzal)),
        f"{unit.shard_index}/{unit.num_shards}",
    ):
        digest.update(chunk.encode("utf-8"))
        digest.update(b"\x00")
    for pair in unit.pairs:
        digest.update(str(pair.pattern).encode("utf-8"))
        digest.update(b"\x01")
        digest.update(str(pair.text).encode("utf-8"))
        digest.update(b"\x01")
        digest.update(str(pair.edits_applied).encode("utf-8"))
        digest.update(b"\x02")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------
def runs_root() -> Path:
    """Directory holding per-run checkpoint state.

    Lives next to the calibration entries under the configured cache
    directory (``REPRO_CACHE_DIR`` / ``.repro_cache``), whether or not
    the calibration disk layer itself is enabled.
    """
    from repro.cache import cache_root

    return cache_root() / "runs"


class RunJournal:
    """Append-only checkpoint journal for one run.

    The on-disk format is JSON Lines (``journal.jsonl``): one object per
    completed unit with the entry version, the unit fingerprint, a
    base64-encoded pickle of its :class:`~repro.eval.runner.RunResult`,
    and a CRC-32 of the raw pickle bytes.  Entries are self-validating:
    a truncated, garbled, or checksum-mismatched line is skipped with a
    warning and its unit is simply recomputed — corruption can delay a
    resume but never poison it.
    """

    def __init__(self, directory: "str | os.PathLike") -> None:
        self.directory = Path(directory)
        self.path = self.directory / "journal.jsonl"
        self._seen: "set[str]" = set()

    # -- writing -------------------------------------------------------
    def record(self, fingerprint: str, result: RunResult) -> None:
        """Append one completed unit (flushed + fsynced immediately)."""
        if fingerprint in self._seen:
            return
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        entry = {
            "v": JOURNAL_VERSION,
            "unit": fingerprint,
            "crc": zlib.crc32(payload),
            "payload": base64.b64encode(payload).decode("ascii"),
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._seen.add(fingerprint)

    # -- reading -------------------------------------------------------
    def load(self) -> "dict[str, RunResult]":
        """Parse the journal into ``{fingerprint: RunResult}``.

        Damaged entries (truncation, garbage, checksum or version
        mismatch, unpicklable payload) are skipped with a warning; they
        are *never* returned, so the affected units get recomputed.
        """
        restored: "dict[str, RunResult]" = {}
        if not self.path.exists():
            return restored
        with self.path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                result = self._decode_line(line, lineno)
                if result is None:
                    continue
                fingerprint, value = result
                restored[fingerprint] = value
                self._seen.add(fingerprint)
        return restored

    def _decode_line(self, line: str, lineno: int):
        def damaged(reason: str) -> None:
            warnings.warn(
                f"skipping damaged journal entry "
                f"({self.path}:{lineno}): {reason}; "
                f"the unit will be recomputed",
                RuntimeWarning,
                stacklevel=4,
            )

        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            damaged("not valid JSON (truncated write?)")
            return None
        if not isinstance(entry, dict) or entry.get("v") != JOURNAL_VERSION:
            damaged(f"unsupported entry version {entry!r:.40}")
            return None
        fingerprint = entry.get("unit")
        raw = entry.get("payload")
        if not isinstance(fingerprint, str) or not isinstance(raw, str):
            damaged("missing unit fingerprint or payload")
            return None
        try:
            payload = base64.b64decode(raw.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError):
            damaged("payload is not valid base64")
            return None
        if zlib.crc32(payload) != entry.get("crc"):
            damaged("payload checksum mismatch")
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            damaged("payload does not unpickle")
            return None
        if not isinstance(value, RunResult):
            damaged(f"payload is not a RunResult: {type(value).__name__}")
            return None
        return fingerprint, value


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class UnitReport:
    """Supervision outcome of one work unit."""

    ordinal: int
    key: str
    fingerprint: str
    outcome: str = "pending"  # restored | ok | failed
    attempts: int = 0
    classifications: "list[str]" = field(default_factory=list)
    seconds: float = 0.0
    degraded: bool = False

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def to_record(self) -> dict:
        return {
            "ordinal": self.ordinal,
            "key": self.key,
            "unit": self.fingerprint,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "retries": self.retries,
            "classifications": list(self.classifications),
            "seconds": self.seconds,
            "degraded": self.degraded,
        }


@dataclass
class RunReport:
    """Structured account of one supervised run."""

    run_id: str
    units: "list[UnitReport]" = field(default_factory=list)
    degraded: bool = False
    wall_seconds: float = 0.0

    @property
    def restored(self) -> int:
        return sum(1 for u in self.units if u.outcome == "restored")

    @property
    def computed(self) -> int:
        return sum(1 for u in self.units if u.outcome == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for u in self.units if u.outcome == "failed")

    @property
    def total_retries(self) -> int:
        return sum(u.retries for u in self.units)

    def summary(self) -> str:
        return (
            f"run {self.run_id}: {len(self.units)} units "
            f"({self.restored} restored, {self.computed} computed, "
            f"{self.failed} failed), {self.total_retries} retries"
            + (", degraded to serial" if self.degraded else "")
        )


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuperviseConfig:
    """Operator-facing policy for a supervised run."""

    run_id: str
    resume: bool = False
    journal: bool = True
    timeout: float = 300.0
    retries: int = 2
    backoff: float = 0.1
    degrade_after: int = 3
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if not self.run_id or "/" in self.run_id or self.run_id in (".", ".."):
            raise ReproError(f"invalid run id: {self.run_id!r}")
        if self.timeout <= 0:
            raise ReproError(f"per-unit timeout must be positive: {self.timeout}")
        if self.retries < 0:
            raise ReproError(f"retry budget must be non-negative: {self.retries}")
        if self.backoff < 0:
            raise ReproError(f"backoff must be non-negative: {self.backoff}")
        if self.degrade_after < 1:
            raise ReproError(
                f"degrade threshold must be positive: {self.degrade_after}"
            )


def _worker_main(
    conn, unit, ordinal, attempt, cache_dir, fault_spec
) -> None:  # pragma: no cover — runs in a child process
    """Entry point of one supervised worker process (one unit, one attempt)."""
    try:
        from repro.cache import CALIBRATION, configure_from_env
        from repro.eval.parallel import _execute_unit

        configure_from_env(default_disk=False)
        if cache_dir is not None:
            CALIBRATION.enable_disk(cache_dir)
        plan = FaultPlan.parse(fault_spec)
        if plan is not None:
            _trigger_in_worker(plan.lookup(ordinal, attempt))
        conn.send(("ok", _execute_unit(unit)))
    except BaseException as exc:  # report, then die: nothing to salvage
        try:
            conn.send(("error", f"exception:{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


@dataclass
class _Task:
    """Book-keeping for one unit the supervisor still has to compute."""

    index: int  # position within the current evaluate() call
    ordinal: int  # position in overall plan order (fault-plan address)
    unit: object
    report: UnitReport
    attempt: int = 0


class Supervisor:
    """Fault-tolerant executor behind ``evaluate_units``.

    One supervisor lives for one run (one CLI invocation); successive
    ``evaluate`` calls share its journal, fault plan, unit ordinals, and
    report.  The result list of each call is bit-identical to the plain
    engine's, whether units were computed, retried, or restored.
    """

    def __init__(self, config: SuperviseConfig) -> None:
        self.config = config
        self.directory = runs_root() / config.run_id
        self.journal = RunJournal(self.directory) if config.journal else None
        self._restored: "dict[str, RunResult]" = {}
        if config.resume:
            if self.journal is None:
                raise ReproError("cannot resume with the journal disabled")
            self._restored = self.journal.load()
        self.report = RunReport(run_id=config.run_id)
        self.degraded = False
        self._next_ordinal = 0
        self._started = time.monotonic()

    # -- run metadata --------------------------------------------------
    def write_meta(self, meta: dict) -> Path:
        """Persist run metadata (what to re-run on ``--resume``)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / "meta.json"
        payload = dict(meta)
        payload.setdefault("version", __version__)
        payload.setdefault("run_id", self.config.run_id)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def write_report(self) -> Path:
        """Write the structured run report into the run directory."""
        self.report.wall_seconds = time.monotonic() - self._started
        self.report.degraded = self.degraded
        record = records.run_report_record(self.report)
        return records.write_json(record, self.directory / "report.json")

    # -- main entry ----------------------------------------------------
    def evaluate(self, units, jobs: int = 1) -> "list[RunResult]":
        """Supervised counterpart of ``parallel.evaluate_units``."""
        units = list(units)
        results: "list[RunResult | None]" = [None] * len(units)
        tasks: "list[_Task]" = []
        for i, unit in enumerate(units):
            ordinal = self._next_ordinal
            self._next_ordinal += 1
            fingerprint = unit_fingerprint(unit)
            report = UnitReport(
                ordinal=ordinal, key=records._key_str(unit.key),
                fingerprint=fingerprint,
            )
            self.report.units.append(report)
            restored = self._restored.get(fingerprint)
            if restored is not None:
                report.outcome = "restored"
                results[i] = restored
                continue
            tasks.append(_Task(index=i, ordinal=ordinal, unit=unit, report=report))
        jobs = max(1, int(jobs))
        workers = min(jobs, len(tasks)) if tasks else 0
        timing.note_parallel(units=len(units), workers=max(workers, 1))
        if tasks:
            if workers > 1 and not self.degraded:
                self._run_pool(tasks, results, workers)
            else:
                for task in tasks:
                    self._run_inline(task, results)
        timing.note_supervise(
            restored=self.report.restored,
            retries=self.report.total_retries,
            degraded=self.degraded,
        )
        failed = [t for t in tasks if t.report.outcome == "failed"]
        if failed:
            names = ", ".join(t.report.key or str(t.ordinal) for t in failed)
            raise SupervisionError(
                f"{len(failed)} unit(s) failed permanently after retries: "
                f"{names}; completed units are journaled — resume with "
                f"'python -m repro run --resume {self.config.run_id}'"
            )
        for unit, result in zip(units, results):
            records.note_run(unit.key, result)
        return results  # type: ignore[return-value]

    # -- completion plumbing -------------------------------------------
    def _complete(self, task: _Task, results, result: RunResult) -> None:
        task.report.outcome = "ok"
        results[task.index] = result
        if self.journal is not None:
            self.journal.record(task.report.fingerprint, result)

    def _register_failure(self, task: _Task, classification: str) -> bool:
        """Record one failed attempt; returns True if a retry remains."""
        task.report.classifications.append(classification)
        task.attempt += 1
        if task.attempt <= self.config.retries:
            return True
        task.report.outcome = "failed"
        return False

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff before dispatching ``attempt`` (1-based)."""
        return self.config.backoff * (2.0 ** max(0, attempt - 1))

    # -- in-process execution ------------------------------------------
    def _run_inline(self, task: _Task, results) -> None:
        """Serial execution (jobs=1, or after pool degradation).

        Per-unit timeouts are not enforceable without a worker process;
        ``raise`` faults stay retryable, while ``kill``/``hang`` faults
        abort the run the way a dead operator process would.
        """
        from repro.eval.parallel import _execute_unit

        plan = self.config.fault_plan
        task.report.degraded = self.degraded
        while True:
            action = plan.lookup(task.ordinal, task.attempt) if plan else None
            if action in ("kill", "hang") and self.degraded:
                # These fault kinds target worker processes; after
                # degradation there is none left to sacrifice, which is
                # precisely what the fallback is recovering from.
                action = None
            if action in ("kill", "hang"):
                task.report.classifications.append(f"aborted:{action}")
                raise FaultAbort(
                    f"injected {action} fault aborted the run in-process "
                    f"(unit {task.ordinal}, attempt {task.attempt})"
                )
            started = time.perf_counter()
            try:
                if action == "raise":
                    raise InjectedFault("injected exception fault")
                result = _execute_unit(task.unit)
            except Exception as exc:
                task.report.seconds += time.perf_counter() - started
                task.report.attempts = task.attempt + 1
                if not self._register_failure(
                    task, f"exception:{type(exc).__name__}: {exc}"
                ):
                    return
                time.sleep(self._backoff_delay(task.attempt))
                continue
            task.report.seconds += time.perf_counter() - started
            task.report.attempts = task.attempt + 1
            self._complete(task, results, result)
            return

    # -- pooled execution ----------------------------------------------
    def _run_pool(self, tasks, results, workers: int) -> None:
        """Dispatch tasks to per-unit worker processes with supervision."""
        from multiprocessing.connection import wait as conn_wait

        from repro.cache import CALIBRATION
        from repro.eval.parallel import _pool_context

        ctx = _pool_context()
        cache_dir = (
            str(CALIBRATION.directory) if CALIBRATION.disk_enabled else None
        )
        fault_spec = (
            self.config.fault_plan.to_spec() if self.config.fault_plan else None
        )
        pending = list(reversed(tasks))  # pop() keeps plan order
        retry_heap: "list[tuple[float, int, _Task]]" = []
        running: "dict[object, tuple[_Task, object, float, float]]" = {}
        seq = 0
        consecutive_pool_failures = 0

        def dispatch(task: _Task) -> None:
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child, task.unit, task.ordinal, task.attempt,
                    cache_dir, fault_spec,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            now = time.monotonic()
            running[parent] = (task, proc, now, now + self.config.timeout)

        def reap(conn, proc) -> None:
            try:
                conn.close()
            except OSError:
                pass
            proc.join()
            proc.close()

        def fail_or_retry(task: _Task, classification: str) -> None:
            task.report.attempts = task.attempt + 1
            if self._register_failure(task, classification):
                heapq.heappush(
                    retry_heap,
                    (
                        time.monotonic() + self._backoff_delay(task.attempt),
                        next_seq(),
                        task,
                    ),
                )

        def next_seq() -> int:
            nonlocal seq
            seq += 1
            return seq

        while pending or retry_heap or running:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, _, task = heapq.heappop(retry_heap)
                pending.append(task)  # retries jump the queue (pop() side)
            while pending and len(running) < workers:
                dispatch(pending.pop())
            if not running:
                # Nothing in flight: sleep until the earliest retry.
                if retry_heap:
                    delay = max(0.0, retry_heap[0][0] - time.monotonic())
                    time.sleep(min(delay, 0.5))
                continue
            deadline = min(entry[3] for entry in running.values())
            if retry_heap:
                deadline = min(deadline, retry_heap[0][0])
            ready = conn_wait(
                list(running), timeout=max(0.0, deadline - time.monotonic())
            )
            for conn in ready:
                task, proc, started, _ = running.pop(conn)
                task.report.seconds += time.monotonic() - started
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError, pickle.UnpicklingError):
                    # The worker died without reporting: classify its end.
                    proc.join()
                    code = proc.exitcode
                    if code is not None and code < 0:
                        try:
                            sig = signal.Signals(-code).name
                        except ValueError:
                            sig = str(-code)
                        classification = f"signal:{sig}"
                    else:
                        classification = f"exit:{code}"
                    reap(conn, proc)
                    consecutive_pool_failures += 1
                    fail_or_retry(task, classification)
                else:
                    reap(conn, proc)
                    if kind == "ok":
                        consecutive_pool_failures = 0
                        task.report.attempts = task.attempt + 1
                        self._complete(task, results, payload)
                    else:
                        # The unit raised inside a healthy worker: the
                        # pool is fine, the unit is suspect.
                        consecutive_pool_failures = 0
                        fail_or_retry(task, str(payload))
            now = time.monotonic()
            for conn in [c for c, e in list(running.items()) if e[3] <= now]:
                task, proc, started, _ = running.pop(conn)
                task.report.seconds += now - started
                if proc.is_alive():
                    proc.kill()
                reap(conn, proc)
                consecutive_pool_failures += 1
                fail_or_retry(task, "timeout")
            if (
                consecutive_pool_failures >= self.config.degrade_after
                and not self.degraded
            ):
                self._degrade(pending, retry_heap, running, results)
                return

    def _degrade(self, pending, retry_heap, running, results) -> None:
        """The pool keeps dying: finish the remaining units in-process."""
        self.degraded = True
        warnings.warn(
            f"worker pool failed {self.config.degrade_after} times in a row; "
            f"degrading run {self.config.run_id!r} to in-process serial "
            f"execution",
            RuntimeWarning,
            stacklevel=2,
        )
        leftovers: "list[_Task]" = []
        for conn, (task, proc, started, _) in list(running.items()):
            task.report.seconds += time.monotonic() - started
            if proc.is_alive():
                proc.kill()
            proc.join()
            proc.close()
            try:
                conn.close()
            except OSError:
                pass
            # The in-flight attempt was sacrificed with the pool: charge
            # it to the retry budget so attempt-qualified faults do not
            # re-fire on the serial rerun.
            task.report.attempts = task.attempt + 1
            self._register_failure(task, "aborted:pool-degraded")
            leftovers.append(task)
        running.clear()
        while retry_heap:
            leftovers.append(heapq.heappop(retry_heap)[2])
        leftovers.extend(reversed(pending))
        pending.clear()
        for task in sorted(leftovers, key=lambda t: t.ordinal):
            if task.report.outcome == "failed":
                continue
            self._run_inline(task, results)


# ----------------------------------------------------------------------
# Active-supervisor plumbing (consulted by parallel.evaluate_units)
# ----------------------------------------------------------------------
_ACTIVE: "list[Supervisor]" = []


def active() -> "Supervisor | None":
    """The innermost active supervisor, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(config: SuperviseConfig):
    """Install a supervisor for every ``evaluate_units`` call inside.

    The run report is written to the run directory on exit — success or
    failure — so an aborted sweep still leaves its account behind.
    """
    supervisor = Supervisor(config)
    _ACTIVE.append(supervisor)
    try:
        yield supervisor
    finally:
        _ACTIVE.remove(supervisor)
        if config.journal:
            try:
                supervisor.write_report()
            except OSError:
                pass


def generate_run_id() -> str:
    """A fresh, filesystem-safe run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    suffix = os.urandom(3).hex()
    return f"{stamp}-{suffix}"


def read_meta(run_id: str) -> dict:
    """Load a run's recorded metadata (for ``repro run --resume``)."""
    path = runs_root() / run_id / "meta.json"
    try:
        meta = json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(
            f"no such run: {run_id!r} (looked for {path}); "
            f"known runs live under {runs_root()}"
        )
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt run metadata {path}: {exc}")
    if not isinstance(meta, dict):
        raise ReproError(f"corrupt run metadata {path}: not an object")
    return meta
