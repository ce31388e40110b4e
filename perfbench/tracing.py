"""Spans around the program's layers, installed from outside the program.

:func:`install` replaces each layer's public entry points with timing
wrappers before the first machine is built.  A wrapper pushes a frame on
its thread's stack; when the call returns, the call's duration minus the
time its nested wrapped calls took is the layer's *self time*, added to
the aggregate of the enclosing top-level span.  Top-level spans (one per
pair, set-up step or harness task) record name, start, end and parent;
every layer aggregate carries the id of the span it ran under.  Nothing
is written until the run ends.

Layers (module -> name):

* ``repro.genomics``          genomics  (``build_dataset``)
* ``repro.eval.runner``       runner    (``run_implementation``, ``make_machine``)
* ``repro.align``             align     (``run_pair`` / ``run_pair_gen``)
* ``repro.vector.machine``    machine   (``VectorMachine`` ops)
* ``repro.vector.program``    replay    (``ReplaySession.step`` / ``run_loop``,
                                         ``capture``, ``RecordedProgram.replay``)
* ``repro.memory``            memory    (``MemoryHierarchy`` access methods)
* ``repro.quetzal``           quetzal   (``QuetzalUnit`` ops)
* ``repro.vector.fleet``      fleet     (``drive_fleet``)
* ``repro.serve``             serve     (admission, coalescer, ``execute_batch``)
                              serve.codec (``parse_request``, ``canonical_encode``)
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

_MACHINE_SKIP = {"lanes", "buffer", "name_uid", "attach_tracer", "detach_tracer"}
_MEMORY_METHODS = (
    "access", "access_line", "access_batch", "access_batch_max",
    "access_line_batch", "touch", "account_streaming", "account_extra_hits",
)


class Tracer:
    """Thread-aware span recorder with in-memory layer aggregates."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.clock = time.perf_counter_ns
        self.started = self.clock()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.aggs: list = []  # every (span id, {layer: self ns}) ever opened
        self.calls: dict = defaultdict(int)
        self.spans: list = []
        self._next_id = 0
        # serve: request -> coalescer entry time; waits and exec times
        self.enqueued: dict = {}
        self.queue_wait_ns: list = []
        self.exec_ns: list = []

    # -- per-thread state ------------------------------------------------
    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.agg
        except AttributeError:
            tls.stack = []
            tls.agg = self._new_agg(None)
            return tls.stack, tls.agg

    def _new_agg(self, span_id) -> dict:
        agg: dict = {}
        with self._lock:
            self.aggs.append((span_id, agg))
        return agg

    # -- top-level spans -------------------------------------------------
    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    @contextmanager
    def harness(self, name: str):
        """A span of the benchmark's own work, counted as layer ``harness``."""
        with self.span(name):
            stack, _ = self._state()
            frame = [0, "harness"]
            stack.append(frame)
            t0 = self.clock()
            try:
                yield
            finally:
                dt = self.clock() - t0
                stack.pop()
                agg = self._tls.agg
                agg["harness"] = agg.get("harness", 0) + dt - frame[0]

    # -- wrappers --------------------------------------------------------
    def wrap(self, layer: str, fn):
        tracer = self
        clock = self.clock
        calls = self.calls

        def wrapper(*args, **kwargs):
            stack, agg = tracer._state()
            outer = stack[-1] if stack else None
            frame = [0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg = tracer._tls.agg
                agg[layer] = agg.get(layer, 0) + dt - frame[0]
                if outer is None:
                    calls[layer] += 1
                else:
                    outer[0] += dt
                    if outer[1] != layer:
                        calls[layer] += 1

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_gen(self, layer: str, fn):
        """Wrap a generator function: every resume is one timed slice."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            return tracer._timed(layer, fn(*args, **kwargs))

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper

    def _timed(self, layer, gen):
        clock = self.clock
        value, error = None, None
        while True:
            stack, _ = self._state()
            outer = stack[-1] if stack else None
            frame = [0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                if error is not None:
                    exc, error = error, None
                    item = gen.throw(exc)
                else:
                    item = gen.send(value)
            except StopIteration as stop:
                self._close(layer, frame, outer, t0)
                return stop.value
            except BaseException:
                self._close(layer, frame, outer, t0)
                raise
            self._close(layer, frame, outer, t0)
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the fiber
                error = exc

    def _close(self, layer, frame, outer, t0) -> None:
        dt = self.clock() - t0
        self._tls.stack.pop()
        agg = self._tls.agg
        agg[layer] = agg.get(layer, 0) + dt - frame[0]
        if outer is not None:
            outer[0] += dt

    # -- results ---------------------------------------------------------
    def totals_s(self) -> dict:
        out: dict = defaultdict(float)
        with self._lock:
            aggs = list(self.aggs)
        for _, agg in aggs:
            for layer, ns in agg.items():
                out[layer] += ns / 1e9
        return dict(out)

    def dump(self, path: str, extra: "dict | None" = None) -> None:
        with self._lock:
            aggs = list(self.aggs)
        record = {
            "spans": self.spans,
            "layer_ns": [
                {"span": sid, "self_ns": dict(agg)} for sid, agg in aggs if agg
            ],
            "calls": dict(self.calls),
            "totals_s": self.totals_s(),
        }
        if extra:
            record.update(extra)
        with open(path, "w") as fh:
            json.dump(record, fh)


class _Span:
    """A top-level span; layer self time inside it aggregates under its id."""

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tracer = self.tracer
        stack, agg = tracer._state()
        with tracer._lock:
            self.id = tracer._next_id
            tracer._next_id += 1
        self.parent = getattr(tracer._tls, "span", None)
        self.saved = agg
        tracer._tls.agg = tracer._new_agg(self.id)
        tracer._tls.span = self.id
        self.start = tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = tracer.clock()
        tracer._tls.agg = self.saved
        tracer._tls.span = self.parent
        tracer.spans.append({
            "id": self.id, "name": self.name, "parent": self.parent,
            "start_ns": self.start - tracer.started,
            "end_ns": end - tracer.started, **self.attrs,
        })


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _replace_everywhere(original, wrapped) -> None:
    """Rebind a module-level function in every ``repro`` module that
    imported it, so ``from m import f`` call sites see the wrapper."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(tracer: Tracer, module, name: str, layer: str) -> None:
    original = getattr(module, name)
    _replace_everywhere(original, tracer.wrap(layer, original))


def _wrap_methods(tracer: Tracer, cls, layer: str, names=None, skip=()) -> None:
    for attr, value in list(vars(cls).items()):
        if not isinstance(value, types.FunctionType) or attr.startswith("_"):
            continue
        if (names is not None and attr not in names) or attr in skip:
            continue
        setattr(cls, attr, tracer.wrap(layer, value))


def _all_subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls (before any machine exists)."""
    import repro.eval.experiments  # noqa: F401  (loads every implementation)
    import repro.eval.runner as runner
    import repro.genomics.datasets as datasets
    import repro.memory.hierarchy as hierarchy
    import repro.quetzal.accelerator as accelerator
    import repro.vector.fleet as fleet
    import repro.vector.machine as machine
    import repro.vector.program as program
    from repro.align.interface import Implementation

    _wrap_function(tracer, datasets, "build_dataset", "genomics")
    _wrap_function(tracer, runner, "run_implementation", "runner")
    _wrap_function(tracer, runner, "make_machine", "runner")
    _wrap_function(tracer, fleet, "drive_fleet", "fleet")
    _wrap_function(tracer, program, "capture", "replay")
    for cls in _all_subclasses(Implementation):
        own = vars(cls)
        if "run_pair" in own:
            cls.run_pair = tracer.wrap("align", own["run_pair"])
        if "run_pair_gen" in own:
            fn = own["run_pair_gen"]
            if not inspect.isgeneratorfunction(fn):
                raise TypeError(f"{cls.__name__}.run_pair_gen is not a generator")
            cls.run_pair_gen = tracer.wrap_gen("align", fn)
    _wrap_methods(tracer, machine.VectorMachine, "machine", skip=_MACHINE_SKIP)
    _wrap_methods(tracer, program.ReplaySession, "replay", names=("step", "run_loop"))
    _wrap_methods(tracer, program.RecordedProgram, "replay", names=("replay",))
    _wrap_methods(tracer, hierarchy.MemoryHierarchy, "memory", names=_MEMORY_METHODS)
    _wrap_methods(tracer, accelerator.QuetzalUnit, "quetzal")


def install_serve(tracer: Tracer, worker_dir: str) -> None:
    """Serve-side wrappers, plus a dump of each forked worker's layers."""
    import repro.serve.admission as admission
    import repro.serve.coalescer as coalescer
    import repro.serve.engine as engine
    import repro.serve.protocol as protocol
    import repro.serve.server  # noqa: F401  (its from-imports get rebound)

    install(tracer)
    _wrap_methods(tracer, admission.AdmissionController, "serve", names=("admit",))
    _wrap_function(tracer, protocol, "parse_request", "serve.codec")
    _wrap_function(tracer, protocol, "canonical_encode", "serve.codec")

    add = tracer.wrap("serve", coalescer.Coalescer.add)
    due = tracer.wrap("serve", coalescer.Coalescer.due)
    flush_all = tracer.wrap("serve", coalescer.Coalescer.flush_all)

    def released(batches) -> None:
        now = time.perf_counter_ns()
        for batch in batches:
            for request in batch:
                t_in = tracer.enqueued.pop(id(request), None)
                if t_in is not None:
                    tracer.queue_wait_ns.append(now - t_in)
                    tracer.spans.append({
                        "id": request.id, "name": "request.queued", "parent": None,
                        "start_ns": t_in - tracer.started,
                        "end_ns": now - tracer.started,
                    })

    def add_traced(self, request, now):
        tracer.enqueued[id(request)] = time.perf_counter_ns()
        batch = add(self, request, now)
        if batch is not None:
            released([batch])
        return batch

    def due_traced(self, now):
        batches = due(self, now)
        released(batches)
        return batches

    def flush_traced(self):
        batches = flush_all(self)
        released(batches)
        return batches

    coalescer.Coalescer.add = add_traced
    coalescer.Coalescer.due = due_traced
    coalescer.Coalescer.flush_all = flush_traced

    execute = tracer.wrap("serve", engine.ServeEngine.execute_batch)

    def execute_traced(self, requests):
        t0 = time.perf_counter_ns()
        try:
            return execute(self, requests)
        finally:
            tracer.exec_ns.append(time.perf_counter_ns() - t0)

    engine.ServeEngine.execute_batch = execute_traced

    compute = engine.compute_batch

    def compute_traced(requests, fleet):
        if os.getpid() == tracer.pid:
            return compute(requests, fleet)
        # Forked worker: start from empty aggregates, time the batch,
        # and leave the layer totals for the launcher to merge.
        from repro.cache import CALIBRATION
        from repro.vector.program import REPLAY_METER

        misses = CALIBRATION.counters.misses
        tracer._lock = threading.Lock()  # the parent's may have been held
        tracer._tls.stack = []
        tracer._tls.agg = {}
        tracer.aggs = [(None, tracer._tls.agg)]
        tracer.calls.clear()
        t0 = time.perf_counter_ns()
        result = compute(requests, fleet)
        wall = time.perf_counter_ns() - t0
        meter = REPLAY_METER.snapshot()
        name = f"worker-{os.getpid()}-{t0}.json"
        with open(os.path.join(worker_dir, name), "w") as fh:
            json.dump({
                "wall_s": wall / 1e9,
                "calib_misses": CALIBRATION.counters.misses - misses,
                "totals_s": tracer.totals_s(),
                "calls": dict(tracer.calls),
                "meter": {k: v for k, v in meter.items() if not isinstance(v, dict)},
            }, fh)
        return result

    _replace_everywhere(compute, compute_traced)
