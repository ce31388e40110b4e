"""The ``serve`` workload: ``python -m repro serve`` under a fixed load.

The server runs with its default engine settings (one forked worker per
batch, fleet 4, ``--max-batch 16``, ``--max-wait 0.01``) on a unix socket
in the run's private directory.  Requests are short-read wfa-vec,
biwfa-vec and ss-vec alignments from two tenants, drawn from a pool of
96 seeded pairs; every sent request gets a fresh id.

* Set-up: launch to first response, three launches, each with an empty
  cache directory; the last server takes the load.
* Open loop: ``OPEN_RATE`` requests/s on a fixed schedule.  Latency runs
  from each request's *scheduled* send to its response, so a stall also
  delays the requests queued behind it; the generator's lateness is
  reported.
* Closed loop: ``CLOSED_WINDOW`` requests in flight (the server's
  ``--max-batch``); throughput is completions per second.

Each phase is cut into segments; between segments the server is idle
and the host-speed probe runs in this process.  Every response is
compared byte for byte with ``batch_reference_records``; a rejection,
error, mismatch or missing response is a failed request, and a stuck
segment times out instead of hanging.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import (
    BENCH, LAYERS, ROOT, BenchError, Workspace, child_env, metric, percentile,
    remaining_s,
)
from probe import Probe, slowness

#: Offered load of the open loop, about half of the closed-loop capacity
#: of the reference host.
OPEN_RATE = 30.0
CLOSED_WINDOW = 16
#: The server's default ``--max-wait``: a request that arrives at an idle
#: coalescer waits this long on a timer, whatever the host's speed.
MAX_WAIT_MS = 10.0
SEGMENTS = 3
#: Shares of ``--seconds`` given to the open and the closed loop.
OPEN_SHARE = 0.45
CLOSED_SHARE = 0.45
SETUP_RUNS = 3
PROBE_FRACTION = 0.25
#: A segment that has not finished this long after its last send fails.
SEGMENT_GRACE_S = 15.0
START_TIMEOUT_S = 20.0
UNTRACED_SHARE = 0.4


# ----------------------------------------------------------------------
# Requests and references
# ----------------------------------------------------------------------
class RequestSource:
    """Seeded request pool, byte-exact expected responses, fresh ids."""

    def __init__(self, ws: Workspace, seed: int) -> None:
        out = ws.fresh("refs") / "refs.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "serve_refs.py"), "--seed", str(seed),
             "--out", str(out)],
            cwd=ROOT, env=child_env(ws.fresh("cache")), capture_output=True,
            text=True, timeout=remaining_s(),
        )
        if proc.returncode != 0:
            raise BenchError(f"serve references failed:\n{proc.stderr[-3000:]}")
        with open(out) as fh:
            refs = json.load(fh)
        self.pool = refs["pool"]
        self.expected = {rid: json.loads(line) for rid, line in refs["expected"].items()}
        self._n = 0

    def next(self, prefix: str):
        """(id, request line, expected response line) with a fresh id."""
        base = self.pool[self._n % len(self.pool)]
        rid = f"{prefix}{self._n:06d}"
        self._n += 1
        return (
            rid, _encode(dict(base, id=rid)),
            _encode(dict(self.expected[base["id"]], id=rid)),
        )


def _encode(record: dict) -> str:
    """The protocol's canonical line encoding (sorted keys, no spaces)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    def __init__(self, ws: Workspace, trace_dir=None) -> None:
        # Relative paths keep the socket name under the 107-byte AF_UNIX
        # limit however deep the checkout is; server and client both run
        # from the checkout root.
        self.sock = os.path.relpath(ws.fresh("sock") / "serve.sock", ROOT)
        env = child_env(ws.fresh("cache"))
        if trace_dir is not None:
            cmd = [sys.executable, str(BENCH / "serve_launcher.py")]
            env["PERFBENCH_TRACE_OUT"] = str(trace_dir / "server.json")
            env["PERFBENCH_WORKER_DIR"] = str(trace_dir)
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        self.stderr_path = ws.fresh("log") / "server.err"
        self._stderr = open(self.stderr_path, "w")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + ["--unix", self.sock], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )

    async def connect(self):
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode}: {self.log()}")
            path = os.path.relpath(ROOT / self.sock)
            if os.path.exists(path):
                try:
                    return await asyncio.open_unix_connection(path, limit=1 << 22)
                except OSError:
                    pass
            if time.perf_counter() > deadline:
                raise BenchError("server did not start listening")
            await asyncio.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("server peak RSS unavailable")

    def stop(self) -> dict:
        """Graceful drain; returns the counters the server prints at exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()
        for line in reversed(self.log().splitlines()):
            if line.startswith("{"):
                return json.loads(line)
        return {}

    def log(self) -> str:
        with open(self.stderr_path) as fh:
            return fh.read()


# ----------------------------------------------------------------------
# Load phases
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    wrong: int = 0
    latencies_ms: list = dataclasses.field(default_factory=list)
    gen_late_ms: float = 0.0
    completed: int = 0
    records: list = dataclasses.field(default_factory=list)

    def judge(self, expected: str, line: "str | None") -> bool:
        """Count one request; True if it got the exact expected response."""
        self.attempted += 1
        if line == expected:
            self.completed += 1
            self.records.append(line)
            return True
        self.failed += 1
        if line is not None:
            status = json.loads(line).get("status")
            if status == "rejected":
                self.rejected += 1
            elif status == "ok":
                self.wrong += 1
        return False


async def first_response(server: Server, source: RequestSource, outcome: Outcome) -> float:
    """Connect, send one request; seconds from launch to its response."""
    reader, writer = await server.connect()
    _, line, expected = source.next("s")
    writer.write((line + "\n").encode())
    await writer.drain()
    try:
        got = await asyncio.wait_for(reader.readline(), START_TIMEOUT_S)
    except asyncio.TimeoutError:
        got = b""
    elapsed = time.perf_counter() - server.launched
    outcome.judge(expected, got.decode().rstrip("\n") or None)
    writer.close()
    return elapsed


async def open_segment(server: Server, source: RequestSource, count: int,
                       outcome: Outcome) -> None:
    sends = [source.next("o") for _ in range(count)]
    reader, writer = await server.connect()
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    due: dict = {}
    got: dict = {}

    async def sender():
        for i, (rid, line, _) in enumerate(sends):
            at = start + i / OPEN_RATE
            delay = at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.gen_late_ms = max(outcome.gen_late_ms, (loop.time() - at) * 1e3)
            due[rid] = at
            writer.write((line + "\n").encode())
            await writer.drain()
        writer.write_eof()

    async def receiver():
        while True:
            raw = await reader.readline()
            if not raw:
                return
            line = raw.decode().rstrip("\n")
            got[json.loads(line).get("id", "")] = (loop.time(), line)

    budget = count / OPEN_RATE + SEGMENT_GRACE_S
    try:
        await asyncio.wait_for(asyncio.gather(sender(), receiver()), budget)
    except asyncio.TimeoutError:
        pass
    finally:
        writer.close()
    for rid, _, expected in sends:
        arrived, line = got.get(rid, (None, None))
        if outcome.judge(expected, line):
            outcome.latencies_ms.append((arrived - due[rid]) * 1e3)
        else:
            outcome.latencies_ms.append(float("inf"))


async def closed_segment(server: Server, source: RequestSource, outcome: Outcome,
                         seconds: "float | None" = None,
                         count: "int | None" = None) -> "tuple[int, float]":
    """Keep ``CLOSED_WINDOW`` requests in flight for ``seconds`` (or until
    ``count`` were sent); returns (completions, wall seconds)."""
    reader, writer = await server.connect()
    loop = asyncio.get_running_loop()
    start = loop.time()
    inflight: dict = {}
    sent = 0
    done_before = outcome.completed
    last = start

    def more() -> bool:
        if count is not None:
            return sent < count
        return loop.time() - start < seconds

    def send_one() -> None:
        nonlocal sent
        rid, line, expected = source.next("c")
        inflight[rid] = expected
        writer.write((line + "\n").encode())
        sent += 1

    for _ in range(CLOSED_WINDOW):
        if more():
            send_one()
    await writer.drain()
    limit = (seconds or 0.0) + SEGMENT_GRACE_S + (count or 0) * 0.5
    try:
        while inflight:
            remaining = start + limit - loop.time()
            raw = await asyncio.wait_for(reader.readline(), max(0.001, remaining))
            if not raw:
                break
            line = raw.decode().rstrip("\n")
            last = loop.time()
            expected = inflight.pop(json.loads(line).get("id", ""), None)
            if expected is not None:
                outcome.judge(expected, line)
            if more():
                send_one()
                await writer.drain()
    except asyncio.TimeoutError:
        pass
    finally:
        writer.close()
    for expected in inflight.values():
        outcome.judge(expected, None)
    return outcome.completed - done_before, last - start


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
async def _session(ws: Workspace, source: RequestSource, probe: Probe,
                   seconds: float, setups: int, trace_dir=None,
                   closed_counts: "list | None" = None) -> dict:
    outcome = Outcome()
    setup_s = []
    server = None
    for i in range(setups):
        server = Server(ws, trace_dir if i == setups - 1 else None)
        try:
            raw = await first_response(server, source, outcome)
        except BaseException:
            server.stop()
            raise
        probe.run_for(raw * PROBE_FRACTION)
        setup_s.append(raw)
        if i < setups - 1:
            server.stop()
    try:
        seg = seconds * OPEN_SHARE / SEGMENTS
        for _ in range(SEGMENTS):
            await open_segment(server, source, max(1, round(seg * OPEN_RATE)), outcome)
            probe.run_for(seg * PROBE_FRACTION)
        closed = []
        for k in range(SEGMENTS):
            if closed_counts is None:
                n, wall = await closed_segment(
                    server, source, outcome, seconds=seconds * CLOSED_SHARE / SEGMENTS)
            else:
                n, wall = await closed_segment(
                    server, source, outcome, count=closed_counts[k])
            probe.run_for(wall * PROBE_FRACTION)
            closed.append((n, wall))
        rss = server.peak_rss_mb()
    finally:
        counters = server.stop()
    return {
        "outcome": outcome, "setup_s": setup_s, "closed": closed,
        "slowness": slowness(probe.units, probe.seconds), "rss_mb": rss,
        "counters": counters,
    }


def _run_session(*args) -> dict:
    """One session, cancelled (server stopped) at the run limit."""
    async def bounded():
        return await asyncio.wait_for(_session(*args), remaining_s())

    try:
        return asyncio.run(bounded())
    except asyncio.TimeoutError:
        raise BenchError("serve session ran past the run limit")


def _normalized_latency(ms: float, slowness_: float) -> float:
    """Scale the host-bound part of a latency, not the coalescer's timer."""
    return MAX_WAIT_MS + max(0.0, ms - MAX_WAIT_MS) / slowness_


def _closed_rate(closed) -> float:
    """Raw closed-loop completions per second."""
    done = sum(n for n, _ in closed)
    wall = sum(w for _, w in closed)
    if wall <= 0 or done == 0:
        raise BenchError("closed loop completed nothing")
    return done / wall


def end_to_end(ws: Workspace, seed: int, seconds: float):
    source = RequestSource(ws, seed)
    probe = Probe(PROBE_FRACTION)
    run = _run_session(ws, source, probe, seconds, SETUP_RUNS)
    out = run["outcome"]
    latencies = [_normalized_latency(v, run["slowness"]) for v in out.latencies_ms]
    metrics = {
        "pairs_per_s": metric(_closed_rate(run["closed"]) * run["slowness"], "pairs/s"),
        "latency_p50_ms": metric(percentile(latencies, 0.50), "ms"),
        "latency_p90_ms": metric(percentile(latencies, 0.90), "ms"),
        "setup_s": metric(statistics.median(run["setup_s"]) / run["slowness"], "s"),
        "peak_rss_mb": metric(run["rss_mb"], "MB"),
        "success_rate": metric(out.completed / out.attempted, "ratio"),
    }
    if out.failed:
        print(f"serve: {out.failed} of {out.attempted} requests failed "
              f"({out.rejected} rejected, {out.wrong} wrong)", file=sys.stderr)
    return out.wrong == 0, out.attempted, out.failed, metrics


def per_layer(ws: Workspace, seed: int, seconds: float):
    source = RequestSource(ws, seed)
    plain = _run_session(ws, source, Probe(PROBE_FRACTION), seconds * UNTRACED_SHARE, 1)
    trace_dir = ws.fresh("trace")
    counts = [n for n, _ in plain["closed"]]
    traced = _run_session(
        ws, source, Probe(PROBE_FRACTION), seconds * UNTRACED_SHARE, 1,
        trace_dir, counts)
    with open(trace_dir / "server.json") as fh:
        server = json.load(fh)
    workers = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-"):
            with open(trace_dir / name) as fh:
                workers.append(json.load(fh))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-serve-{seed}.json", "w") as fh:
        json.dump({"server": server, "workers": workers}, fh)
    totals: dict = {}
    meter: dict = {}
    for worker in workers:
        for layer, s in worker["totals_s"].items():
            totals[layer] = totals.get(layer, 0.0) + s
        for key, v in worker["meter"].items():
            if isinstance(v, (int, float)):
                meter[key] = meter.get(key, 0) + v
    worker_wall = sum(w["wall_s"] for w in workers)
    own = server["totals_s"]
    # Worker compute runs inside execute_batch: it is the exec span's child.
    serve_self = own.get("serve", 0.0) - worker_wall
    attributed = sum(totals.values()) + serve_self + own.get("serve.codec", 0.0)
    for layer, s in own.items():
        if layer not in ("serve", "serve.codec"):
            attributed += s
            totals[layer] = totals.get(layer, 0.0) + s
    p_out, t_out = plain["outcome"], traced["outcome"]
    records = [json.loads(line) for line in p_out.records]
    mem = [r["machine"]["mem"] for r in records]
    l1_access = sum(m["l1"]["hits"] + m["l1"]["misses"] for m in mem)
    fleet_rows = meter.get("fleet_pairs", 0) + meter.get("fleet_singleton", 0)
    closed_raw = sum(w for _, w in plain["closed"])
    closed_norm = closed_raw / plain["slowness"]
    done = sum(n for n, _ in plain["closed"])
    calls = {}
    for worker in workers:
        for layer, n in worker["calls"].items():
            calls[layer] = calls.get(layer, 0) + n
    counters = plain["counters"].get("engine", {})
    raw_open = [v for v in p_out.latencies_ms]
    memvec_seen = meter.get("memvec_pattern_hits", 0) + meter.get("memvec_pattern_misses", 0)
    pool_records = list(source.expected.values())
    metrics = {f"{layer}.self_s": metric(totals.get(layer, 0.0), "s") for layer in LAYERS}
    metrics.update({
        "harness.self_s": metric(0.0, "s"),
        "machine.ops": metric(calls.get("machine", 0), "count"),
        "quetzal.ops": metric(calls.get("quetzal", 0), "count"),
        "replay.kernel_s": metric(meter.get("kernel_run_s", 0.0), "s"),
        "replay.compile_s": metric(meter.get("compile_s", 0.0), "s"),
        "replay.captures": metric(meter.get("captures", 0), "count"),
        "replay.hit_ratio": metric(
            meter.get("replayed_blocks", 0) / meter["total_blocks"]
            if meter.get("total_blocks") else 0.0, "ratio"),
        "replay.kernel_cache_hits": metric(meter.get("kernel_cache_hits", 0), "count"),
        "memory.requests": metric(sum(m["requests"] for m in mem), "count"),
        "memory.l1_hit_ratio": metric(
            sum(m["l1"]["hits"] for m in mem) / l1_access if l1_access else 0.0, "ratio"),
        "memory.model_clock_s": metric(meter.get("mem_model_s", 0.0), "s"),
        "memvec.replay_ratio": metric(
            meter.get("memvec_pattern_hits", 0) / memvec_seen if memvec_seen else 0.0,
            "ratio"),
        "fleet.occupancy": metric(
            meter.get("fleet_pairs", 0) / meter["fleet_batches"]
            if meter.get("fleet_batches") else 0.0, "pairs"),
        "fleet.singleton_share": metric(
            meter.get("fleet_singleton", 0) / fleet_rows if fleet_rows else 0.0, "ratio"),
        "calib.misses": metric(sum(w.get("calib_misses", 0) for w in workers), "count"),
        "sim.cycles": metric(sum(r["cycles"] for r in pool_records), "cycles"),
        "sim.instructions": metric(sum(r["instructions"] for r in pool_records), "count"),
        "sim.minstr_per_s": metric(
            sum(r["instructions"] for r in records[-done:]) / closed_norm / 1e6 if done else 0.0,
            "Minstr/s"),
        "host.pairs_per_s_raw": metric(done / closed_raw, "pairs/s"),
        "host.speed_factor": metric(closed_norm / closed_raw, "ratio"),
        "host.pair_ms_p50": metric(percentile(raw_open, 0.50), "ms"),
        "host.pair_ms_p99": metric(percentile(raw_open, 0.99), "ms"),
        "ops.attempted": metric(p_out.attempted + t_out.attempted, "count"),
        "ops.failed": metric(p_out.failed + t_out.failed, "count"),
        "trace.wall_s": metric(server["wall_s"], "s"),
        "trace.unattributed_s": metric(server["wall_s"] - attributed, "s"),
        "trace.unattributed_share": metric(
            (server["wall_s"] - attributed) / server["wall_s"], "ratio"),
        "trace.overhead": metric(
            sum(w for _, w in traced["closed"]) / traced["slowness"] / closed_norm,
            "ratio"),
        "serve.self_s": metric(serve_self, "s"),
        "serve.codec_s": metric(own.get("serve.codec", 0.0), "s"),
        "serve.queue_wait_ms_p50": metric(server["queue_wait_ms_p50"], "ms"),
        "serve.exec_ms_p50": metric(server["exec_ms_p50"], "ms"),
        "serve.batches": metric(counters.get("batches", 0), "count"),
        "serve.batch_size_mean": metric(
            counters.get("completed", 0) / counters["batches"]
            if counters.get("batches") else 0.0, "requests"),
        "serve.rejected": metric(p_out.rejected, "count"),
        "serve.retries": metric(counters.get("retries", 0), "count"),
        "serve.gen_late_ms_max": metric(p_out.gen_late_ms, "ms"),
    })
    attempted = p_out.attempted + t_out.attempted
    failed = p_out.failed + t_out.failed
    return p_out.wrong == 0 and t_out.wrong == 0, attempted, failed, metrics
