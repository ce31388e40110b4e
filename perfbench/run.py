"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: ``short_reads``, ``long_reads``, ``dp`` (Fig. 13a cells, see
``cells.py``) and ``serve`` (``python -m repro serve`` under load, see
``serve_load.py``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  NOTES.md explains
every workload and metric.

Every program process is fresh, with ``PYTHONHASHSEED=0`` and an empty
private ``REPRO_CACHE_DIR`` under ``.perfbench_tmp/`` in the checkout,
which is removed when the run ends.  The traced run writes its spans to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH, LAYERS, ROOT, BenchError, Workspace, child_env, metric, percentile,
    remaining_s,
)
from probe import slowness  # noqa: E402

WORKLOADS = ("short_reads", "long_reads", "dp", "serve")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Under ``--trace 1``, the untraced pass gets this share of ``--seconds``;
#: the traced pass then repeats exactly the same steps.
UNTRACED_SHARE = 0.4


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_batch_child(ws: Workspace, workload: str, seed: int, role: str,
                    seconds: float = 0.0, steps: "int | None" = None,
                    trace_out: "Path | None" = None) -> dict:
    out = ws.fresh("child") / "result.json"
    cmd = [
        sys.executable, str(BENCH / "batch.py"), "--workload", workload,
        "--seed", str(seed), "--role", role, "--out", str(out),
    ]
    if steps is not None:
        cmd += ["--steps", str(steps)]
    else:
        cmd += ["--seconds", repr(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--refs", str(ws.dir / "references.pickle")]
    env = child_env(ws.fresh("cache"))
    cmd += ["--spawned", repr(time.time())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=remaining_s(),
    )
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(
            f"{workload} child ({role}) exited {proc.returncode}:\n"
            + proc.stderr[-3000:]
        )
    with open(out) as fh:
        return json.load(fh)


def _normalized_steps(result: dict) -> "list[dict]":
    """Steady steps with ``norm_s``: seconds at the nominal host speed,
    scaled by the probe slices of the same round."""
    steady = result["steps"][result["steady_from"]:]
    if not steady:
        raise BenchError("no steady-state step completed")
    by_round: dict = {}
    for step in steady:
        units, secs = by_round.get(step["round"], (0, 0.0))
        by_round[step["round"]] = (units + step["probe_units"], secs + step["probe_s"])
    run_units = sum(u for u, _ in by_round.values())
    run_secs = sum(s for _, s in by_round.values())
    out = []
    for step in steady:
        units, secs = by_round[step["round"]]
        factor = slowness(units, secs) if units else slowness(run_units, run_secs)
        out.append(dict(step, norm_s=step["s"] / factor))
    return out


def _per_cell(steps, key: str) -> dict:
    cells: dict = {}
    for step in steps:
        cells.setdefault(step["cell"], []).append(step[key])
    return cells


def _throughput(steps, key: str) -> float:
    """Pairs per second of a round that runs one pair in every cell."""
    cells = _per_cell(steps, key)
    return len(cells) / sum(statistics.fmean(v) for v in cells.values())


def _trimmed_mean(values, share: float = 0.2) -> float:
    """Mean of ``values`` without the ``share`` smallest and largest."""
    ordered = sorted(values)
    k = int(len(ordered) * share)
    return statistics.fmean(ordered[k:len(ordered) - k])


def _latency_ms(steps, q: float, key: str = "norm_s") -> float:
    """Pair latency of the q-quantile cell: the q-quantile over cells of
    each cell's 20%-trimmed mean pair latency.

    Pooling pairs across cells whose times differ tenfold would put the
    quantile in the gap between two cells, and a cell runs too few pairs
    in a run for its own 90th percentile.  The trimmed mean is the plain
    mean of the 3-4 pairs a long_reads or dp cell runs (their median
    rests on one or two of them), and drops the outliers among the
    hundreds a short_reads cell runs.
    """
    cells = _per_cell(steps, key)
    return percentile([_trimmed_mean(v) * 1e3 for v in cells.values()], q)


def _setup_s(result: dict) -> float:
    setup = result["setup"]
    return setup["raw_s"] / slowness(setup["probe_units"], setup["probe_s"])


def _outcomes(results) -> dict:
    """(cell, pair) -> the first failure of that operation, or None.

    An operation is one cell aligning one pool pair.  The set-up
    processes and the timed loop may run it more than once; it failed if
    any run of it failed.
    """
    outcomes: dict = {}
    for result in results:
        for step in result["steps"]:
            key = (step["cell"], step["pair"])
            outcomes[key] = outcomes.get(key) or step.get("failure")
    return outcomes


def _counts(results) -> "tuple[int, int, bool]":
    """(attempted, failed, correct) over distinct operations; correct
    unless any step returned a wrong output.

    Every run covers its pools (``cells.min_rounds``) and a rerun of an
    operation is not counted again, so a pair that fails is counted the
    same number of times for a seed however many steps the host fits
    into the run.
    """
    outcomes = _outcomes(results)
    correct = not any(
        step.get("failure", "").startswith("wrong output")
        for result in results for step in result["steps"]
    )
    return len(outcomes), sum(f is not None for f in outcomes.values()), correct


def batch_end_to_end(ws: Workspace, workload: str, seed: int, seconds: float):
    setups = [
        run_batch_child(ws, workload, seed, "setup")
        for _ in range(SETUP_RUNS - 1)
    ]
    measured = run_batch_child(ws, workload, seed, "measure", seconds=seconds)
    steps = _normalized_steps(measured)
    results = setups + [measured]
    attempted, failed, correct = _counts(results)
    metrics = {
        "pairs_per_s": metric(_throughput(steps, "norm_s"), "pairs/s"),
        "latency_p50_ms": metric(_latency_ms(steps, 0.50), "ms"),
        "latency_p90_ms": metric(_latency_ms(steps, 0.90), "ms"),
        "setup_s": metric(statistics.median(_setup_s(r) for r in results), "s"),
        "peak_rss_mb": metric(measured["peak_rss_mb"], "MB"),
        "success_rate": metric(1.0 - failed / attempted, "ratio"),
    }
    return correct, attempted, failed, metrics, results


def batch_per_layer(ws: Workspace, workload: str, seed: int, seconds: float):
    untraced = run_batch_child(
        ws, workload, seed, "measure", seconds=seconds * UNTRACED_SHARE
    )
    n_steady = len(untraced["steps"]) - untraced["steady_from"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{workload}-{seed}.json"
    traced = run_batch_child(
        ws, workload, seed, "measure", steps=n_steady, trace_out=spans
    )
    attempted, failed, correct = _counts([untraced, traced])
    u_steps = _normalized_steps(untraced)
    t_steps = _normalized_steps(traced)
    trace = traced["trace"]
    totals = trace["totals_s"]
    meter = trace["meter"]
    calls = trace["calls"]
    traced_steps = traced["steps"]
    setup_round = untraced["steps"][: untraced["steady_from"]]
    norm_total = sum(s["norm_s"] for s in u_steps)
    raw_total = sum(s["s"] for s in u_steps)
    attributed = sum(totals.values())
    l1_access = sum(s.get("l1_accesses", 0) for s in traced_steps)
    memvec_seen = meter["memvec_pattern_hits"] + meter["memvec_pattern_misses"]
    metrics = {f"{layer}.self_s": metric(totals.get(layer, 0.0), "s") for layer in LAYERS}
    metrics.update({
        "harness.self_s": metric(totals.get("harness", 0.0), "s"),
        "machine.ops": metric(calls.get("machine", 0), "count"),
        "quetzal.ops": metric(calls.get("quetzal", 0), "count"),
        "replay.kernel_s": metric(meter["kernel_run_s"], "s"),
        "replay.compile_s": metric(meter["compile_s"], "s"),
        "replay.captures": metric(meter["captures"], "count"),
        "replay.hit_ratio": metric(
            meter["replayed_blocks"] / meter["total_blocks"] if meter["total_blocks"] else 0.0,
            "ratio"),
        "replay.kernel_cache_hits": metric(meter["kernel_cache_hits"], "count"),
        "memory.requests": metric(sum(s.get("mem_requests", 0) for s in traced_steps), "count"),
        "memory.l1_hit_ratio": metric(
            sum(s.get("l1_hits", 0) for s in traced_steps) / l1_access if l1_access else 0.0,
            "ratio"),
        "memory.model_clock_s": metric(meter["mem_model_s"], "s"),
        "memvec.replay_ratio": metric(
            meter["memvec_pattern_hits"] / memvec_seen if memvec_seen else 0.0, "ratio"),
        "fleet.occupancy": metric(0.0, "pairs"),
        "fleet.singleton_share": metric(0.0, "ratio"),
        "calib.misses": metric(trace["calib_misses"], "count"),
        "sim.cycles": metric(sum(s.get("cycles", 0) for s in setup_round), "cycles"),
        "sim.instructions": metric(sum(s.get("instructions", 0) for s in setup_round), "count"),
        "sim.minstr_per_s": metric(
            sum(s.get("instructions", 0) for s in u_steps) / norm_total / 1e6, "Minstr/s"),
        "host.pairs_per_s_raw": metric(_throughput(u_steps, "s"), "pairs/s"),
        "host.speed_factor": metric(norm_total / raw_total, "ratio"),
        "host.pair_ms_p50": metric(_latency_ms(u_steps, 0.50, "s"), "ms"),
        "host.pair_ms_p99": metric(_latency_ms(u_steps, 0.99, "s"), "ms"),
        "ops.attempted": metric(attempted, "count"),
        "ops.failed": metric(failed, "count"),
        "trace.wall_s": metric(trace["wall_s"], "s"),
        "trace.unattributed_s": metric(trace["wall_s"] - attributed, "s"),
        "trace.unattributed_share": metric(
            (trace["wall_s"] - attributed) / trace["wall_s"], "ratio"),
        "trace.overhead": metric(
            sum(s["norm_s"] for s in t_steps) / norm_total, "ratio"),
    })
    metrics.update(_serve_layer_placeholders())
    return correct, attempted, failed, metrics


def _serve_layer_placeholders() -> dict:
    """Serve-only layers read zero on the batch workloads (serve is off)."""
    return {
        "serve.self_s": metric(0.0, "s"),
        "serve.codec_s": metric(0.0, "s"),
        "serve.queue_wait_ms_p50": metric(0.0, "ms"),
        "serve.exec_ms_p50": metric(0.0, "ms"),
        "serve.batches": metric(0, "count"),
        "serve.batch_size_mean": metric(0.0, "requests"),
        "serve.rejected": metric(0, "count"),
        "serve.retries": metric(0, "count"),
        "serve.gen_late_ms_max": metric(0.0, "ms"),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    ws = Workspace(args.workload, args.seed)
    try:
        if args.workload == "serve":
            import serve_load

            run = serve_load.per_layer if args.trace else serve_load.end_to_end
            correct, attempted, failed, metrics = run(ws, args.seed, args.seconds)
        elif args.trace:
            correct, attempted, failed, metrics = batch_per_layer(
                ws, args.workload, args.seed, args.seconds)
        else:
            correct, attempted, failed, metrics, results = batch_end_to_end(
                ws, args.workload, args.seed, args.seconds)
            for (cell, pair), failure in _outcomes(results).items():
                if failure is not None:
                    print(f"FAILED {cell} pair {pair}: {failure}", file=sys.stderr)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        ws.remove()
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
