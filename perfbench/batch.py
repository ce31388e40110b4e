"""One batch-workload process: set-up, then steady-state steps.

Run by ``run.py`` in a fresh interpreter (``PYTHONHASHSEED=0``, an empty
private ``REPRO_CACHE_DIR``)::

    python3 perfbench/batch.py --workload W --seed N --role ROLE --out F
        --refs R [--seconds S | --steps K] [--spawned T] [--trace-out P]

Roles: ``setup`` stops once every cell has run one pair; ``measure``
continues with steady-state steps for ``--seconds``, and past them until
every pool pair has been run (or for exactly ``--steps``, to repeat a
measured run under tracing).  Every step's output is checked against a
reference computed outside the timed span; an exception or a wrong
output is a failed step, and the run goes on.  ``--refs`` is a file of
references shared by the processes of one run, read at start and
rewritten at the end, so no process recomputes another's.  The result
goes to ``--out`` as JSON; ``peak_rss_mb`` is read once every pool pair
has been run, so it measures a fixed amount of work for a seed.
"""

from __future__ import annotations

import time

_T_MAIN = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402

#: Share of each step's time the host-speed probe runs for, right after it.
PROBE_FRACTION = 0.1


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--spawned", type=float, default=_T_MAIN)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--refs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    setup_steps = {"startup": max(0.0, _T_MAIN - args.spawned)}
    t0 = time.perf_counter()
    from probe import Probe

    import cells as workload_cells
    import repro.cache
    import repro.eval.runner as runner
    from repro.vector.program import REPLAY_METER

    setup_steps["imports"] = time.perf_counter() - t0
    probe = Probe(PROBE_FRACTION)
    probe.after(setup_steps["startup"] + setup_steps["imports"])

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_from = time.perf_counter()

    def span(name, **attrs):
        return tracer.span(name, **attrs) if tracer else nullcontext()

    def harness(name):
        return tracer.harness(name) if tracer else nullcontext()

    def probe_after(seconds):
        with harness("harness.probe"):
            return probe.after(seconds)

    repro.cache.configure_from_env(default_disk=True)
    meter_before = REPLAY_METER.snapshot()
    calib_before = repro.cache.CALIBRATION.counters.copy()

    t0 = time.perf_counter()
    with span("setup.datasets"):
        pools = workload_cells.build_pools(args.workload, args.seed)
    setup_steps["datasets"] = time.perf_counter() - t0
    probe_after(setup_steps["datasets"])
    cells = workload_cells.build_cells(args.workload, pools)
    per_dataset = {}
    for cell in cells:
        per_dataset[cell.dataset] = per_dataset.get(cell.dataset, 0) + 1

    references: dict = {}
    if os.path.exists(args.refs):
        with open(args.refs, "rb") as fh:
            references = pickle.load(fh)  # written by an earlier process of this run
    steps = []
    reference_s = [0.0]  # wall time spent on references, kept off the budget

    def run_step(cell, round_no):
        pool = pools[cell.dataset].pairs
        index = workload_cells.pair_index(cell, round_no, per_dataset[cell.dataset], len(pool))
        pair = pool[index]
        key = (workload_cells.reference_key(cell), cell.dataset, index)
        if key not in references:
            t_ref = time.perf_counter()
            with harness("harness.reference"):
                references[key] = workload_cells.reference(cell, pair)
            reference_s[0] += time.perf_counter() - t_ref
        failure = None
        result = None
        with span("pair", cell=cell.name, pair=index, round=round_no):
            t = time.perf_counter()
            c = time.process_time()
            try:
                if cell.machine is None:
                    cell.machine = runner.make_machine(
                        quetzal=True if cell.impl.requires_quetzal else None
                    )
                result = runner.run_implementation(cell.impl, [pair], machine=cell.machine)
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - c
            elapsed = time.perf_counter() - t
        step = {
            "cell": cell.name, "pair": index, "round": round_no, "s": cpu,
            "wall_s": elapsed,
        }
        if result is not None:
            pr = result.pair_results[0]
            got = workload_cells.comparable(cell, pr.output)
            if got != references[key]:
                failure = f"wrong output: {got!r} != reference {references[key]!r}"
            mem = pr.stats.mem
            step.update(
                cycles=pr.cycles, instructions=pr.instructions,
                mem_requests=mem.requests, l1_hits=mem.l1.hits,
                l1_accesses=mem.l1.accesses,
            )
        if failure is not None:
            step["failure"] = failure
        step["probe_units"], step["probe_s"] = probe_after(cpu)
        steps.append(step)

    # Set-up ends once every cell has run one pair (round 0).
    for cell in cells:
        run_step(cell, 0)
    setup_steps["first_pairs"] = sum(s["wall_s"] for s in steps)
    setup = {
        "steps": setup_steps,
        "raw_s": sum(setup_steps.values()),
        "probe_units": probe.units,
        "probe_s": probe.seconds,
    }
    steady_from = len(steps)
    rounds = workload_cells.min_rounds(pools, per_dataset)
    peak_rss_mb = _peak_rss_mb()
    if args.role == "measure":
        t_steady = time.perf_counter() - reference_s[0]
        round_no = 1
        done = False
        while not done:
            for cell in cells:
                if args.steps is not None:
                    if len(steps) - steady_from >= args.steps:
                        done = True
                        break
                elif (round_no >= rounds and time.perf_counter() - reference_s[0]
                      - t_steady >= args.seconds):
                    done = True
                    break
                run_step(cell, round_no)
            else:
                if round_no == rounds - 1:
                    peak_rss_mb = _peak_rss_mb()
            round_no += 1

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": setup,
        "steps": steps,
        "steady_from": steady_from,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        meter = REPLAY_METER.delta(meter_before)
        calib = repro.cache.CALIBRATION.counters.delta(calib_before)
        out["trace"] = {
            "wall_s": time.perf_counter() - traced_from,
            "totals_s": tracer.totals_s(),
            "calls": dict(tracer.calls),
            "meter": {k: v for k, v in meter.items() if not isinstance(v, dict)},
            "calib_misses": calib.misses,
        }
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    with open(args.refs, "wb") as fh:
        pickle.dump(references, fh)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    main()
