"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro fig13a [--scale 0.2] [--jobs 8]
    python -m repro all --scale 0.1 --jobs 8 --verbose
    python -m repro fig4 --emit-json results/fig4.json --emit-csv results/fig4.csv
    python -m repro compare results/baselines/fig4.json results/fig4.json
    python -m repro serve --unix /tmp/repro.sock --max-batch 16
    python -m repro serve --smoke

``--jobs N`` fans experiment cells out across N worker processes
(default: the ``REPRO_JOBS`` environment variable, else fully serial);
tables are bit-identical at every jobs value.  Calibration measurements
persist under ``.repro_cache/`` between runs unless ``--no-cache`` (or
``REPRO_NO_CACHE=1``) is given.

``--emit-json``/``--emit-csv`` write schema-versioned result records
(rows + per-cell machine statistics: cycle breakdown, cache hit rates,
prefetch accuracy, DRAM traffic — see :mod:`repro.eval.records`); the
``compare`` subcommand diffs two such records with configurable
tolerances and exits non-zero on drift (:mod:`repro.eval.compare`).
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from pathlib import Path

from repro.cache import CALIBRATION, configure_from_env
from repro.errors import ReproError
from repro.eval import experiments as ex
from repro.eval import records, supervise, timing
from repro.eval.compare import Tolerances, compare_records, render_drifts
from repro.eval.parallel import default_jobs
from repro.eval.reporting import render_table
from repro.vector.machine import VectorMachine


def _disable_replay() -> None:
    """Turn the recorded-program replay engine off for this process.

    The environment variable makes the choice stick for worker
    processes (``repro.vector.machine`` reads it at import time), the
    class attribute covers machines built in this process.
    """
    os.environ["REPRO_NO_REPLAY"] = "1"
    VectorMachine.use_replay = False


#: Experiment id -> (callable, title, kwargs-name for scaling or None).
EXPERIMENTS = {
    "tab1": (ex.table1_system, "Table I: simulated system", None),
    "tab2": (ex.table2_datasets, "Table II: datasets", None),
    "fig3": (ex.fig3_vectorization, "Fig. 3: VEC speedup over baseline", "pairs_scale"),
    "fig4": (ex.fig4_breakdown, "Fig. 4: VEC execution-time breakdown", "pairs_scale"),
    "fig12": (ex.fig12_ports, "Fig. 12: read-port design space", "pairs_scale"),
    "tab3": (ex.table3_area, "Table III: area / power", None),
    "fig13a": (ex.fig13a_single_core, "Fig. 13a: single-core speedups", "pairs_scale"),
    "fig13b": (ex.fig13b_multicore, "Fig. 13b: multicore scaling", "pairs_scale"),
    "fig14a": (ex.fig14a_memory_requests, "Fig. 14a: memory-request reduction", "pairs_scale"),
    "fig14b": (ex.fig14b_pipeline, "Fig. 14b: SS+WFA pipeline", "pairs_scale"),
    "fig15a": (ex.fig15a_gpu, "Fig. 15a: CPU vs GPU throughput", "pairs_scale"),
    "fig15b": (ex.fig15b_other_domains, "Fig. 15b: other domains", "scale"),
    "tab4": (ex.table4_gcups, "Table IV: PGCUPS per area", "pairs_scale"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="QUETZAL reproduction: regenerate paper tables/figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset pair-count scale (default 1.0; use 0.1-0.3 for quick runs)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for experiment cells "
        "(default: $REPRO_JOBS, else 1 = serial; results are identical)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not persist calibration measurements under .repro_cache/",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="append per-experiment wall-time and cache-hit counters",
    )
    parser.add_argument(
        "--emit-json",
        metavar="PATH",
        default=None,
        help="write a schema-versioned result record (rows + machine "
        "stats); with 'all', PATH is a directory of <experiment>.json",
    )
    parser.add_argument(
        "--emit-csv",
        metavar="PATH",
        default=None,
        help="write the table rows as CSV; with 'all', PATH is a "
        "directory of <experiment>.csv",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="interpret every vector op instead of replaying recorded "
        "programs (results are bit-identical either way)",
    )
    add_supervise_arguments(parser)
    return parser


def add_supervise_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by experiment runs and ``run``."""
    group = parser.add_argument_group("supervision (fault tolerance)")
    group.add_argument(
        "--supervise",
        action="store_true",
        help="run units under the fault-tolerant supervisor: journal "
        "completed units under .repro_cache/runs/<run-id>/, retry "
        "crashed/hung workers, degrade to serial if the pool keeps dying",
    )
    group.add_argument(
        "--run-id",
        metavar="ID",
        default=None,
        help="name this run's checkpoint directory (implies --supervise; "
        "default: a generated timestamp id)",
    )
    group.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help="resume an interrupted run: restore completed units from "
        "its journal and compute only the rest (implies --supervise)",
    )
    group.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection, e.g. '2:kill@0,5:hang' "
        "(ORDINAL:ACTION[@ATTEMPT]; actions: kill, hang, raise; "
        "default: $REPRO_FAULT_PLAN; implies --supervise)",
    )
    group.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-unit worker timeout under supervision (default 300)",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget per unit under supervision (default 2)",
    )


def supervise_config_from_args(args) -> "supervise.SuperviseConfig | None":
    """Build the supervisor policy, or None when supervision is off.

    Supervision activates when any supervision flag is given or
    ``REPRO_SUPERVISE=1`` is set; a fault plan on the command line or in
    ``REPRO_FAULT_PLAN`` activates it too (there is nothing to inject
    faults into otherwise).
    """
    fault_spec = args.fault_plan or os.environ.get(supervise.FAULT_PLAN_ENV)
    wanted = (
        args.supervise
        or args.run_id is not None
        or args.resume is not None
        or fault_spec is not None
        or os.environ.get("REPRO_SUPERVISE", "") not in ("", "0", "false")
    )
    if not wanted:
        return None
    if args.resume is not None and args.run_id is not None:
        raise ReproError("--resume and --run-id are mutually exclusive")
    run_id = args.resume or args.run_id or supervise.generate_run_id()
    return supervise.SuperviseConfig(
        run_id=run_id,
        resume=args.resume is not None,
        timeout=args.timeout,
        retries=args.retries,
        fault_plan=supervise.FaultPlan.parse(fault_spec),
    )


def build_compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro compare",
        description="Diff two emitted result records; exit 1 on drift.",
    )
    parser.add_argument("baseline", help="baseline result JSON")
    parser.add_argument("current", help="result JSON to check against it")
    parser.add_argument(
        "--tol-cycles",
        type=float,
        default=Tolerances.cycles,
        help="relative cycle / row-value drift tolerance "
        f"(default {Tolerances.cycles})",
    )
    parser.add_argument(
        "--tol-instructions",
        type=float,
        default=Tolerances.instructions,
        help="relative instruction / request count drift tolerance "
        f"(default {Tolerances.instructions})",
    )
    parser.add_argument(
        "--tol-hit-rate",
        type=float,
        default=Tolerances.hit_rate,
        help="absolute hit-rate / prefetch-accuracy drift tolerance "
        f"(default {Tolerances.hit_rate})",
    )
    parser.add_argument(
        "--tol-dram",
        type=float,
        default=Tolerances.dram,
        help=f"relative DRAM-traffic drift tolerance (default {Tolerances.dram})",
    )
    parser.add_argument(
        "--no-rows",
        action="store_true",
        help="compare only machine statistics, not the rendered rows",
    )
    return parser


def compare_main(argv: "list[str]") -> int:
    """``python -m repro compare BASELINE CURRENT [--tol-*]``."""
    args = build_compare_parser().parse_args(argv)
    tolerances = Tolerances(
        cycles=args.tol_cycles,
        instructions=args.tol_instructions,
        requests=args.tol_instructions,
        dram=args.tol_dram,
        hit_rate=args.tol_hit_rate,
    )
    baseline = records.read_json(args.baseline)
    current = records.read_json(args.current)
    drifts = compare_records(
        baseline, current, tolerances, include_rows=not args.no_rows
    )
    print(render_drifts(drifts, args.baseline, args.current))
    return 1 if drifts else 0


def _emit_path(base: str, name: str, suffix: str, multi: bool) -> Path:
    """Resolve an emit target: a file for one experiment, a directory
    of ``<experiment><suffix>`` files for an ``all`` run."""
    if multi:
        return Path(base) / f"{name}{suffix}"
    return Path(base)


def run_experiment(
    name: str,
    scale: float,
    jobs: int = 1,
    verbose: bool = False,
    emit_json: "str | None" = None,
    emit_csv: "str | None" = None,
    multi: bool = False,
) -> str:
    """Run one experiment and render its table (plus timing footer).

    ``emit_json``/``emit_csv`` additionally write the machine-readable
    record (rows plus the per-cell machine statistics captured while the
    experiment ran); ``multi`` treats the emit paths as directories.
    """
    fn, title, scale_kw = EXPERIMENTS[name]
    kwargs = {scale_kw: scale} if scale_kw else {}
    if "jobs" in inspect.signature(fn).parameters:
        kwargs["jobs"] = jobs
    start = time.time()
    with timing.measure(name, jobs=jobs) as record:
        with records.capture() as captured:
            rows = fn(**kwargs)
    elapsed = time.time() - start
    out = render_table(rows, title) + f"\n[{name}: {elapsed:.1f}s]"
    if verbose:
        out += f"\n[{record.summary()}]"
    if emit_json is not None:
        result_record = records.experiment_record(
            name,
            title,
            rows,
            scale=scale,
            jobs=jobs,
            machines=captured.machine_records(),
        )
        path = records.write_json(
            result_record, _emit_path(emit_json, name, ".json", multi)
        )
        out += f"\n[wrote {path}]"
    if emit_csv is not None:
        path = records.write_csv(rows, _emit_path(emit_csv, name, ".csv", multi))
        out += f"\n[wrote {path}]"
    return out


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Resume an interrupted supervised run from its journal "
        "(the experiment, scale and emit targets are read from the run's "
        "recorded metadata).",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        required=True,
        help="run id to resume (a directory under .repro_cache/runs/)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="override the recorded worker count",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="override the recorded dataset scale (normally unwise: "
        "changed units will not match the journal and are recomputed)",
    )
    parser.add_argument(
        "--emit-json", metavar="PATH", default=None,
        help="override the recorded JSON emit target",
    )
    parser.add_argument(
        "--emit-csv", metavar="PATH", default=None,
        help="override the recorded CSV emit target",
    )
    parser.add_argument("--verbose", "-v", action="store_true")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--no-replay", action="store_true")
    parser.add_argument(
        "--fault-plan", metavar="SPEC", default=None,
        help="inject faults into the resumed run too (testing only)",
    )
    parser.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS")
    parser.add_argument("--retries", type=int, default=2, metavar="N")
    return parser


def run_main(argv: "list[str]") -> int:
    """``python -m repro run --resume RUN_ID`` — finish an interrupted run."""
    args = build_run_parser().parse_args(argv)
    configure_from_env(default_disk=not args.no_cache)
    if args.no_cache:
        CALIBRATION.disable_disk()
    if args.no_replay:
        _disable_replay()
    meta = supervise.read_meta(args.resume)
    experiment = meta.get("experiment")
    if experiment != "all" and experiment not in EXPERIMENTS:
        raise ReproError(
            f"run {args.resume!r} records unknown experiment {experiment!r}"
        )
    fault_spec = args.fault_plan or os.environ.get(supervise.FAULT_PLAN_ENV)
    config = supervise.SuperviseConfig(
        run_id=args.resume,
        resume=True,
        timeout=args.timeout,
        retries=args.retries,
        fault_plan=supervise.FaultPlan.parse(fault_spec),
    )
    scale = args.scale if args.scale is not None else meta.get("scale", 1.0)
    jobs = args.jobs if args.jobs is not None else int(meta.get("jobs", 1))
    emit_json = args.emit_json if args.emit_json is not None else meta.get("emit_json")
    emit_csv = args.emit_csv if args.emit_csv is not None else meta.get("emit_csv")
    return _run_supervised(
        config,
        experiment,
        scale=scale,
        jobs=jobs,
        verbose=args.verbose,
        emit_json=emit_json,
        emit_csv=emit_csv,
    )


def _run_experiments(
    experiment: str,
    scale: float,
    jobs: int,
    verbose: bool,
    emit_json: "str | None",
    emit_csv: "str | None",
) -> None:
    """Run one experiment id (or 'all') and print the rendered tables."""
    if experiment == "all":
        for name in EXPERIMENTS:
            print(
                run_experiment(
                    name, scale, jobs=jobs, verbose=verbose,
                    emit_json=emit_json, emit_csv=emit_csv, multi=True,
                )
            )
            print()
        if verbose:
            print(timing.render_report())
        return
    print(
        run_experiment(
            experiment, scale, jobs=jobs, verbose=verbose,
            emit_json=emit_json, emit_csv=emit_csv,
        )
    )


def _run_supervised(
    config: "supervise.SuperviseConfig",
    experiment: str,
    scale: float,
    jobs: int,
    verbose: bool,
    emit_json: "str | None",
    emit_csv: "str | None",
) -> int:
    """Run experiments under a supervisor; one run id spans them all."""
    with supervise.activate(config) as supervisor:
        supervisor.write_meta(
            {
                "experiment": experiment,
                "scale": scale,
                "jobs": jobs,
                "emit_json": emit_json,
                "emit_csv": emit_csv,
            }
        )
        try:
            _run_experiments(experiment, scale, jobs, verbose, emit_json, emit_csv)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            print(
                f"[run {config.run_id}: completed units are journaled under "
                f"{supervisor.directory}]",
                file=sys.stderr,
            )
            return 3
    print(f"[{supervisor.report.summary()}]")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        try:
            return compare_main(argv[1:])
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if argv[:1] == ["run"]:
        try:
            return run_main(argv[1:])
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if argv[:1] == ["serve"]:
        from repro.serve.cli import serve_main

        try:
            return serve_main(argv[1:])
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, (_, title, _) in EXPERIMENTS.items():
            print(f"{name:<8} {title}")
        return 0
    try:
        jobs = args.jobs if args.jobs is not None else default_jobs()
        supervise_cfg = supervise_config_from_args(args)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if jobs < 1:
        print(f"--jobs must be positive: {jobs}", file=sys.stderr)
        return 2
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    configure_from_env(default_disk=not args.no_cache)
    if args.no_cache:
        CALIBRATION.disable_disk()
    if args.no_replay:
        _disable_replay()
    if supervise_cfg is not None:
        return _run_supervised(
            supervise_cfg,
            args.experiment,
            scale=args.scale,
            jobs=jobs,
            verbose=args.verbose,
            emit_json=args.emit_json,
            emit_csv=args.emit_csv,
        )
    _run_experiments(
        args.experiment, args.scale, jobs, args.verbose,
        args.emit_json, args.emit_csv,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
