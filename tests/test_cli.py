"""Tests for the command-line interface."""

import json

import pytest

from repro.cache import CALIBRATION
from repro.cli import (
    EXPERIMENTS,
    build_compare_parser,
    build_parser,
    build_run_parser,
    main,
    run_experiment,
    supervise_config_from_args,
)
from repro.eval import records, supervise


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.experiment == "fig3"
        assert args.scale == 1.0
        assert args.jobs is None
        assert args.no_cache is False
        assert args.verbose is False

    def test_scale(self):
        args = build_parser().parse_args(["fig3", "--scale", "0.25"])
        assert args.scale == 0.25

    def test_jobs_flag(self):
        assert build_parser().parse_args(["fig3", "--jobs", "8"]).jobs == 8
        assert build_parser().parse_args(["fig3", "-j", "2"]).jobs == 2

    def test_cache_and_verbose_flags(self):
        args = build_parser().parse_args(["fig3", "--no-cache", "-v"])
        assert args.no_cache is True
        assert args.verbose is True

    def test_emit_flags_default_off(self):
        args = build_parser().parse_args(["fig3"])
        assert args.emit_json is None
        assert args.emit_csv is None

    def test_emit_flags_take_paths(self):
        args = build_parser().parse_args(
            ["fig3", "--emit-json", "a.json", "--emit-csv", "b.csv"]
        )
        assert args.emit_json == "a.json"
        assert args.emit_csv == "b.csv"

    def test_compare_parser_defaults(self):
        args = build_compare_parser().parse_args(["base.json", "cur.json"])
        assert args.baseline == "base.json"
        assert args.current == "cur.json"
        assert args.tol_cycles == 0.02
        assert args.tol_hit_rate == 0.01
        assert args.no_rows is False

    def test_compare_parser_tolerance_overrides(self):
        args = build_compare_parser().parse_args(
            ["b.json", "c.json", "--tol-cycles", "0.1", "--no-rows"]
        )
        assert args.tol_cycles == 0.1
        assert args.no_rows is True


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_tab1(self, capsys):
        assert main(["tab1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "A64FX" in out

    def test_run_scaled_fig15b(self, capsys):
        assert main(["fig15b", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "histogram" in out and "spmv" in out


class TestRunExperiment:
    def test_reports_timing(self):
        out = run_experiment("tab2", scale=1.0)
        assert "[tab2:" in out
        assert "100bp_1" in out

    def test_verbose_appends_micro_report(self):
        out = run_experiment("tab2", scale=1.0, jobs=2, verbose=True)
        assert "jobs=2" in out
        assert "calibration cache" in out

    def test_every_registered_id_is_callable(self):
        for name, (fn, title, scale_kw) in EXPERIMENTS.items():
            assert callable(fn)
            assert title
            assert scale_kw in (None, "pairs_scale", "scale")

    def test_jobs_flag_reaches_experiments(self, capsys):
        """--jobs must parse and run end-to-end on a tiny slice."""
        assert main(["fig4", "--scale", "0.05", "--jobs", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out


class TestEmitAndCompare:
    @pytest.fixture(scope="class")
    def emitted(self, tmp_path_factory):
        """One tiny fig4 run emitted as JSON + CSV, shared by the class."""
        out_dir = tmp_path_factory.mktemp("emit")
        json_path = out_dir / "fig4.json"
        csv_path = out_dir / "fig4.csv"
        rc = main([
            "fig4", "--scale", "0.05", "--no-cache",
            "--emit-json", str(json_path), "--emit-csv", str(csv_path),
        ])
        assert rc == 0
        return json_path, csv_path

    def test_emitted_record_shape(self, emitted):
        json_path, csv_path = emitted
        record = records.read_json(json_path)
        assert record["experiment"] == "fig4"
        assert record["params"]["scale"] == 0.05
        assert record["rows"]
        assert record["machines"], "per-cell machine stats must be captured"
        cell = next(iter(record["machines"].values()))
        assert cell["cycles"] > 0
        assert 0.0 <= cell["mem"]["l1"]["hit_rate"] <= 1.0
        assert "breakdown" in cell
        header = csv_path.read_text().splitlines()[0]
        assert "implementation" in header or "," in header

    def test_self_compare_passes(self, emitted, capsys):
        json_path, _ = emitted
        assert main(["compare", str(json_path), str(json_path)]) == 0
        assert capsys.readouterr().out.startswith("OK")

    def test_injected_cycle_regression_fails_compare(
        self, emitted, tmp_path, capsys
    ):
        """Acceptance: a 6% cycle inflation must fail the compare gate."""
        json_path, _ = emitted
        record = records.read_json(json_path)
        for cell in record["machines"].values():
            cell["cycles"] = int(cell["cycles"] * 1.06)
        mutated = tmp_path / "regressed.json"
        mutated.write_text(json.dumps(record))
        rc = main(["compare", str(json_path), str(mutated), "--no-rows"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DRIFT" in out and "cycles" in out

    def test_compare_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert rc == 2
        assert "no such result file" in capsys.readouterr().err


class TestSuperviseFlags:
    def parse(self, *extra):
        return build_parser().parse_args(["fig3", *extra])

    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
        monkeypatch.delenv(supervise.FAULT_PLAN_ENV, raising=False)
        assert supervise_config_from_args(self.parse()) is None

    def test_supervise_flag_activates(self, monkeypatch):
        monkeypatch.delenv(supervise.FAULT_PLAN_ENV, raising=False)
        cfg = supervise_config_from_args(self.parse("--supervise"))
        assert cfg is not None
        assert cfg.resume is False
        assert cfg.fault_plan is None

    def test_run_id_and_policy_flags(self, monkeypatch):
        monkeypatch.delenv(supervise.FAULT_PLAN_ENV, raising=False)
        cfg = supervise_config_from_args(
            self.parse(
                "--run-id", "myrun", "--timeout", "7", "--retries", "5",
                "--fault-plan", "1:kill@0",
            )
        )
        assert cfg.run_id == "myrun"
        assert cfg.timeout == 7.0
        assert cfg.retries == 5
        assert cfg.fault_plan.lookup(1, 0) == "kill"

    def test_resume_implies_resume_config(self, monkeypatch):
        monkeypatch.delenv(supervise.FAULT_PLAN_ENV, raising=False)
        cfg = supervise_config_from_args(self.parse("--resume", "old"))
        assert cfg.run_id == "old"
        assert cfg.resume is True

    def test_resume_and_run_id_conflict(self, monkeypatch):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="mutually exclusive"):
            supervise_config_from_args(
                self.parse("--resume", "a", "--run-id", "b")
            )

    def test_fault_plan_env_activates(self, monkeypatch):
        monkeypatch.setenv(supervise.FAULT_PLAN_ENV, "0:raise@0")
        cfg = supervise_config_from_args(self.parse())
        assert cfg is not None
        assert cfg.fault_plan.lookup(0, 0) == "raise"

    def test_run_parser_requires_resume(self):
        with pytest.raises(SystemExit):
            build_run_parser().parse_args([])
        args = build_run_parser().parse_args(["--resume", "x", "-j", "4"])
        assert args.resume == "x" and args.jobs == 4


class TestSupervisedEndToEnd:
    @pytest.fixture
    def run_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CALIBRATION, "directory", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv(supervise.FAULT_PLAN_ENV, raising=False)
        monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
        return tmp_path / "runs"

    def test_supervised_run_emits_identical_record(
        self, run_root, tmp_path, capsys
    ):
        plain = tmp_path / "plain.json"
        supervised = tmp_path / "supervised.json"
        assert main(
            ["fig4", "--scale", "0.05", "--no-cache",
             "--emit-json", str(plain)]
        ) == 0
        assert main(
            ["fig4", "--scale", "0.05", "--no-cache", "--run-id", "sup",
             "--emit-json", str(supervised)]
        ) == 0
        assert plain.read_bytes() == supervised.read_bytes()
        out = capsys.readouterr().out
        assert "run sup" in out
        assert (run_root / "sup" / "report.json").exists()
        assert (run_root / "sup" / "meta.json").exists()
        assert (run_root / "sup" / "journal.jsonl").exists()

    def test_interrupt_and_resume_via_run_subcommand(
        self, run_root, tmp_path, capsys
    ):
        reference = tmp_path / "ref.json"
        resumed = tmp_path / "resumed.json"
        assert main(
            ["fig4", "--scale", "0.05", "--no-cache",
             "--emit-json", str(reference)]
        ) == 0
        # Interrupt: unit 0 is killed in-process (simulating a dead
        # operator process); completed state stays journaled.
        rc = main(
            ["fig4", "--scale", "0.05", "--no-cache", "--run-id", "broken",
             "--retries", "0", "--fault-plan", "1:kill",
             "--emit-json", str(tmp_path / "broken.json")]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "journaled" in err
        # Resume re-reads experiment/scale/emit target from meta.json.
        assert main(
            ["run", "--resume", "broken", "--emit-json", str(resumed)]
        ) == 0
        out = capsys.readouterr().out
        assert "restored" in out
        assert reference.read_bytes() == resumed.read_bytes()

    def test_run_subcommand_unknown_id(self, run_root, capsys):
        assert main(["run", "--resume", "never-existed"]) == 2
        assert "no such run" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_parser_defaults(self):
        from repro.serve.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.unix is None
        assert args.port is None
        assert args.stdio is False
        assert args.max_batch == 16
        assert args.max_wait == 0.01
        assert args.rate == 0.0
        assert args.max_pending == 256
        assert args.workers == 1
        assert args.retries == 2
        assert args.journal is None
        assert args.fault_plan is None
        assert args.smoke is False

    def test_serve_help_documents_the_surface(self, capsys):
        from repro.serve.cli import build_serve_parser

        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--unix", "--port", "--stdio", "--max-batch", "--max-wait",
            "--rate", "--burst", "--max-pending", "--workers",
            "--journal", "--fault-plan", "--smoke", "--no-replay",
        ):
            assert flag in out

    def test_serve_requires_exactly_one_transport(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one transport" in capsys.readouterr().err
        assert main(["serve", "--unix", "/tmp/x.sock", "--stdio"]) == 2

    def test_serve_config_from_args(self):
        from repro.serve.cli import _config_from_args, build_serve_parser

        args = build_serve_parser().parse_args([
            "--unix", "/tmp/s.sock", "--max-batch", "8",
            "--max-wait", "0.5", "--rate", "10", "--max-pending", "4",
            "--workers", "0", "--retries", "1",
            "--fault-plan", "0:kill@0",
        ])
        config = _config_from_args(args)
        assert config.unix_path == "/tmp/s.sock"
        assert config.max_batch == 8 and config.max_wait == 0.5
        assert config.rate == 10.0 and config.max_pending == 4
        assert config.engine.workers == 0
        assert config.engine.retries == 1
        assert config.engine.fault_plan.to_spec() == "0:kill@0"

    def test_serve_smoke_gates_identity(self, capsys):
        rc = main([
            "serve", "--smoke", "--smoke-requests", "4",
            "--smoke-rate", "500", "--impl", "ss-vec",
            "--workers", "0", "--no-cache",
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completed"] == 4
        assert summary["dropped"] == 0
        assert summary["errors"] == 0
        assert summary["identity_mismatches"] == 0

    def test_stdio_transport_round_trips(self, tmp_path):
        import subprocess
        import sys as _sys

        from repro.serve.client import request_line
        from repro.serve.protocol import AlignRequest

        request = AlignRequest(
            id="s1", tenant="t", impl="ss-vec",
            pattern="ACGTACGTACGTACGT", text="ACGTACGTACGTACGT",
        )
        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "serve", "--stdio",
             "--workers", "0", "--no-cache", "--max-wait", "0.001"],
            input=(request_line(request) + "\nnot json\n").encode("utf-8"),
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        lines = proc.stdout.decode().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["status"] for r in records] == ["ok", "invalid"]
        assert records[0]["id"] == "s1"
        counters = json.loads(proc.stderr.decode().splitlines()[-1])
        assert counters["served"] == 2
