"""Tests for the membatch micro-benchmark harness (``repro bench``)."""

import json

import pytest

from repro.errors import ReproError
from repro.eval import bench


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One quick run of the two fastest workloads, shared by the module."""
    out = tmp_path_factory.mktemp("bench") / "report.json"
    return bench.run_bench(
        quick=True, out=out, only=["stride_sweep", "random_gather"]
    )


class TestRunBench:
    def test_report_shape(self, quick_report):
        assert quick_report["quick"] is True
        assert set(quick_report["workloads"]) == {"stride_sweep", "random_gather"}
        for cell in quick_report["workloads"].values():
            assert set(cell) >= {
                "reps", "serial_s", "batched_s", "speedup", "stats_identical",
            }
            assert cell["serial_s"] >= 0 and cell["batched_s"] >= 0

    def test_both_paths_bit_identical(self, quick_report):
        for name, cell in quick_report["workloads"].items():
            assert cell["stats_identical"], name

    def test_report_written_to_disk(self, quick_report):
        on_disk = json.loads(open(quick_report["path"]).read())
        assert on_disk["workloads"].keys() == quick_report["workloads"].keys()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError, match="unknown bench workload"):
            bench.run_bench(quick=True, out=None, only=["nope"])

    def test_out_none_skips_write(self):
        report = bench.run_bench(quick=True, out=None, only=["random_gather"])
        assert "path" not in report


class TestCheckReport:
    def fake(self, identical=True, speedup=2.0):
        return {
            "workloads": {
                "stride_sweep": {
                    "reps": 1,
                    "serial_s": 0.2,
                    "batched_s": round(0.2 / speedup, 4),
                    "speedup": speedup,
                    "stats_identical": True,
                },
                "random_gather": {
                    "reps": 1,
                    "serial_s": 0.1,
                    "batched_s": 0.05,
                    "speedup": 2.0,
                    "stats_identical": identical,
                },
            }
        }

    def test_clean_report_passes(self):
        assert bench.check_report(self.fake()) == []

    def test_stats_divergence_fails(self):
        failures = bench.check_report(self.fake(identical=False))
        assert any("diverged" in f for f in failures)

    def test_gated_regression_fails(self):
        failures = bench.check_report(self.fake(speedup=0.9))
        assert any("slower than serial" in f for f in failures)

    def test_real_quick_report_passes_gate(self, quick_report):
        assert bench.check_report(quick_report) == []


class TestRender:
    def test_render_mentions_every_workload(self, quick_report):
        text = bench.render_report(quick_report)
        for name in quick_report["workloads"]:
            assert name in text
        assert "identical" in text


class TestReplayWorkloads:
    @pytest.fixture(scope="class")
    def replay_report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "replay.json"
        return bench.run_bench(
            quick=True, out=out, only=["replay_extend", "replay_ss"]
        )

    def test_replay_cells_present_and_identical(self, replay_report):
        cells = replay_report["workloads"]
        assert set(cells) == {"replay_extend", "replay_ss"}
        for name, cell in cells.items():
            assert cell["dimension"] == "replay", name
            assert cell["stats_identical"], name
            assert cell["serial_s"] > 0 and cell["batched_s"] > 0

    def test_replay_report_passes_gate(self, replay_report):
        # Quick mode exempts the speedup floor but still enforces the
        # bit-identity requirement on the replayed leg.
        bench.check_report(replay_report)

    def test_render_tags_replay_dimension(self, replay_report):
        text = bench.render_report(replay_report)
        assert "replay_extend" in text and "(replay)" in text


class TestProfileBench:
    def test_profile_smoke(self):
        text = bench.profile_bench(top=5, quick=True, only=["random_gather"])
        assert "cumulative" in text  # cProfile table header
        assert "random_gather" in text

    def test_profile_unknown_workload_rejected(self):
        with pytest.raises(ReproError, match="unknown bench workload"):
            bench.profile_bench(top=5, quick=True, only=["nope"])


class TestDimensionGates:
    def test_replay_dimension_is_speed_gated(self):
        report = {
            "workloads": {
                "replay_ss": {
                    "reps": 1, "serial_s": 0.1, "batched_s": 0.2,
                    "speedup": 0.5, "stats_identical": True,
                    "dimension": "replay",
                },
            }
        }
        failures = bench.check_report(report)
        assert any("slower than serial" in f for f in failures)


class TestCheckRegression:
    def report(self, quick, speedup):
        return {
            "quick": quick,
            "workloads": {
                "replay_extend": {
                    "reps": 1,
                    "serial_s": 0.2,
                    "batched_s": round(0.2 / speedup, 4),
                    "speedup": speedup,
                    "stats_identical": True,
                },
            },
        }

    def test_same_mode_uses_plain_floor(self):
        base = self.report(quick=False, speedup=2.0)
        ok = self.report(quick=False, speedup=1.85)
        bad = self.report(quick=False, speedup=1.7)
        assert bench.check_regression(ok, base, tolerance=0.10) == []
        assert bench.check_regression(bad, base, tolerance=0.10)

    def test_quick_report_vs_full_baseline_loosens(self):
        # Quick runs land lower than full runs: a quick 1.2x against a
        # committed full 2.0x must pass (floor 2.0 * 0.9 * 0.6 = 1.08)
        # but a collapse below the scaled floor must still fail.
        base = self.report(quick=False, speedup=2.0)
        ok = self.report(quick=True, speedup=1.2)
        bad = self.report(quick=True, speedup=1.0)
        assert bench.check_regression(ok, base, tolerance=0.10) == []
        assert bench.check_regression(bad, base, tolerance=0.10)

    def test_full_report_vs_quick_baseline_tightens(self):
        # The inverse direction must TIGHTEN, not loosen: a full run
        # judged against a warmup-dominated quick baseline of 1.2x
        # must clear 1.2 * 0.9 / 0.6 = 1.8x, not hide behind 0.65x.
        base = self.report(quick=True, speedup=1.2)
        ok = self.report(quick=False, speedup=1.85)
        bad = self.report(quick=False, speedup=1.5)
        assert bench.check_regression(ok, base, tolerance=0.10) == []
        failures = bench.check_regression(bad, base, tolerance=0.10)
        assert failures, "full-vs-quick floor failed to tighten"

    def test_missing_workload_cannot_fail(self):
        base = {"quick": False, "workloads": {}}
        rep = self.report(quick=False, speedup=0.1)
        assert bench.check_regression(rep, base, tolerance=0.10) == []
