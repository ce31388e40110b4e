"""Tests for the per-experiment timing micro-report (repro.eval.timing)."""

from repro.cache import CALIBRATION
from repro.eval import timing


class TestMeasure:
    def test_records_wall_time_and_history(self):
        history_before = len(timing.HISTORY)
        with timing.measure("unit-test", jobs=3) as record:
            pass
        assert record.seconds >= 0.0
        assert record.jobs == 3
        assert timing.HISTORY[-1] is record
        assert len(timing.HISTORY) == history_before + 1

    def test_cache_counter_window(self):
        with timing.measure("cache-window") as record:
            CALIBRATION.get(("timing-test-absent-key",))
        assert record.cache["misses"] >= 1

    def test_note_parallel_attaches_to_active_record(self):
        with timing.measure("fanout") as record:
            timing.note_parallel(units=16, workers=4)
            timing.note_parallel(units=8, workers=2)
        assert record.units == 24
        assert record.workers == 4

    def test_note_parallel_without_active_record_is_noop(self):
        timing.note_parallel(units=5, workers=5)  # must not raise

    def test_nested_measurements(self):
        with timing.measure("outer") as outer:
            with timing.measure("inner") as inner:
                timing.note_parallel(units=4, workers=2)
        assert inner.units == 4
        assert outer.units == 0


class TestRendering:
    def test_summary_mentions_cache_and_jobs(self):
        with timing.measure("summarised", jobs=2) as record:
            pass
        line = record.summary()
        assert "summarised" in line
        assert "jobs=2" in line
        assert "calibration cache" in line

    def test_render_report_lists_experiments(self):
        with timing.measure("report-a"):
            pass
        with timing.measure("report-b"):
            pass
        text = timing.render_report()
        assert "report-a" in text and "report-b" in text

    def test_render_report_empty(self):
        assert "no timing records" in timing.render_report([])


class TestReplayWindow:
    def test_measure_captures_replay_meter_delta(self):
        from repro.vector.program import REPLAY_METER

        with timing.measure("replay-window") as record:
            REPLAY_METER.captures += 1
            REPLAY_METER.replayed_blocks += 3
            REPLAY_METER.replayed_instructions += 27
        assert record.replay["captures"] == 1
        assert record.replay["replayed_blocks"] == 3
        assert record.replay["replayed_instructions"] == 27
        assert record.replay_hit_rate == 3 / 4

    def test_replay_window_on_real_run(self):
        from repro.align.vectorized import WfaVec
        from repro.eval.runner import make_machine
        from repro.genomics.generator import ReadPairGenerator

        pair = ReadPairGenerator(length=200, seed=5).pair()
        with timing.measure("replay-real") as record:
            WfaVec().run_pair(make_machine(), pair)
        assert record.replay["captures"] >= 1
        assert record.replay["replayed_instructions"] > 0
        assert 0.0 < record.replay_hit_rate <= 1.0

    def test_summary_and_report_mention_replay(self):
        with timing.measure("replay-summary") as record:
            pass
        assert "replay:" in record.summary()
        assert "block hit rate" in record.summary()
        text = timing.render_report([record])
        assert "replay_instr" in text and "replay_hit_rate" in text

    def test_hit_rate_zero_when_idle(self):
        with timing.measure("replay-idle") as record:
            pass
        assert record.replay_hit_rate == 0.0

    def test_mem_model_share_is_of_wall_time(self):
        # The memory-model clock also runs outside kernels (interpreter
        # indexed accesses), so it can exceed the kernel run time; its
        # share is of the experiment's wall time.
        record = timing.ExperimentTiming(
            name="mem-share",
            seconds=0.4,
            replay={
                "emissions": 1,
                "kernel_run_s": 0.01,
                "mem_model_s": 0.023,
            },
        )
        assert record.mem_model_share == 0.023 / 0.4
        assert "(mem model 0.02s, 6% of wall)" in record.summary()
        assert timing.ExperimentTiming(name="idle").mem_model_share == 0.0


class TestMeterReset:
    """Regression tests for the per-run replay-meter reset.

    ``REPLAY_METER`` is a process-global singleton; before the reset
    landed, back-to-back ``evaluate_units`` runs in one process
    accumulated counts and reported inflated hit rates.
    """

    def pair(self):
        from repro.genomics.generator import ReadPairGenerator

        return (ReadPairGenerator(length=80, seed=9).pair(),)

    def test_evaluate_units_resets_the_meter(self):
        from repro.align.vectorized import WfaVec
        from repro.eval.parallel import WorkUnit, evaluate_units
        from repro.vector.program import REPLAY_METER

        unit = WorkUnit(key="reset", impl=WfaVec(), pairs=self.pair())
        evaluate_units([unit], jobs=1)
        first = REPLAY_METER.snapshot()
        evaluate_units([unit], jobs=1)
        second = REPLAY_METER.snapshot()
        # Identical work from a clean meter: the second run's absolute
        # counts must match the first, not stack on top of them.  Wall
        # clocks and the codegen cold/warm counters legitimately differ
        # between the runs (the first may build a shape the second
        # finds in the per-shape table), so only the deterministic
        # replay counters are compared exactly.
        nondeterministic = {
            "compile_s", "kernel_run_s", "mem_model_s",
            "kernel_cache_hits", "emissions",
        }
        for key, value in first.items():
            if key in nondeterministic:
                continue
            assert second[key] == value, key
        assert first["total_blocks"] > 0
        # The second run must still be reset, not stacked: same replay
        # work, and the codegen window shows no new builds, only reuse
        # of the shapes the first run built.
        assert second["emissions"] == 0
        assert second["total_blocks"] == first["total_blocks"]

    def test_reset_reanchors_open_measure_windows(self):
        from repro.align.vectorized import WfaVec
        from repro.eval import timing
        from repro.eval.parallel import WorkUnit, evaluate_units
        from repro.vector.program import REPLAY_METER

        # Pollute the meter before the window opens, then run inside an
        # open measure window.  The reset inside evaluate_units would
        # make naive deltas (now - before) go negative; reset_run_meters
        # must re-anchor the window so the delta covers only the run.
        REPLAY_METER.replayed_blocks += 10_000
        REPLAY_METER.total_blocks += 10_000
        unit = WorkUnit(key="anchor", impl=WfaVec(), pairs=self.pair())
        with timing.measure("meter-reset-window") as record:
            evaluate_units([unit], jobs=1)
        scalars = {
            k: v for k, v in record.replay.items() if isinstance(v, int)
        }
        assert all(v >= 0 for v in scalars.values()), record.replay
        assert record.replay["replayed_blocks"] < 10_000
        assert 0.0 <= record.replay_hit_rate <= 1.0

    def test_window_spanning_two_runs_reports_their_sum(self):
        from repro.align.vectorized import WfaVec
        from repro.eval import timing
        from repro.eval.parallel import WorkUnit, evaluate_units
        from repro.vector.program import REPLAY_METER

        # An experiment such as fig13a makes several evaluate_units
        # calls inside one measure window, and each call resets the
        # meters: the window must report the sum of its runs, not only
        # the last one.
        unit = WorkUnit(key="two-runs", impl=WfaVec(), pairs=self.pair())
        evaluate_units([unit], jobs=1)  # warm caches and shapes
        evaluate_units([unit], jobs=1)
        one = REPLAY_METER.snapshot()
        with timing.measure("two-runs") as record:
            evaluate_units([unit], jobs=1)
            evaluate_units([unit], jobs=1)
        assert one["replayed_instructions"] > 0
        for key in (
            "captures", "replayed_blocks", "replayed_instructions",
            "interpreted_blocks", "interpreted_instructions",
            "total_blocks", "kernel_cache_hits", "emissions",
        ):
            assert record.replay[key] == 2 * one[key], key
