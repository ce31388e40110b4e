"""Tests for the process-pool experiment engine (repro.eval.parallel)."""

import pickle

import pytest

from repro.align.vectorized import WfaVec
from repro.errors import ReproError
from repro.eval import experiments as ex
from repro.eval.parallel import (
    WorkUnit,
    default_jobs,
    evaluate_cells,
    evaluate_units,
    merge_run_results,
    shard_units,
)
from repro.eval.reporting import render_table
from repro.eval.runner import make_machine, run_implementation
from repro.genomics.generator import ErrorProfile, ReadPairGenerator


def pairs(n=4, length=100, seed=3):
    gen = ReadPairGenerator(length, ErrorProfile(0.02, 0.005, 0.005), seed=seed)
    return tuple(gen.pairs(n))


class TestWorkUnit:
    def test_pickles_roundtrip(self):
        unit = WorkUnit(key=("k",), impl=WfaVec(), pairs=pairs(2))
        clone = pickle.loads(pickle.dumps(unit))
        assert clone.key == ("k",)
        assert clone.impl.name == "wfa-vec"
        assert len(clone.pairs) == 2
        assert str(clone.pairs[0].pattern) == str(unit.pairs[0].pattern)

    def test_shard_plan_is_jobs_independent(self):
        unit = WorkUnit(key="u", impl=WfaVec(), pairs=pairs(5))
        shards = shard_units(unit, 2)
        assert [len(s.pairs) for s in shards] == [2, 2, 1]
        assert [s.shard_index for s in shards] == [0, 1, 2]
        assert all(s.num_shards == 3 for s in shards)

    def test_shard_noop_when_larger_than_batch(self):
        unit = WorkUnit(key="u", impl=WfaVec(), pairs=pairs(3))
        assert shard_units(unit, 10) == [unit]

    def test_shard_size_must_be_positive(self):
        unit = WorkUnit(key="u", impl=WfaVec(), pairs=pairs(2))
        with pytest.raises(ReproError):
            shard_units(unit, 0)


class TestEvaluateUnits:
    def test_results_align_with_input_order(self):
        units = [
            WorkUnit(key=i, impl=WfaVec(), pairs=pairs(1, seed=i))
            for i in range(3)
        ]
        serial = evaluate_units(units, jobs=1)
        fanned = evaluate_units(units, jobs=2)
        for a, b in zip(serial, fanned):
            assert a.cycles == b.cycles
            assert a.instructions == b.instructions
            assert a.num_pairs == b.num_pairs

    def test_single_unit_runs_inline(self):
        units = [WorkUnit(key="only", impl=WfaVec(), pairs=pairs(1))]
        (result,) = evaluate_units(units, jobs=8)
        assert result.cycles > 0

    def test_merge_preserves_pair_order_and_totals(self):
        base = WorkUnit(key="u", impl=WfaVec(), pairs=pairs(5))
        shards = shard_units(base, 2)
        merged = merge_run_results(evaluate_units(shards, jobs=1))
        assert merged.num_pairs == 5
        reference = run_implementation(WfaVec(), pairs(5), shard_size=2)
        assert merged.cycles == reference.cycles
        assert merged.outputs == reference.outputs

    def test_merge_rejects_empty(self):
        with pytest.raises(ReproError):
            merge_run_results([])

    def test_duplicate_cell_keys_rejected(self):
        cells = [("k", WfaVec(), pairs(1)), ("k", WfaVec(), pairs(1))]
        with pytest.raises(ReproError):
            evaluate_cells(cells, jobs=1)


class TestRunShardedDeterminism:
    def test_sharded_identical_across_jobs(self):
        """Same shard plan => bit-identical results at any worker count."""
        batch = pairs(6, length=80)
        results = [
            run_implementation(WfaVec(), batch, shard_size=2, jobs=j)
            for j in (1, 2, 4)
        ]
        cycles = [[p.cycles for p in r.pair_results] for r in results]
        assert cycles[0] == cycles[1] == cycles[2]
        instr = [r.instructions for r in results]
        assert instr[0] == instr[1] == instr[2]
        assert results[0].outputs == results[1].outputs == results[2].outputs

    def test_unsharded_jobs_matches_plain_serial(self):
        """shard_size=None keeps the legacy single-machine semantics."""
        batch = pairs(3, length=80)
        serial = run_implementation(WfaVec(), batch)
        fanned = run_implementation(WfaVec(), batch, jobs=4)
        assert serial.cycles == fanned.cycles
        assert serial.instructions == fanned.instructions

    def test_live_machine_cannot_cross_processes(self):
        with pytest.raises(ReproError):
            run_implementation(
                WfaVec(), pairs(2), machine=make_machine(), jobs=2
            )


class TestExperimentDeterminism:
    def test_fig13a_slice_tables_identical(self):
        """Serial vs --jobs 2 vs --jobs 4: identical rows and rendering."""
        kwargs = dict(
            pairs_scale=0.05,
            algorithms=("wfa",),
            datasets=("100bp_1",),
            include_protein=False,
        )
        tables = [
            ex.fig13a_single_core(jobs=j, **kwargs) for j in (1, 2, 4)
        ]
        assert tables[0] == tables[1] == tables[2]
        rendered = [render_table(rows, "Fig. 13a") for rows in tables]
        assert rendered[0] == rendered[1] == rendered[2]
        cycles = [row["cycles"] for row in tables[0]]
        assert all(c > 0 for c in cycles)


class TestDefaultJobs:
    def test_env_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_env_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ReproError):
            default_jobs()
