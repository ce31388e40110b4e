"""End-to-end integration tests across substrates.

Each test exercises a realistic slice of the whole stack: datasets ->
simulated machine (+ accelerator) -> algorithms -> metrics.
"""

from repro.align.needleman_wunsch import nw_edit_distance
from repro.align.myers import myers_edit_distance
from repro.align.quetzal_impl import (
    SsQzc,
    SsWfaPipelineQzc,
    WfaQzc,
)
from repro.align.vectorized import WfaVec
from repro.config import QZ_1P, QZ_8P
from repro.eval.metrics import gcups, speedup
from repro.eval.runner import make_machine, run_implementation
from repro.genomics.datasets import build_dataset, build_protein_dataset


class TestDatasetDrivenRuns:
    def test_dna_dataset_end_to_end(self):
        ds = build_dataset("100bp_1", num_pairs=4)
        vec = run_implementation(WfaVec(), ds.pairs)
        qzc = run_implementation(WfaQzc(), ds.pairs)
        for pair, v_out, q_out in zip(ds.pairs, vec.outputs, qzc.outputs):
            truth = nw_edit_distance(pair.pattern, pair.text)
            assert v_out == q_out == truth
            # Cross-check with the independent bit-parallel oracle too.
            assert myers_edit_distance(pair.pattern, pair.text) == truth
        assert speedup(vec, qzc) > 1.0
        assert gcups(qzc, ds.pairs) > 0

    def test_protein_dataset_end_to_end(self):
        ds = build_protein_dataset(n_families=1, members=3, length=120)
        qzc = run_implementation(WfaQzc(), ds.pairs)
        for pair, out in zip(ds.pairs, qzc.outputs):
            assert out == nw_edit_distance(pair.pattern, pair.text)

    def test_pipeline_over_dataset(self):
        ds = build_dataset("100bp_1", num_pairs=4)
        pipeline = SsWfaPipelineQzc(threshold=ds.spec.edit_threshold)
        result = run_implementation(pipeline, ds.pairs, quetzal=True)
        for pair, (verdict, distance) in zip(ds.pairs, result.outputs):
            truth = nw_edit_distance(pair.pattern, pair.text)
            if verdict.accepted:
                assert distance == truth
            else:
                # SneakySnake never rejects a pair within the threshold.
                assert truth > ds.spec.edit_threshold


class TestConfigurationMatrix:
    def test_port_configs_are_functionally_identical(self):
        ds = build_dataset("100bp_1", num_pairs=2)
        outs = {}
        for config in (QZ_1P, QZ_8P):
            result = run_implementation(WfaQzc(), ds.pairs, quetzal=config)
            outs[config.name] = result.outputs
        assert outs["QZ_1P"] == outs["QZ_8P"]

    def test_shared_machine_across_algorithms(self):
        """One core runs the filter then the aligner (run-time switching,
        Section II-D observation 3)."""
        ds = build_dataset("100bp_1", num_pairs=2)
        machine = make_machine(quetzal=True)
        threshold = ds.spec.edit_threshold
        filt = run_implementation(
            SsQzc(threshold=threshold), ds.pairs, machine=machine
        )
        align = run_implementation(WfaQzc(), ds.pairs, machine=machine)
        assert all(v.accepted for v in filt.outputs)
        for pair, out in zip(ds.pairs, align.outputs):
            assert out == nw_edit_distance(pair.pattern, pair.text)

    def test_stats_accumulate_on_shared_machine(self):
        ds = build_dataset("100bp_1", num_pairs=2)
        machine = make_machine(quetzal=True)
        run_implementation(WfaQzc(), ds.pairs, machine=machine)
        total_after_first = machine.cycles
        run_implementation(WfaQzc(), ds.pairs, machine=machine)
        assert machine.cycles > total_after_first


class TestPaperFig1Example:
    """The paper's running example: the pair <ACAG, AAGT> (Fig. 1)."""

    PATTERN, TEXT = "ACAG", "AAGT"

    def test_every_distance_engine_agrees(self):
        from repro.align.biwfa import biwfa_edit_distance
        from repro.align.myers import myers_edit_distance
        from repro.align.wavefront import wfa_edit_distance

        reference = nw_edit_distance(self.PATTERN, self.TEXT)
        assert wfa_edit_distance(self.PATTERN, self.TEXT) == reference
        assert biwfa_edit_distance(self.PATTERN, self.TEXT) == reference
        assert myers_edit_distance(self.PATTERN, self.TEXT) == reference

    def test_simulated_styles_agree(self):
        from repro.genomics.generator import SequencePair
        from repro.genomics.sequence import Sequence

        pair = SequencePair(Sequence(self.PATTERN), Sequence(self.TEXT))
        reference = nw_edit_distance(self.PATTERN, self.TEXT)
        assert WfaVec().run_pair(make_machine(), pair).output == reference
        assert (
            WfaQzc().run_pair(make_machine(quetzal=True), pair).output
            == reference
        )

    def test_sneakysnake_grid_verdict(self):
        from repro.align.sneakysnake import sneakysnake_filter

        result = sneakysnake_filter(self.PATTERN, self.TEXT, threshold=3)
        assert result.accepted
        assert result.edits <= nw_edit_distance(self.PATTERN, self.TEXT)
