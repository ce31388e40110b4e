"""Integration tests for the per-figure experiment entry points.

Each experiment runs at a tiny ``pairs_scale`` here; the benchmark suite
runs them at full scale.  These tests check structure and the headline
invariants, not exact magnitudes.
"""

from repro.eval import experiments as ex

SCALE = 0.08


class TestConfigurationTables:
    def test_table1_rows(self):
        rows = ex.table1_system()
        assert {r["parameter"] for r in rows} >= {"CPU", "Vector ISA", "DRAM"}

    def test_table2_rows(self):
        rows = ex.table2_datasets()
        assert len(rows) == 4

    def test_table3_rows(self):
        rows = ex.table3_area()
        assert [r["config"] for r in rows] == ["QZ_1P", "QZ_2P", "QZ_4P", "QZ_8P"]


class TestFig3:
    def test_structure_and_trend(self):
        rows = ex.fig3_vectorization(pairs_scale=SCALE)
        assert len(rows) == 8  # 2 algorithms x 4 datasets
        long = [r["speedup_vec_over_base"] for r in rows if r["regime"] == "long"]
        short = [r["speedup_vec_over_base"] for r in rows if r["regime"] == "short"]
        assert max(long) > min(short)


class TestFig4:
    def test_cache_share_in_band(self):
        rows = ex.fig4_breakdown(pairs_scale=SCALE)
        assert len(rows) == 6
        for r in rows:
            assert 0.0 <= r["cache_access_share"] <= 0.9


class TestFig12:
    def test_normalised_and_monotone(self):
        rows = ex.fig12_ports(pairs_scale=SCALE)
        series = [r["relative_performance"] for r in rows if r["dataset"] == "10Kbp"]
        assert series[0] == 1.0
        assert series[-1] >= series[0]


class TestFig13a:
    def test_modern_algorithms_ordering(self):
        rows = ex.fig13a_single_core(
            pairs_scale=SCALE,
            algorithms=("wfa", "ss"),
            datasets=("250bp_1",),
            include_protein=False,
        )
        sp = {
            (r["algorithm"], r["style"]): r["speedup_vs_baseline"] for r in rows
        }
        assert sp[("wfa", "qzc")] >= sp[("wfa", "qz")] > sp[("wfa", "base")]
        assert sp[("ss", "qzc")] > 1.0

    def test_protein_rows(self):
        rows = ex.fig13a_protein(pairs_scale=0.5)
        assert {r["algorithm"] for r in rows} == {"wfa", "biwfa", "ss"}
        qzc = [r for r in rows if r["style"] == "qzc"]
        assert all(r["speedup_vs_baseline"] > 1.0 for r in qzc)


class TestFig13b:
    def test_scaling_series(self):
        rows = ex.fig13b_multicore(
            pairs_scale=SCALE, core_counts=(1, 4, 16), datasets=("250bp_1",),
            bandwidth_sensitivity=False,
        )
        speedups = {r["cores"]: r["speedup_vs_1core"] for r in rows}
        assert speedups[1] == 1.0
        assert speedups[16] >= speedups[4] >= speedups[1]

    def test_bandwidth_sensitivity_rows(self):
        rows = ex.fig13b_multicore(
            pairs_scale=SCALE, core_counts=(1, 16), datasets=("250bp_1",),
            bandwidth_sensitivity=True,
        )
        constrained = [
            r["speedup_vs_1core"] for r in rows if "constrained" in r["memory"]
        ]
        nominal = [
            r["speedup_vs_1core"] for r in rows if r["memory"].startswith("HBM2")
        ]
        assert max(constrained) < max(nominal)


class TestFig14:
    def test_memory_request_reduction(self):
        rows = ex.fig14a_memory_requests(pairs_scale=SCALE)
        assert all(r["reduction"] > 1.0 for r in rows)

    def test_pipeline_speedup(self):
        rows = ex.fig14b_pipeline(pairs_scale=SCALE)
        assert all(r["speedup"] > 1.0 for r in rows)
        assert {r["dataset"] for r in rows} == {
            "100bp_1", "250bp_1", "10Kbp", "30Kbp"
        }


class TestFig15:
    def test_gpu_crossover(self):
        rows = ex.fig15a_gpu(pairs_scale=SCALE)
        wfa = {r["dataset"]: r for r in rows if r["gpu_tool"] == "WFA-GPU"}
        assert wfa["100bp_1"]["gpu_per_s"] > wfa["100bp_1"]["cpu_qzc_per_s"]
        assert wfa["30Kbp"]["cpu_qzc_per_s"] > wfa["30Kbp"]["gpu_per_s"]

    def test_other_domains(self):
        rows = ex.fig15b_other_domains(scale=0.2)
        by_kernel = {r["kernel"]: r["speedup"] for r in rows}
        assert by_kernel["histogram"] > 1.0
        assert by_kernel["spmv"] > 1.0


class TestTable4:
    def test_quetzal_rows_present(self):
        rows = ex.table4_gcups(pairs_scale=SCALE)
        designs = [r["design"] for r in rows]
        assert designs[0].startswith("QUETZAL")
        assert "GenASM" in designs
        assert all(r["pgcups_per_mm2"] > 0 for r in rows)
