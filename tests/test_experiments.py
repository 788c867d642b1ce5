"""Experiment harness tests: tables regenerate, figure engines produce the
paper's qualitative shapes at test scale."""

import pytest

from repro.config import CLUSTER1, OptimizationFlags
from repro.experiments import figures, report, tables
from repro.experiments.calibrate import single_task_times


class TestTables:
    def test_table1_matches_paper_catalogue(self):
        rows = tables.table1()
        names = [r["clause"] for r in rows]
        assert names[:2] == ["mapper", "combiner"]
        assert "kvpairs" in names and "texture" in names
        assert len(rows) == 14  # 2 directives + 12 clauses

    def test_table2_rows_and_na(self):
        rows = tables.table2()
        assert len(rows) == 8
        km = next(r for r in rows if "KM" in r["benchmark"])
        assert km["map_tasks_c2"] == "NA" and km["input_gb_c2"] == "NA"
        bs = next(r for r in rows if "BS" in r["benchmark"])
        assert bs["reduce_tasks_c1"] == 0  # map-only

    def test_table2_task_counts_match_paper(self):
        rows = {r["benchmark"].split("(")[1][:2]: r for r in tables.table2()}
        assert rows["GR"]["map_tasks_c1"] == 7632
        assert rows["WC"]["map_tasks_c1"] == 5760
        assert rows["BS"]["map_tasks_c2"] == 5120

    def test_table3_two_clusters(self):
        rows = tables.table3()
        assert [r["name"] for r in rows] == ["Cluster1", "Cluster2"]
        assert rows[0]["nodes"] == "48 (+1 master)"
        assert rows[1]["disk"] == "none"
        # The paper ran with speculative execution Off on both clusters.
        assert [r["speculative"] for r in rows] == ["Off", "Off"]

    def test_render_table_smoke(self):
        text = report.render_table(tables.table3(), "Table 3")
        assert "Cluster1" in text and "Cluster2" in text


class TestFig5:
    def test_subset_shape(self):
        points = figures.fig5(apps=["GR", "BS"])
        by_app = {p.app: p for p in points}
        # BS is the most compute-intensive: far larger task speedup.
        assert by_app["BS"].optimized_speedup > 5 * by_app["GR"].optimized_speedup

    def test_optimizations_never_hurt(self):
        for p in figures.fig5(apps=["WC", "KM"]):
            assert p.optimized_speedup >= p.baseline_speedup

    def test_render(self):
        text = report.render_fig5(figures.fig5(apps=["WC"]))
        assert "WC" in text


class TestFig6:
    def test_fractions_sum_to_one(self):
        for app, frac in figures.fig6(apps=["WC", "BS"]).items():
            assert sum(frac.values()) == pytest.approx(1.0)

    def test_paper_shapes(self):
        frac = figures.fig6(apps=["WC", "BS", "KM"])
        # WC: sort is the heavyweight (long string keys).
        assert frac["WC"]["sort"] > 1.5 * frac["WC"]["map"]
        # BS: output write dominates (map-only HDFS write, §7.4).
        assert frac["BS"]["output_write"] == max(frac["BS"].values())
        # Aggregation is negligible everywhere (Fig. 6 note).
        for app in frac:
            assert frac[app]["aggregate"] < 0.05


class TestFig7:
    def test_texture_ablation_direction(self):
        points = figures.fig7(subfigure="7a")
        assert {p.app for p in points} == {"KM", "CL"}
        for p in points:
            assert p.speedup > 1.0

    def test_aggregation_ablation_large(self):
        points = figures.fig7(subfigure="7e")
        assert max(p.speedup for p in points) > 2.0

    def test_render(self):
        text = report.render_fig7(figures.fig7(subfigure="7a"))
        assert "use_texture" in text


class TestCalibration:
    def test_cached_and_deterministic(self):
        a = single_task_times("WC", CLUSTER1)
        b = single_task_times("WC", CLUSTER1)
        assert a is b  # lru cache

    def test_scaling_preserves_ratio(self):
        t = single_task_times("WC", CLUSTER1)
        cpu, gpu = t.scaled(target_cpu_seconds=60.0)
        assert cpu == 60.0
        assert cpu / gpu == pytest.approx(t.gpu_speedup)

    def test_fig5_ordering_io_below_compute(self):
        io_apps = [single_task_times(s, CLUSTER1).gpu_speedup
                   for s in ("GR", "HS")]
        compute = [single_task_times(s, CLUSTER1).gpu_speedup
                   for s in ("CL", "BS")]
        assert max(io_apps) < min(compute)


class TestFig4SmallScale:
    def test_one_point_runs(self):
        points = figures.fig4(CLUSTER1, gpus_options=[1], apps=["WC"],
                              task_scale=0.1)
        assert len(points) == 2  # gpu-first + tail
        for p in points:
            assert p.speedup > 0.5
        text = report.render_fig4(points, "subset")
        assert "WC" in text

    def test_km_skipped_on_cluster2(self):
        from repro.config import CLUSTER2

        points = figures.fig4(CLUSTER2, gpus_options=[1], apps=["KM"],
                              task_scale=0.1)
        assert points == []  # Table 2 NA + GPU memory floor

    def test_geometric_mean(self):
        assert figures.geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
