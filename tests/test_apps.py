"""End-to-end application tests: for every Table 2 benchmark, the CPU
path, the GPU path, and the pure-Python reference must agree after the
reduce phase — the single most important correctness property of the
reproduction (one source, two processors, same answer)."""

import math

import pytest

from repro.apps import all_apps, get_app
from repro.config import CLUSTER1
from repro.hadoop.local import LocalJobRunner
from repro.hadoop.tasks import SlotKind
from repro.scenarios import APP_ORDER, EXTENDED_APP_ORDER, PAPER_APP_ORDER
from repro.scenarios import records_for as _registry_records

APP_TAGS = list(APP_ORDER)


def records_for(short: str) -> int:
    # Registry "small" counts: sized per app (compute apps run fewer
    # records through their heavier interpret loops).
    return _registry_records(short, "small")


def assert_outputs_match(result: dict, reference: dict, tag: str) -> None:
    assert set(map(str, result.keys())) == set(map(str, reference.keys())), \
        f"{tag}: key sets differ"
    by_str = {str(k): v for k, v in result.items()}
    for key, expected in reference.items():
        got = by_str[str(key)]
        assert math.isclose(float(got), float(expected),
                            rel_tol=1e-4, abs_tol=1e-3), \
            f"{tag}: value mismatch at {key}: {got} != {expected}"


class TestRegistry:
    def test_every_scenario_app_registered(self):
        # The paper's eight plus the registry's four extensions.
        assert sorted(a.short for a in all_apps()) == sorted(APP_TAGS)
        assert len(APP_TAGS) == len(PAPER_APP_ORDER) + len(EXTENDED_APP_ORDER)

    def test_table2_combiner_column(self):
        has_combiner = {a.short: a.has_combiner for a in all_apps()}
        table2 = {
            "GR": True, "HS": True, "WC": True, "HR": True,
            "LR": True, "KM": False, "CL": False, "BS": False,
        }
        assert {k: has_combiner[k] for k in table2} == table2
        # Extensions: II's distinct-count is not sum-associative, so it
        # runs combiner-less; the other three combine.
        assert {k: has_combiner[k] for k in EXTENDED_APP_ORDER} == {
            "II": False, "RJ": True, "TS": True, "PR": True,
        }

    def test_map_only_is_blackscholes_only(self):
        assert [a.short for a in all_apps() if a.map_only] == ["BS"]

    def test_km_na_on_cluster2(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="NA"):
            get_app("KM").figures_for("Cluster2")

    def test_natures_match_table2(self):
        natures = {a.short: a.nature for a in all_apps()}
        assert natures["GR"] == "IO" and natures["WC"] == "IO"
        assert natures["BS"] == "Compute" and natures["KM"] == "Compute"


@pytest.mark.parametrize("short", APP_TAGS)
class TestCpuPath:
    def test_cpu_job_matches_reference(self, short):
        app = get_app(short)
        text = app.generate(records_for(short), seed=11)
        runner = LocalJobRunner(app, use_gpu=False, split_bytes=16 * 1024)
        result = runner.run(text)
        assert_outputs_match(result.output, app.reference(text), short)


@pytest.mark.parametrize("short", APP_TAGS)
class TestGpuPath:
    def test_gpu_job_matches_reference(self, short):
        app = get_app(short)
        text = app.generate(records_for(short), seed=12)
        runner = LocalJobRunner(app, use_gpu=True, split_bytes=16 * 1024)
        result = runner.run(text)
        assert_outputs_match(result.output, app.reference(text), short)
        assert result.device_tasks(SlotKind.GPU) == result.map_tasks > 0

    def test_gpu_unoptimized_still_correct(self, short):
        # Optimizations change the clock, never the answer.
        from repro.config import OptimizationFlags

        app = get_app(short)
        text = app.generate(records_for(short) // 2 + 10, seed=13)
        runner = LocalJobRunner(app, use_gpu=True, split_bytes=16 * 1024,
                                opt=OptimizationFlags.baseline())
        result = runner.run(text)
        assert_outputs_match(result.output, app.reference(text), short)


class TestCombinerRelaxation:
    def test_partial_aggregates_do_not_change_final_result(self):
        # §4.2: GPU combiner may emit partial sums; reduce repairs them.
        app = get_app("WC")
        text = app.generate(400, seed=14)
        gpu = LocalJobRunner(app, use_gpu=True, split_bytes=8 * 1024).run(text)
        cpu = LocalJobRunner(app, use_gpu=False, split_bytes=8 * 1024).run(text)
        assert gpu.output == cpu.output

    def test_gpu_combiner_may_emit_more_pairs(self):
        app = get_app("WC")
        text = app.generate(600, seed=15)
        gpu = LocalJobRunner(app, use_gpu=True, split_bytes=64 * 1024).run(text)
        cpu = LocalJobRunner(app, use_gpu=False, split_bytes=64 * 1024).run(text)
        # Communication volume may grow slightly, never shrink below CPU's.
        assert gpu.shuffle_bytes >= cpu.shuffle_bytes


class TestDataGenerators:
    def test_seeded_and_deterministic(self):
        for app in all_apps():
            assert app.generate(50, seed=9) == app.generate(50, seed=9)
            assert app.generate(50, seed=9) != app.generate(50, seed=10)

    def test_record_counts(self):
        for app in all_apps():
            text = app.generate(37, seed=1)
            assert len(text.strip().splitlines()) == 37

    def test_ratings_skewed(self):
        from repro.apps import datagen

        text = datagen.movie_ratings(300, seed=2)
        lengths = [len(line.split()) for line in text.splitlines()]
        assert max(lengths) > 4 * (sum(lengths) / len(lengths))
