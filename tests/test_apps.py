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
from repro.scenarios import (
    APP_ORDER,
    EXTENDED_APP_ORDER,
    PAPER_APP_ORDER,
    datagen_digest,
)
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
        from repro.scenarios.registry import table2_tasks

        assert get_app("KM").cluster2.map_tasks is None
        with pytest.raises(ConfigError, match="NA"):
            table2_tasks("KM", "Cluster2")

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


#: First 16 hex digits of ``datagen_digest(app, scale, seed)`` for seeds
#: 7 and 8. A datagen change — an optimisation above all — must
#: reproduce these bytes, not regenerate them. (HS and HR read the same
#: ratings dataset.)
DATAGEN_DIGESTS = {
    ("GR", "small"): ("2e87f63a864a1301", "a1c764353baaf685"),
    ("GR", "medium"): ("7407d3d283abc674", "685d0b9f6d566d68"),
    ("HS", "small"): ("b594489f68660f63", "b3419b2563f526c8"),
    ("HS", "medium"): ("60bd45d135cb13af", "2074b3556472b540"),
    ("WC", "small"): ("c1fa03819285170e", "734e7dd5b1edf203"),
    ("WC", "medium"): ("a5db88b395a86a12", "af58620885fab2ab"),
    ("HR", "small"): ("b594489f68660f63", "b3419b2563f526c8"),
    ("HR", "medium"): ("60bd45d135cb13af", "2074b3556472b540"),
    ("LR", "small"): ("8c62e2a3f00411fb", "1cf1c72aedea27e2"),
    ("LR", "medium"): ("6e5da7be6bd9ddbe", "e7aaeee460c885c7"),
    ("KM", "small"): ("4e49e70534db0603", "17f9686df8510d2a"),
    ("KM", "medium"): ("049823b8021d2125", "0b3f8e3d73a53600"),
    ("CL", "small"): ("fafa67576e263b73", "b77a7f6a0ceabcc9"),
    ("CL", "medium"): ("5f20d05031f94777", "11422c9581257be7"),
    ("BS", "small"): ("4ed235a202e4bd1c", "c06c28de1c24cf0c"),
    ("BS", "medium"): ("a401d2947e447dfc", "2b0f50b56a72adb4"),
    ("II", "small"): ("d08515785e8ae691", "a1cd2e6d10e71596"),
    ("II", "medium"): ("5a42c12841fbaeac", "3176df559eccd236"),
    ("RJ", "small"): ("f0452df8eb385858", "c5037829631748af"),
    ("RJ", "medium"): ("1c227e88a21848ac", "f35ef564726b9217"),
    ("TS", "small"): ("f336a8d773a96a51", "e540fe314185b793"),
    ("TS", "medium"): ("c3ab81ef3ead4c70", "c309b49afb2c3706"),
    ("PR", "small"): ("a2b87cbda13c7d31", "b0ad30bc7bd47668"),
    ("PR", "medium"): ("09ad7b6d675f956f", "4a839e86a1a9f94c"),
}


class TestDataGenerators:
    def test_pinned_bytes_cover_the_registry(self):
        assert set(DATAGEN_DIGESTS) == {
            (tag, scale) for tag in APP_TAGS for scale in ("small", "medium")
        }

    @pytest.mark.parametrize("tag,scale", sorted(DATAGEN_DIGESTS))
    def test_pinned_bytes(self, tag, scale):
        got = tuple(datagen_digest(tag, scale, seed)[:16] for seed in (7, 8))
        assert got == DATAGEN_DIGESTS[tag, scale]

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
