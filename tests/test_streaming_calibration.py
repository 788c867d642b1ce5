"""The Streaming map task (``Application.cpu_*`` filters behind
``LocalJobRunner.map_task``) and the calibration built on it."""

import pytest

from repro.apps import all_apps, get_app
from repro.config import CLUSTER1, CLUSTER2
from repro.costmodel.calibration import (
    FIG5_BANDS,
    FIG5_ORDER,
    measured_speedups,
    verify_calibration,
)
from repro.errors import GpuOutOfMemory
from repro.experiments.calibrate import DEFAULT_RECORDS, single_task_times
from repro.hadoop.local import LocalJobRunner
from repro.hadoop.shuffle import flatten_run
from repro.kvstore.coerce import kv_line, parse_kv_line


def _parse(text):
    return [parse_kv_line(line) for line in text.splitlines() if line]


def _cpu_parts(app, text, num_reducers):
    """One CPU map task's output as partition → [(key, value)]."""
    runner = LocalJobRunner(app, use_gpu=False, num_reducers=num_reducers)
    task = runner.map_task(0, text.encode("utf-8"))
    return {part: [(k, v) for k, v, _line in flatten_run(run)]
            for part, run in task.parts.items()}


class TestKvSerialization:
    def test_round_trip(self):
        pairs = [("word", 3), (5, 2.5), ("x y", 1)]
        assert _parse("".join(kv_line(k, v) for k, v in pairs)) == pairs


class TestStreamingFilter:
    """``Application.cpu_map``/``cpu_combine`` are the Streaming filter
    executables: text in, ``(text out, ExecCounters)`` back."""

    def test_wordcount_map_as_filter(self):
        out, counters = get_app("WC").cpu_map("the quick fox\nthe dog\n")
        assert _parse(out) == [("the", 1), ("quick", 1), ("fox", 1),
                               ("the", 1), ("dog", 1)]
        assert counters.ops > 0

    def test_counters_accumulate_across_invocations(self):
        # map_task sums the per-partition combiner runs this way
        app = get_app("WC")
        _out, once = app.cpu_map("a b\n")
        _out, again = app.cpu_map("a b\n")
        assert once.merged(again).ops == 2 * once.ops

    def test_combine_filter_kv_interface(self):
        out, _counters = get_app("WC").cpu_combine("a\t1\na\t2\nb\t1\n")
        assert _parse(out) == [("a", 3), ("b", 1)]


class TestStreamingPipeline:
    """The user-code side of a CPU map task: map filter → partition →
    stable streaming sort → combine filter, via ``map_task``."""

    def test_full_map_side(self):
        parts = _cpu_parts(get_app("WC"), "a b a\nb c\n", num_reducers=4)
        merged = {}
        for kvs in parts.values():
            for k, v in kvs:
                merged[k] = merged.get(k, 0) + v
        assert merged == {"a": 2, "b": 2, "c": 1}

    def test_partitions_sorted(self):
        parts = _cpu_parts(get_app("WC"), "zeta alpha mid\n", num_reducers=1)
        keys = [k for k, _v in parts[0]]
        assert keys == sorted(keys)

    def test_no_combiner_app(self):
        app = get_app("CL")
        assert not app.has_combiner
        parts = _cpu_parts(app, app.generate(20, seed=2), num_reducers=1)
        assert sum(len(v) for v in parts.values()) == 20

    def test_matches_app_cpu_map(self):
        app = get_app("HR")
        text = app.generate(60, seed=5)
        parts = _cpu_parts(app, text, num_reducers=5)
        # Totals equal the reference regardless of partitioning/combining.
        totals = {}
        for kvs in parts.values():
            for k, v in kvs:
                totals[k] = totals.get(k, 0) + v
        assert totals == app.reference(text)


@pytest.mark.parametrize("cluster", [CLUSTER1, CLUSTER2],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("short", [app.short for app in all_apps()])
def test_calibration_is_the_job_runners_map_task(short, cluster):
    """``single_task_times`` measures with the job's own task body —
    there is no second CPU pipeline or GPU runner to drift."""
    app = get_app(short)
    split = app.generate(DEFAULT_RECORDS[short], 7).encode("utf-8")

    def task(use_gpu):
        runner = LocalJobRunner(app, cluster=cluster, use_gpu=use_gpu)
        return runner.map_task(0, split)

    if app.min_gpu_mem > cluster.gpu.global_mem:  # KM on Cluster2
        with pytest.raises(GpuOutOfMemory):
            single_task_times(app, cluster)
        return
    times = single_task_times(app, cluster)
    cpu, gpu = task(False), task(True)
    assert times.cpu_breakdown == cpu.breakdown
    assert times.cpu_seconds == cpu.seconds
    assert times.map_output_pairs == cpu.map_pairs
    assert times.gpu_breakdown == gpu.breakdown == gpu.gpu_task.breakdown
    assert times.gpu_seconds == gpu.seconds


class TestCalibrationBands:
    def test_current_models_within_bands(self):
        problems = verify_calibration()
        assert problems == [], "\n".join(problems)

    def test_ordering_matches_paper(self):
        speedups = measured_speedups()
        ordered = [speedups[a] for a in FIG5_ORDER]
        assert ordered == sorted(ordered)

    def test_bands_cover_all_eight(self):
        from repro.scenarios import PAPER_APP_ORDER

        assert {b.app for b in FIG5_BANDS} == set(PAPER_APP_ORDER)
