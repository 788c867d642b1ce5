"""Direct unit coverage for ``hadoop.shuffle`` and the Streaming map task.

These pin contracts in isolation that whole-job runs only exercise in
passing: the shared streaming sort order (one definition serves the
map-side sort and the reduce merge), the analytic reduce-phase model,
the KV wire format, and the map-task pipeline around the mini-C
filters (``LocalJobRunner.map_task``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_app
from repro.config import CLUSTER1
from repro.costmodel.io import IoModel
from repro.errors import HadoopError
from repro.hadoop.job import JobConf
from repro.hadoop.local import LocalJobRunner
from repro.hadoop.shuffle import (
    decorate_kv_run,
    estimate_reduce_phase,
    merge_sorted_runs,
    reduce_task_timing,
    sort_kv_run,
    spill_runs,
    streaming_sort_key,
)
from repro.kvstore import Partitioner
from repro.kvstore.coerce import kv_line, parse_kv_line


def _parse(text):
    return [parse_kv_line(line) for line in text.splitlines() if line]


# -- streaming sort order ---------------------------------------------------


class TestStreamingSortKey:
    def test_numbers_sort_before_text(self):
        assert streaming_sort_key(99) < streaming_sort_key("0")
        assert streaming_sort_key(2.5) < streaming_sort_key("apple")

    def test_numbers_compare_numerically(self):
        assert streaming_sort_key(9) < streaming_sort_key(10)
        assert streaming_sort_key(9.5) < streaming_sort_key(10)

    def test_int_and_float_share_one_ordering(self):
        assert streaming_sort_key(3) == streaming_sort_key(3.0)

    def test_text_compares_lexicographically(self):
        # string digits are *text*: "10" < "9" byte-wise, as in Hadoop
        # Streaming's default byte comparator
        assert streaming_sort_key("10") < streaming_sort_key("9")
        assert streaming_sort_key("bar") < streaming_sort_key("foo")


class _Opaque:
    """A payload value that refuses ordering — the sort must never
    reach it."""

    def __lt__(self, other):  # pragma: no cover - the point is no call
        raise TypeError("payload compared")

    __gt__ = __le__ = __ge__ = __lt__


class TestSortKvRun:
    def test_orders_by_streaming_key(self):
        run = [("b", 1), (3, 2), ("a", 3), (1.5, 4)]
        assert sort_kv_run(run) == [(1.5, 4), (3, 2), ("a", 3), ("b", 1)]

    def test_stable_for_equal_keys(self):
        run = [("k", i) for i in range(10)] + [("a", -1)]
        out = sort_kv_run(run)
        assert out[0] == ("a", -1)
        assert out[1:] == [("k", i) for i in range(10)]

    def test_never_compares_payloads(self):
        # ties on the key must be broken by arrival order, not by
        # falling through to the record payload
        run = [("same", _Opaque()), ("same", _Opaque())]
        assert sort_kv_run(run) == run

    def test_accepts_wider_tuples_and_iterables(self):
        triples = iter([("b", 2, "b\t2\n"), ("a", 1, "a\t1\n")])
        assert sort_kv_run(triples) == [("a", 1, "a\t1\n"), ("b", 2, "b\t2\n")]

    def test_empty(self):
        assert sort_kv_run([]) == []


# -- decorated runs and the merge shuffle ------------------------------------


class TestDecorateAndMerge:
    def test_decorate_sorts_and_carries_the_entry(self):
        run = [("b", 2, "b\t2\n"), (3, 1, "3\t1\n"), ("a", 9, "a\t9\n")]
        decorated = decorate_kv_run(run)
        assert [e[1] for e in decorated] == sort_kv_run(run)
        assert [e[0] for e in decorated] == [
            streaming_sort_key(e[1][0]) for e in decorated
        ]

    def test_decorate_is_stable(self):
        run = [("k", i, f"k\t{i}\n") for i in range(8)]
        assert [e[1] for e in decorate_kv_run(run)] == run

    def test_merge_of_single_run_is_identity(self):
        run = decorate_kv_run([("b", 1, "b\t1\n"), ("a", 2, "a\t2\n")])
        assert merge_sorted_runs([run]) == [e[1] for e in run]

    def test_merge_empty(self):
        assert merge_sorted_runs([]) == []
        assert merge_sorted_runs([[], []]) == []

    def test_merge_never_compares_payloads(self):
        runs = [decorate_kv_run([("same", _Opaque(), "x")]),
                decorate_kv_run([("same", _Opaque(), "y")])]
        merged = merge_sorted_runs(runs)
        assert [t[2] for t in merged] == ["x", "y"]

    def test_merge_ties_keep_run_order(self):
        # equal keys interleave in run order, exactly as a stable sort
        # of the concatenation would place them
        runs = [decorate_kv_run([("k", 0, "a"), ("k", 1, "b")]),
                decorate_kv_run([("k", 2, "c")])]
        assert [t[2] for t in merge_sorted_runs(runs)] == ["a", "b", "c"]


# Duplicate-heavy key pool mixing the numeric and text domains (numbers
# sort before text; string digits are text) — the adversarial shape for
# a merge that must match a full stable re-sort byte for byte.
_KEYS = st.sampled_from(
    ["a", "b", "10", "9", "", "k"] + [0, 1, -1, 9, 10, 2.5, 9.5, 3, 3.0]
)
_TRIPLES = st.builds(
    lambda k, i: (k, i, f"{k}\t{i}\n"),
    _KEYS, st.integers(min_value=0, max_value=99),
)


class TestMergeEqualsSortProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_TRIPLES, max_size=12), max_size=6))
    def test_merge_of_sorted_runs_equals_sort_of_concat(self, runs):
        # the identity the reduce phase relies on: stable-merging
        # per-run stably-sorted runs == stably sorting the concatenation
        concat = [t for run in runs for t in run]
        merged = merge_sorted_runs([decorate_kv_run(run) for run in runs])
        assert merged == sort_kv_run(concat)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_TRIPLES, max_size=30), st.integers(1, 7))
    def test_any_chunking_merges_identically(self, triples, nruns):
        # however the map side happened to chunk the pairs into tasks,
        # the reduce-side merge sees through the chunking
        chunk = max(1, -(-len(triples) // nruns))
        runs = [triples[i:i + chunk] for i in range(0, len(triples), chunk)]
        merged = merge_sorted_runs([decorate_kv_run(run) for run in runs])
        assert merged == sort_kv_run(triples)


# -- the one-pass map-side spill ---------------------------------------------

# Key texts that stress every memo level: repeats, canonical and
# non-canonical ints ("007", "-0" and "+5" stay text), ints above 2**53
# whose float sort keys collide while their partitions need not, a
# superscript digit int() rejects, non-ASCII, and the empty key.
_KEY_TEXTS = st.sampled_from([
    "a", "b", "k", "", "7", "007", "-7", "-0", "+5", "10", "9", "1.0",
    str(2**53), str(2**53 + 1), str(2**60), str(2**60 + 1), str(-2**53 - 1),
    "\u00b2", "\u00e9t\u00e9", "\u65e5\u672c", "two words",
])
# Value texts whose rendering differs from their spelling ("007" → 7,
# "1.50" → 1.5), plus text, the empty value and a value holding a tab.
_VALUE_TEXTS = st.sampled_from(
    ["1", "2", "007", "-0", "1.50", "2.5", "1e3", "x", "", "v\tw", "\u00b2"])
_LINES = st.lists(
    st.one_of(st.just(""),
              st.builds("{}\t{}".format, _KEY_TEXTS, _VALUE_TEXTS)),
    max_size=60)


class TestSpillRuns:
    @settings(max_examples=300, deadline=None)
    @given(_LINES, st.integers(1, 5))
    def test_equals_parse_partition_decorate_sort(self, lines, reducers):
        # The reference is the per-pair pipeline the spill replaced:
        # parse every line, partition every pair, stable-sort each
        # partition.
        partition = Partitioner(reducers).partition
        parts = defaultdict(list)
        for key, value in map(parse_kv_line, filter(None, lines)):
            parts[partition(key)].append((key, value, kv_line(key, value)))
        runs = spill_runs(lines, partition, "t")
        assert list(runs) == list(parts)  # first-arrival partition order
        assert runs == {p: decorate_kv_run(kvs) for p, kvs in parts.items()}
        for part, kvs in parts.items():
            assert [entry[1] for entry in runs[part]] == sort_kv_run(kvs)
        assert sum(map(len, runs.values())) == len(list(filter(None, lines)))

    def test_colliding_sort_keys_interleave_in_arrival_order(self):
        big, next_big = str(2**53), str(2**53 + 1)
        assert streaming_sort_key(2**53) == streaming_sort_key(2**53 + 1)
        lines = [f"{next_big}\t1", f"{big}\t2", f"{next_big}\t3"]
        (run,) = spill_runs(lines, Partitioner(1).partition, "t").values()
        assert [line for _key, (_k, _v, line) in run] == \
            [ln + "\n" for ln in lines]

    def test_values_are_canonicalized_once_per_distinct_line(self):
        (run,) = spill_runs(["k\t007", "k\t7", "k\t007"],
                            Partitioner(1).partition, "t").values()
        assert [record for _key, record in run] == [("k", 7, "k\t7\n")] * 3
        assert run[0] is run[2]  # the repeated line reuses its entry

    def test_malformed_line_names_where_and_which_line(self):
        lines = ["a\t1", "", "a\t1", "no-tab-here", "no-tab-here"]
        with pytest.raises(HadoopError) as err:
            spill_runs(lines, Partitioner(2).partition, "WC map task 3")
        assert str(err.value) == ("WC map task 3: malformed KV line "
                                  "'no-tab-here' at output line 4")


class TestReduceTaskTiming:
    def test_components_and_total(self):
        io = IoModel.for_cluster(CLUSTER1)
        t = reduce_task_timing(partition=3, merge_runs=6, input_pairs=100,
                               input_bytes=1400, output_pairs=40,
                               output_bytes=600, io=io,
                               replication=CLUSTER1.hdfs_replication)
        assert t.partition == 3 and t.merge_runs == 6
        assert t.merge > 0 and t.reduce > 0 and t.output_write > 0
        assert t.total == t.merge + t.reduce + t.output_write

    def test_deeper_merges_cost_more(self):
        io = IoModel.for_cluster(CLUSTER1)
        kw = dict(partition=0, input_pairs=100, input_bytes=1400,
                  output_pairs=40, output_bytes=600, io=io, replication=3)
        shallow = reduce_task_timing(merge_runs=2, **kw)
        deep = reduce_task_timing(merge_runs=64, **kw)
        assert deep.merge > shallow.merge
        assert deep.reduce == shallow.reduce

    def test_deterministic(self):
        io = IoModel.for_cluster(CLUSTER1)
        kw = dict(partition=1, merge_runs=4, input_pairs=7,
                  input_bytes=90, output_pairs=7, output_bytes=90,
                  io=io, replication=3)
        assert reduce_task_timing(**kw) == reduce_task_timing(**kw)


# -- reduce-phase model -----------------------------------------------------


def _job(**overrides) -> JobConf:
    conf = dict(name="t", num_map_tasks=8, num_reduce_tasks=4,
                cluster=CLUSTER1)
    conf.update(overrides)
    return JobConf(**conf)


class TestEstimateReducePhase:
    def test_map_only_job_costs_nothing(self):
        est = estimate_reduce_phase(_job(num_reduce_tasks=0),
                                    IoModel.for_cluster(CLUSTER1))
        assert est.total == 0.0

    def test_total_sums_components(self):
        est = estimate_reduce_phase(_job(), IoModel.for_cluster(CLUSTER1))
        assert est.total == pytest.approx(
            est.shuffle_seconds + est.merge_seconds
            + est.reduce_seconds + est.write_seconds
        )
        assert est.shuffle_seconds > 0 and est.write_seconds > 0

    def test_extra_reduce_waves_scale_the_phase(self):
        io = IoModel.for_cluster(CLUSTER1)
        slots = CLUSTER1.num_slaves * CLUSTER1.max_reduce_slots_per_node
        one_wave = estimate_reduce_phase(_job(num_reduce_tasks=slots), io)
        two_waves = estimate_reduce_phase(
            _job(num_reduce_tasks=slots + 1), io
        )
        assert two_waves.reduce_seconds == pytest.approx(
            2 * _job().reduce_compute_seconds
        )
        assert two_waves.total > one_wave.total

    def test_more_maps_deepen_the_merge(self):
        io = IoModel.for_cluster(CLUSTER1)
        # same total map output, split across more runs → deeper merge
        shallow = estimate_reduce_phase(
            _job(num_map_tasks=4, map_output_bytes=16 * 1024 * 1024), io
        )
        deep = estimate_reduce_phase(
            _job(num_map_tasks=64, map_output_bytes=1024 * 1024), io
        )
        assert deep.merge_seconds > shallow.merge_seconds


# -- streaming wire format --------------------------------------------------


class TestKvWire:
    def test_round_trip(self):
        pairs = [("word", 3), (7, 1.5), ("k", "v")]
        text = "".join(kv_line(k, v) for k, v in pairs)
        assert text == "word\t3\n7\t1.5\nk\tv\n"
        assert _parse(text) == pairs

    def test_malformed_line_rejected(self):
        with pytest.raises(HadoopError):
            parse_kv_line("no-tab-here")


# -- filters and the map-task pipeline --------------------------------------


class TestStreamingFilter:
    def test_accumulates_counters_across_invocations(self):
        # The filters are stateless executables: each invocation returns
        # its own output and counters, and the caller accumulates.
        app = get_app("WC")
        out1, first = app.cpu_map("hello world\n")
        out2, second = app.cpu_map("hello again\n")
        assert _parse(out1) == [("hello", 1), ("world", 1)]
        assert _parse(out2) == [("hello", 1), ("again", 1)]
        assert first.merged(second).ops > first.ops

    def test_run_kv_feeds_pairs_through(self):
        pairs = [("a", 1), ("a", 1), ("b", 1)]
        out, _counters = get_app("WC").cpu_combine(
            "".join(kv_line(k, v) for k, v in pairs))
        assert _parse(out) == [("a", 2), ("b", 1)]


class TestStreamingPipeline:
    def test_run_split_partitions_sorts_and_combines(self):
        runner = LocalJobRunner(get_app("WC"), use_gpu=False, num_reducers=2)
        task = runner.map_task(0, b"b a b\nc a b\n")
        assert task.map_pairs == 6
        merged = {}
        for part, run in task.parts.items():
            keys = [k for _sort_key, (k, _v, _line) in run]
            assert keys == sorted(keys, key=streaming_sort_key)
            assert all(runner.partitioner.partition(k) == part for k in keys)
            assert [entry[0] for entry in run] == \
                [streaming_sort_key(k) for k in keys]
            for _sort_key, (k, v, line) in run:
                assert line == kv_line(k, v)
                merged[k] = v
        assert merged == {"a": 2, "b": 3, "c": 1}
        assert task.breakdown.map > 0 and task.breakdown.combine > 0

    def test_run_split_without_combiner_keeps_duplicates(self):
        app = replace(get_app("WC"), combine_source=None)
        runner = LocalJobRunner(app, use_gpu=False, num_reducers=1)
        task = runner.map_task(0, b"a a\n")
        assert [(k, v) for _sort_key, (k, v, _line) in task.parts[0]] == \
            [("a", 1), ("a", 1)]
        assert task.breakdown.combine == 0.0

    def test_map_only_output_passes_through_unreduced(self):
        # num_reducers == 0: one partition, written by the map task.
        app = replace(get_app("WC"), combine_source=None)
        runner = LocalJobRunner(app, use_gpu=False, num_reducers=0)
        task = runner.map_task(0, b"b a b\n")
        assert list(task.parts) == [0]
        assert [line for _sort_key, (_k, _v, line) in task.parts[0]] == \
            ["a\t1\n", "b\t1\n", "b\t1\n"]
