"""Direct unit coverage for ``hadoop.shuffle`` and the Streaming map task.

These pin contracts in isolation that whole-job runs only exercise in
passing: the shared streaming sort order (one definition serves the
map-side sort and the reduce merge), the grouped shuffle runs against
the per-pair reference sort, the analytic reduce-phase model, the KV
wire format, and the map-task pipeline around the mini-C filters
(``LocalJobRunner.map_task``). Runs are read through ``flatten_run``,
``run_text``, ``run_bytes`` and ``run_pairs`` only: their layout is
``hadoop/shuffle.py``'s business.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_app
from repro.apps.combiners import STRING_KEY_INT_SUM
from repro.config import CLUSTER1
from repro.costmodel.io import IoModel
from repro.errors import HadoopError
from repro.hadoop import shuffle
from repro.hadoop.job import JobConf
from repro.hadoop.local import LocalJobRunner
from repro.hadoop.shuffle import (
    decorate_kv_run,
    estimate_reduce_phase,
    flatten_run,
    grouped_values,
    merge_sorted_runs,
    reduce_task_timing,
    render_run,
    run_bytes,
    run_pairs,
    run_text,
    sort_kv_run,
    spill_runs,
    streaming_sort_key,
)
from repro.kvstore import Partitioner
from repro.kvstore.coerce import kv_line, parse_kv_line


def _parse(text):
    return [parse_kv_line(line) for line in text.splitlines() if line]


def _assert_run_reads_as(run, triples):
    """Every reader of ``run`` agrees with the per-pair reference
    ``triples`` (``(key, value, line)``, already in streaming order)."""
    assert flatten_run(run) == triples
    assert run_text(run) == "".join(line for _k, _v, line in triples)
    assert run_bytes(run) == sum(len(line.encode("utf-8"))
                                 for _k, _v, line in triples)
    assert run_pairs(run) == len(triples)


# -- streaming sort order ---------------------------------------------------


class TestStreamingSortKey:
    def test_numbers_sort_before_text(self):
        assert streaming_sort_key(99) < streaming_sort_key("0")
        assert streaming_sort_key(2.5) < streaming_sort_key("apple")

    def test_numbers_compare_numerically(self):
        assert streaming_sort_key(9) < streaming_sort_key(10)
        assert streaming_sort_key(9.5) < streaming_sort_key(10)
        # exact above 2**53, where a float rendering would tie them
        assert streaming_sort_key(2**53) < streaming_sort_key(2**53 + 1)

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


# -- the reference decoration, grouped runs and the merge shuffle ------------


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
        run = render_run([("b", 1), ("a", 2)])
        assert merge_sorted_runs([run]) == run
        assert flatten_run(run) == [("a", 2, "a\t2\n"), ("b", 1, "b\t1\n")]

    def test_merge_empty(self):
        assert merge_sorted_runs([]) == []
        assert merge_sorted_runs([[], []]) == []

    def test_merge_never_compares_payloads(self):
        x, y = _Opaque(), _Opaque()
        merged = merge_sorted_runs([render_run([("same", x)]),
                                    render_run([("same", y)])])
        assert [v for _k, v, _line in flatten_run(merged)] == [x, y]

    def test_merge_ties_keep_run_order(self):
        # equal keys interleave in run order, exactly as a stable sort
        # of the concatenation would place them
        runs = [render_run([("k", 0), ("k", 1)]), render_run([("k", 2)])]
        assert [v for _k, v, _line in flatten_run(merge_sorted_runs(runs))] \
            == [0, 1, 2]


# Duplicate-heavy key pool mixing the numeric and text domains (numbers
# sort before text; string digits are text; ints above 2**53 stay
# distinct) — the adversarial shape for a merge that must match a full
# stable re-sort byte for byte. Keys are what coerce_key produces: int
# or str. Values include renderings that need more than one byte.
_KEYS = st.sampled_from(
    ["a", "b", "10", "9", "", "k", "été"]
    + [0, 1, -1, 9, 10, 3, 2**53, 2**53 + 1]
)
_VALUES = st.one_of(st.integers(min_value=0, max_value=99),
                    st.sampled_from([2.5, -0.0, "x", "", "日", "v\tw"]))
_TRIPLES = st.builds(lambda k, v: (k, v, kv_line(k, v)), _KEYS, _VALUES)


class TestMergeEqualsSortProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_TRIPLES, max_size=12), max_size=6))
    def test_merge_of_sorted_runs_equals_sort_of_concat(self, runs):
        # the identity the reduce phase relies on: merging per-run
        # grouped runs == stably sorting the concatenation, pair for
        # pair — and so the mini-C reducer's stdin, the shuffle bytes
        # and the pair count are the reference's too
        concat = [t for run in runs for t in run]
        grouped = [render_run([(k, v) for k, v, _line in run])
                   for run in runs]
        for run, triples in zip(grouped, runs):
            _assert_run_reads_as(run, sort_kv_run(triples))
        _assert_run_reads_as(merge_sorted_runs(grouped), sort_kv_run(concat))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_TRIPLES, max_size=30), st.integers(1, 7))
    def test_any_chunking_merges_identically(self, triples, nruns):
        # however the map side happened to chunk the pairs into tasks,
        # the reduce-side merge sees through the chunking
        chunk = max(1, -(-len(triples) // nruns))
        runs = [render_run([(k, v) for k, v, _line in triples[i:i + chunk]])
                for i in range(0, len(triples), chunk)]
        _assert_run_reads_as(merge_sorted_runs(runs), sort_kv_run(triples))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_TRIPLES, max_size=12), max_size=6))
    def test_grouped_values_fold_the_merged_pairs(self, runs):
        # the Python reducer's input: every key's values in merge order
        expected = defaultdict(list)
        for key, value, _line in sort_kv_run([t for run in runs for t in run]):
            expected[key].append(value)
        merged = merge_sorted_runs(
            [render_run([(k, v) for k, v, _line in run]) for run in runs])
        folded = grouped_values(merged)
        assert folded == expected
        assert list(folded) == list(expected)


# -- the one-pass map-side spill ---------------------------------------------

# Key texts that stress every memo level: repeats, canonical and
# non-canonical ints ("007", "-0" and "+5" stay text), ints above 2**53
# that a float sort key would collide while their partitions need not, a
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
        for part, kvs in parts.items():
            _assert_run_reads_as(runs[part], sort_kv_run(kvs))
        assert sum(map(run_pairs, runs.values())) == \
            len(list(filter(None, lines)))

    def test_distinct_keys_above_2_53_sort_numerically(self):
        big, next_big = str(2**53), str(2**53 + 1)
        lines = [f"{next_big}\t1", f"{big}\t2", f"{next_big}\t3"]
        (run,) = spill_runs(lines, Partitioner(1).partition, "t").values()
        assert flatten_run(run) == [(2**53, 2, f"{big}\t2\n"),
                                    (2**53 + 1, 1, f"{next_big}\t1\n"),
                                    (2**53 + 1, 3, f"{next_big}\t3\n")]

    def test_values_are_canonicalized_once_per_distinct_value(self,
                                                               monkeypatch):
        original, calls = shuffle.coerce_value, []
        monkeypatch.setattr(shuffle, "coerce_value",
                            lambda text: calls.append(text) or original(text))
        lines = ["k\t007", "k\t7", "k\t007", "j\t007", "j\t7",
                 "ключ\t7", "ключ\t007"]
        (run,) = spill_runs(lines, Partitioner(1).partition, "t").values()
        assert flatten_run(run) == \
            [("j", 7, "j\t7\n")] * 2 + [("k", 7, "k\t7\n")] * 3 \
            + [("ключ", 7, "ключ\t7\n")] * 2
        assert calls == ["007", "7"]  # once per distinct value text
        # Each line's bytes are its key's (UTF-8), the tab, the
        # canonical value's and the newline — whichever key shares it.
        assert run_bytes(run) == 2 * 4 + 3 * 4 + 2 * (8 + 3)

    def test_runs_retain_few_bytes_per_distinct_line(self):
        # 5 000 distinct lines (53 and 97 are coprime) over 53 keys and
        # 97 values: what the runs keep alive is a list slot per pair
        # plus per-key and per-value objects, not an object per line.
        lines = [f"w{i % 53}\t{i % 97}" for i in range(5000)]
        assert len(set(lines)) == len(lines)
        gc.collect()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            runs = spill_runs(lines, Partitioner(1).partition, "t")
            gc.collect()
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(run_pairs, runs.values())) == len(lines)
        assert (after - before) / len(lines) <= 24

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
            triples = flatten_run(run)
            keys = [k for k, _v, _line in triples]
            assert keys == sorted(keys, key=streaming_sort_key)
            assert all(runner.partitioner.partition(k) == part for k in keys)
            for k, v, line in triples:
                assert line == kv_line(k, v)
                merged[k] = v
        assert merged == {"a": 2, "b": 3, "c": 1}
        assert task.breakdown.map > 0 and task.breakdown.combine > 0

    def test_run_split_without_combiner_keeps_duplicates(self):
        app = replace(get_app("WC"), combine_source=None)
        runner = LocalJobRunner(app, use_gpu=False, num_reducers=1)
        task = runner.map_task(0, b"a a\n")
        assert [(k, v) for k, v, _line in flatten_run(task.parts[0])] == \
            [("a", 1), ("a", 1)]
        assert task.breakdown.combine == 0.0

    def test_map_only_output_passes_through_unreduced(self):
        # num_reducers == 0: one partition, written by the map task.
        app = replace(get_app("WC"), combine_source=None)
        runner = LocalJobRunner(app, use_gpu=False, num_reducers=0)
        task = runner.map_task(0, b"b a b\n")
        assert list(task.parts) == [0]
        assert [line for _k, _v, line in flatten_run(task.parts[0])] == \
            ["a\t1\n", "b\t1\n", "b\t1\n"]

    def test_malformed_combiner_line_names_task_and_partition(self):
        # a combiner that drops the count: its output goes through the
        # same spill as map output and fails the same way
        app = replace(get_app("WC"), combine_source=STRING_KEY_INT_SUM.replace(
            r'"%s\t%d\n", prevWord, count', r'"%s\n", prevWord'))
        runner = LocalJobRunner(app, use_gpu=False, num_reducers=1)
        with pytest.raises(HadoopError) as err:
            runner.map_task(3, b"b a b\n")
        assert str(err.value) == ("wordcount map task 3 combiner, partition "
                                  "0: malformed KV line 'a' at output line 1")


@pytest.mark.parametrize("workers", [1, 2])
def test_wordcount_keeps_distinct_int_words_above_2_53(workers):
    # Two int keys one apart above 2**53, in one partition: a float sort
    # key ties them, so the map-side sort (CPU) and the reduce-side merge
    # (both paths) interleaved them and the reducer emitted a key twice.
    # Two splits, so the merge has two runs per path.
    text = ("9007199254740993 9007199254740992 9007199254740993\n"
            "9007199254740992 x 9007199254740993\n")
    app = get_app("WC")
    outputs = [LocalJobRunner(app, use_gpu=use_gpu, num_reducers=1,
                              split_bytes=40, workers=workers).run(text).output
               for use_gpu in (False, True)]
    assert outputs == [{2**53: 2, 2**53 + 1: 3, "x": 1}] * 2
