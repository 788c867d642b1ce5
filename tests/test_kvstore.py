"""Global KV store, partitioner, and aggregation tests (paper §4.3, §5.3)."""

import pytest

from repro.errors import GpuError, KVStoreOverflow
from repro.kvstore import GlobalKVStore, Partitioner, aggregate, fnv1a
from repro.kvstore.aggregation import scattered_partitions
from repro.kvstore.coerce import coerce_key, coerce_value, parse_kv_line


def make_store(threads=4, capacity=40):
    return GlobalKVStore(
        total_threads=threads, capacity_pairs=capacity,
    )


class TestGlobalKVStore:
    def test_emit_lands_in_thread_portion(self):
        store = make_store()
        store.emit(0, "a", 1, 0)
        store.emit(3, "b", 2, 1)
        assert [tid for tid, _pair in store.iter_pairs()] == [0, 3]
        assert store.emitted_pairs == 2

    def test_stores_per_thread_division(self):
        store = make_store(threads=4, capacity=40)
        assert store.stores_per_thread == 10

    def test_portion_overflow_raises(self):
        store = make_store(threads=4, capacity=8)  # 2 slots per thread
        store.emit(0, "a", 1, 0)
        store.emit(0, "b", 1, 0)
        with pytest.raises(KVStoreOverflow):
            store.emit(0, "c", 1, 0)

    def test_bad_thread_id_raises(self):
        with pytest.raises(GpuError):
            make_store().emit(99, "x", 1, 0)

    def test_capacity_below_thread_count_rejected(self):
        with pytest.raises(GpuError):
            GlobalKVStore(total_threads=8, capacity_pairs=4)

    def test_iter_pairs_in_slot_order(self):
        store = make_store()
        store.emit(1, "b", 2, 0)
        store.emit(0, "a", 1, 0)
        order = [pair.key for _tid, pair in store.iter_pairs()]
        assert order == ["a", "b"]  # thread 0's portion precedes thread 1's


class TestPartitioner:
    def test_deterministic_across_instances(self):
        p1, p2 = Partitioner(16), Partitioner(16)
        for key in ["alpha", "beta", 42, 3.5]:
            assert p1.partition(key) == p2.partition(key)

    def test_range(self):
        p = Partitioner(5)
        for key in range(100):
            assert 0 <= p.partition(key) < 5

    def test_single_partition_short_circuit(self):
        p = Partitioner(1)
        assert all(p.partition(k) == 0 for k in ["a", 1, 2.5])

    def test_fnv1a_known_value(self):
        # FNV-1a of empty input is the offset basis.
        assert fnv1a(b"") == 0xCBF29CE484222325

    def test_spread_over_partitions(self):
        p = Partitioner(8)
        buckets = {p.partition(f"key{i}") for i in range(200)}
        assert len(buckets) == 8  # all partitions hit

    def test_zero_partitions_rejected(self):
        with pytest.raises(Exception):
            Partitioner(0)


class TestAggregation:
    def fill(self, store):
        store.emit(0, "a", 1, 0)
        store.emit(0, "b", 1, 1)
        store.emit(2, "c", 1, 0)
        store.emit(3, "d", 1, 1)

    def test_partitions_complete_and_disjoint(self):
        store = make_store()
        self.fill(store)
        result = aggregate(store, num_partitions=2)
        keys0 = [p.key for p in result.partition_list(0)]
        keys1 = [p.key for p in result.partition_list(1)]
        assert sorted(keys0 + keys1) == ["a", "b", "c", "d"]
        assert set(keys0).isdisjoint(keys1)

    def test_span_collapses_to_emitted(self):
        store = make_store(threads=4, capacity=40)
        self.fill(store)
        result = aggregate(store, num_partitions=2)
        assert result.span_before == 40
        assert result.span_after == 4

    def test_scan_over_thread_counts(self):
        store = make_store(threads=4)
        self.fill(store)
        result = aggregate(store, num_partitions=2)
        assert result.scan_elements == 4
        assert result.pairs_moved == 4

    def test_scattered_keeps_full_span(self):
        store = make_store(threads=4, capacity=40)
        self.fill(store)
        result = scattered_partitions(store, num_partitions=2)
        assert result.span_after == 40  # whitespace not removed
        assert result.pairs_moved == 0

    def test_empty_store(self):
        result = aggregate(make_store(), num_partitions=3)
        assert result.span_after == 0
        assert all(result.partition_list(p) == [] for p in range(3))


class TestCoerceUnicodeDigits:
    """``str.isdigit`` accepts characters ``int()`` rejects (superscripts,
    circled digits); the int screen must only pass what ``int()`` parses."""

    @pytest.mark.parametrize("text", ["²", "-²", "1²", "①", "x²"])
    def test_non_decimal_digits_stay_text(self, text):
        assert coerce_key(text) == text
        assert coerce_value(text) == text
        assert parse_kv_line(f"{text}\t{text}") == (text, text)

    def test_unicode_decimal_digits_keep_their_behaviour(self):
        # int() parses Arabic-Indic digits: a key is not the canonical
        # rendering of 3 and stays text, a value is the quantity 3.
        assert coerce_key("٣") == "٣"
        assert coerce_value("٣") == 3
        assert coerce_value("-٣") == -3

    def test_ascii_rules_unchanged(self):
        assert coerce_key("42") == 42 and coerce_key("-7") == -7
        assert coerce_key("007") == "007" and coerce_key("-") == "-"
        assert coerce_value("007") == 7 and coerce_value("1.5") == 1.5
        assert coerce_value("") == "" and coerce_key("") == ""

    @pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
    def test_wordcount_over_superscript_tokens(self, use_gpu):
        from repro.apps import get_app
        from repro.hadoop.local import LocalJobRunner

        app = get_app("WC")
        text = "alpha ² beta ٣ ² gamma ١٢ x² -² ²\nalpha ٣ ٣ beta\n" * 3
        result = LocalJobRunner(app, use_gpu=use_gpu, split_bytes=64).run(text)
        assert result.output == app.reference(text)
        assert result.output["²"] == 9
