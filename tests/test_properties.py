"""Property-based tests (hypothesis) on core data structures and
invariants: the partitioner, SequenceFile codec, KV store + aggregation,
interpreter arithmetic vs Python semantics, printf/scanf round trips, the
record locator, and input splitting."""

import math

from hypothesis import given, settings, strategies as st

from repro.config import TESLA_K40
from repro.kvstore import GlobalKVStore, Partitioner, aggregate
from repro.minic import parse
from repro.minic.interpreter import run_filter
from repro.minic.stdlib import InputStream, c_format
from repro.runtime.records import locate_records
from repro.runtime.seqfile import SequenceFileReader, SequenceFileWriter

keys = st.one_of(
    st.text(min_size=0, max_size=40),
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
values = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)


class TestPartitionerProperties:
    @given(key=keys, parts=st.integers(min_value=1, max_value=64))
    def test_partition_in_range(self, key, parts):
        assert 0 <= Partitioner(parts).partition(key) < parts

    @given(key=keys)
    def test_deterministic(self, key):
        p = Partitioner(16)
        assert p.partition(key) == p.partition(key)


class TestSeqFileProperties:
    @given(pairs=st.lists(st.tuples(keys, values), max_size=60))
    @settings(max_examples=60)
    def test_round_trip(self, pairs):
        writer = SequenceFileWriter()
        writer.extend(pairs)
        back = SequenceFileReader(writer.finish()).read_all()
        assert len(back) == len(pairs)
        for (k1, v1), (k2, v2) in zip(pairs, back):
            assert k1 == k2 or (isinstance(k1, float) and
                                math.isclose(k1, k2, rel_tol=1e-6))
            assert v1 == v2 or (isinstance(v1, float) and
                                math.isclose(v1, v2, rel_tol=1e-6))


class TestKVStoreProperties:
    @given(
        emissions=st.lists(
            st.tuples(st.integers(0, 7), st.text(max_size=8),
                      st.integers(0, 3)),
            max_size=80,
        )
    )
    def test_aggregation_preserves_every_pair(self, emissions):
        store = GlobalKVStore(total_threads=8, capacity_pairs=8 * 100,
                              key_length=8, value_length=4)
        for tid, key, part in emissions:
            store.emit(tid, key, 1, part)
        result = aggregate(store, num_partitions=4)
        collected = sorted(
            (p.key, p.partition)
            for part in range(4)
            for p in result.partition_list(part)
        )
        expected = sorted((key, part) for _tid, key, part in emissions)
        assert collected == expected
        assert result.span_after == len(emissions)


class TestInterpreterArithmeticProperties:
    @given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6))
    @settings(max_examples=40)
    def test_c_division_matches_trunc(self, a, b):
        if b == 0:
            return
        src = f'int main() {{ printf("%d", {a} / ({b})); return 0; }}'
        out, _ = run_filter(parse(src), "")
        assert int(out) == int(a / b)  # trunc toward zero

    @given(a=st.integers(0, 10**6), b=st.integers(1, 10**4))
    @settings(max_examples=40)
    def test_mod_identity(self, a, b):
        src = (f'int main() {{ printf("%d", ({a} / {b}) * {b} + {a} % {b}); '
               "return 0; }")
        out, _ = run_filter(parse(src), "")
        assert int(out) == a

    @given(x=st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=40)
    def test_float_passthrough(self, x):
        src = f'int main() {{ printf("%.6f", {x!r}); return 0; }}'
        out, _ = run_filter(parse(src), "")
        assert math.isclose(float(out), x, rel_tol=1e-5, abs_tol=1e-5)


class TestScanfPrintfProperties:
    @given(vals=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_printf_scanf_int_round_trip(self, vals):
        text = " ".join(str(v) for v in vals)
        stream = InputStream(text)
        got = []
        while True:
            v = stream.read_int()
            if v is None:
                break
            got.append(v)
        assert got == vals

    @given(word=st.text(
        alphabet=st.characters(whitelist_categories=["Ll", "Lu", "Nd"]),
        min_size=1, max_size=12))
    @settings(max_examples=40)
    def test_format_then_tokenize(self, word):
        rendered = c_format("%s\t%d\n", [word, 7])
        stream = InputStream(rendered)
        assert stream.read_token() == word
        assert stream.read_int() == 7


class TestRecordLocatorProperties:
    @given(lines=st.lists(
        st.binary(min_size=1, max_size=30).filter(lambda b: b"\n" not in b),
        max_size=40,
    ))
    @settings(max_examples=60)
    def test_every_nonempty_line_is_a_record(self, lines):
        data = b"\n".join(lines) + (b"\n" if lines else b"")
        loc = locate_records(data, TESLA_K40)
        assert loc.records == [l for l in lines if l]

    @given(data=st.binary(max_size=300))
    @settings(max_examples=60)
    def test_records_reassemble_input_bytes(self, data):
        loc = locate_records(data, TESLA_K40)
        # Concatenating records + separators never invents bytes.
        assert sum(len(r) for r in loc.records) <= len(data)
        for rec, off in zip(loc.records, loc.offsets):
            assert data[off : off + len(rec)] == rec


class TestSplitProperties:
    @given(records=st.integers(1, 120), split_kb=st.integers(1, 32))
    @settings(max_examples=30, deadline=2000)
    def test_splits_reassemble_and_respect_boundaries(self, records, split_kb):
        from repro.apps import get_app
        from repro.hadoop.local import LocalJobRunner

        app = get_app("WC")
        text = app.generate(records, seed=3)
        runner = LocalJobRunner(app, use_gpu=False,
                                split_bytes=split_kb * 1024)
        splits = runner.make_splits(text)
        assert b"".join(splits) == text.encode()
        for split in splits[:-1]:
            assert split.endswith(b"\n")  # records never torn
