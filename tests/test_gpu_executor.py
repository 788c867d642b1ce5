"""Kernel executor tests: record stealing, emit paths, combine semantics,
divergence/vectorization effects on the clock (paper §4.1–4.2)."""

import pytest

from repro.compiler import translate
from repro.config import CLUSTER1, LaunchConfig, OptimizationFlags
from repro.gpu.device import GpuDevice
from repro.gpu.executor import (
    _assign_records_static,
    _assign_records_stealing,
    run_combine_kernel,
    run_map_kernel,
)
from repro.kvstore import GlobalKVStore, KVPair, Partitioner
from repro.minic import parse
from repro.minic.interpreter import Interpreter


def make_map_setup(source, records, opt=None, reducers=4, capacity=4096):
    tr = translate(parse(source), opt=opt)
    kernel = tr.map_kernel
    device = GpuDevice(CLUSTER1.gpu)
    per_thread = 2 * (kernel.kvpairs_per_record or 4)
    store = GlobalKVStore(
        total_threads=kernel.launch.total_threads,
        capacity_pairs=max(capacity, kernel.launch.total_threads * per_thread),
    )
    snapshot = Interpreter(tr.program, stdin="").run_until_region(
        kernel.original_region)
    return device, kernel, store, Partitioner(reducers), snapshot


class TestRecordAssignment:
    def test_static_round_robin(self):
        lanes = _assign_records_static([b"a", b"b", b"c", b"d", b"e"], 2)
        assert lanes[0] == [b"a", b"c", b"e"]
        assert lanes[1] == [b"b", b"d"]

    def test_stealing_balances_bytes(self):
        # One huge record plus many small ones: the thread that grabbed
        # the huge record must not steal anything else.
        records = [b"x" * 1000] + [b"y" * 10] * 10
        lanes, steals = _assign_records_stealing(records, 2, 1000, None)
        assert steals == len(records)
        big_lane = next(l for l in lanes if b"x" * 1000 in l)
        small_lane = next(l for l in lanes if b"x" * 1000 not in l)
        assert len(big_lane) == 1
        assert len(small_lane) == 10

    def test_static_leaves_imbalance(self):
        records = [b"x" * 1000 if i % 2 == 0 else b"y" * 10 for i in range(10)]
        lanes = _assign_records_static(records, 2)
        loads = [sum(len(r) for r in lane) for lane in lanes]
        assert max(loads) > 10 * min(loads)  # all big records on thread 0

    def test_stealing_respects_capacity(self):
        from repro.errors import KVStoreOverflow

        with pytest.raises(KVStoreOverflow):
            _assign_records_stealing([b"r"] * 100, 2, 10, 10)  # 1 record each


class TestMapKernel(object):
    def test_wordcount_emits_all_words(self, wc_map_source):
        dev, kernel, store, part, snap = make_map_setup(
            wc_map_source, None)
        records = [b"the quick fox", b"the dog"]
        result = run_map_kernel(dev, kernel, records, snap, store, part)
        assert store.emitted_pairs == 5
        assert result.records_processed == 2
        keys = sorted(p.key for _t, p in store.iter_pairs())
        assert keys == ["dog", "fox", "quick", "the", "the"]

    def test_cost_positive_and_scales(self, wc_map_source):
        dev, kernel, store, part, snap = make_map_setup(wc_map_source, None)
        few = run_map_kernel(dev, kernel, [b"a b c"] * 5, snap, store, part)
        dev2, kernel2, store2, part2, snap2 = make_map_setup(wc_map_source, None)
        many = run_map_kernel(dev2, kernel2, [b"a b c"] * 500, snap2,
                              store2, part2)
        assert many.cost.seconds > few.cost.seconds > 0

    # Small launch geometry (threads process several records each — the
    # real per-split regime) and per-token compute, like kmeans: the
    # paper's record-stealing scenario (§4.1).
    SMALL_LAUNCH_MAP = """
int main()
{
    char tok[30], *line;
    size_t nbytes = 10000;
    double acc;
    int read, lp, offset, i, k;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(k) value(acc) \\
        kvpairs(2) blocks(2) threads(128)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        offset = 0;
        acc = 0.0;
        k = 0;
        while( (lp = getWord(line, offset, tok, read, 30)) != -1) {
            offset += lp;
            for(i = 0; i < 60; i++) {
                acc += sqrt(atof(tok) + i);
            }
            k++;
        }
        printf("%d\\t%f\\n", k, acc);
    }
    free(line);
    return 0;
}
"""

    def test_stealing_faster_on_skewed_records(self):
        # Pareto-skewed record lengths in random order (the kmeans-like
        # workload of §4.1).
        import random

        rng = random.Random(5)
        skewed = [b"7.5 " * max(1, min(18, int(rng.paretovariate(1.1))))
                  for _ in range(1600)]
        on = OptimizationFlags.all_on()
        off = on.but(record_stealing=False)
        d1, k1, s1, p1, sn1 = make_map_setup(self.SMALL_LAUNCH_MAP, None,
                                             opt=on, capacity=100_000)
        t_on = run_map_kernel(d1, k1, skewed, sn1, s1, p1).cost.seconds
        d2, k2, s2, p2, sn2 = make_map_setup(self.SMALL_LAUNCH_MAP, None,
                                             opt=off, capacity=100_000)
        t_off = run_map_kernel(d2, k2, skewed, sn2, s2, p2).cost.seconds
        assert t_on < t_off  # Fig. 7d direction

    def test_steal_counts_charged(self, wc_map_source):
        dev, kernel, store, part, snap = make_map_setup(wc_map_source, None)
        result = run_map_kernel(dev, kernel, [b"a b"] * 10, snap, store, part)
        assert result.steals == 10

    def test_requires_mapper_kernel(self, wc_combine_source):
        tr = translate(parse(wc_combine_source))
        from repro.errors import GpuError

        with pytest.raises(GpuError):
            run_map_kernel(GpuDevice(CLUSTER1.gpu), tr.combine_kernel,
                           [], {}, None, None)


class TestCombineKernel:
    def run_combine(self, source, pairs, opt=None):
        tr = translate(parse(source), opt=opt)
        kernel = tr.combine_kernel
        snapshot = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)
        device = GpuDevice(CLUSTER1.gpu)
        return run_combine_kernel(device, kernel, pairs, snapshot)

    def test_sums_adjacent_keys(self, wc_combine_source):
        pairs = [KVPair("a", 1, 0), KVPair("a", 1, 0), KVPair("b", 1, 0)]
        result = self.run_combine(wc_combine_source, pairs)
        assert dict(result.output) in ({"a": 2, "b": 1},)

    def test_chunk_boundary_partial_aggregates_allowed(self, wc_combine_source):
        # §4.2: warps emit partial sums at chunk edges; totals must match
        # after re-aggregation but the pair count may exceed the serial
        # combiner's.
        pairs = [KVPair("k", 1, 0) for _ in range(5000)]
        result = self.run_combine(wc_combine_source, pairs)
        total = sum(v for _k, v in result.output)
        assert total == 5000
        assert len(result.output) >= 1
        assert result.chunks > 1  # parallelism actually happened

    def test_empty_partition(self, wc_combine_source):
        result = self.run_combine(wc_combine_source, [])
        assert result.output == [] and result.cost.seconds == 0.0

    def test_vectorized_combine_faster(self, wc_combine_source):
        pairs = [KVPair(f"key{i % 50}", 1, 0) for i in range(2000)]
        pairs.sort(key=lambda p: p.key)
        fast = self.run_combine(wc_combine_source, pairs)
        slow = self.run_combine(
            wc_combine_source, pairs,
            opt=OptimizationFlags.all_on().but(vectorize_combine=False),
        )
        assert fast.cost.seconds < slow.cost.seconds  # Fig. 7b direction
        assert dict(fast.output) == dict(slow.output)
