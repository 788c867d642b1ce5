"""Ablations beyond the paper (DESIGN.md §6):

* tail-scheduling sensitivity to speedup misestimation,
* the kvpairs clause's over-allocation vs sort-efficiency trade-off,
* threadblock/threads launch-tuning surface.
"""

import copy

import pytest

from repro.apps import get_app
from repro.config import CLUSTER1, LaunchConfig, OptimizationFlags
from repro.costmodel.io import IoModel
from repro.experiments.calibrate import single_task_times
from repro.gpu.device import GpuDevice
from repro.hadoop import ClusterSimulator, JobConf
from repro.runtime.gpu_task import GpuTaskRunner
from repro.scheduling import GpuFirstPolicy, TailPolicy


class TestTailSpeedupMisestimation:
    """Algorithm 2 uses the *measured* aveSpeedup; what if it is off?
    We inject a fixed bias into the duration model's reported GPU speed
    by shifting gpu_task_seconds, then compare against an oracle run."""

    def run_with(self, gpu_seconds):
        job = JobConf(name="x", num_map_tasks=3600, num_reduce_tasks=16,
                      cluster=CLUSTER1, cpu_task_seconds=60.0,
                      gpu_task_seconds=gpu_seconds)
        return ClusterSimulator(job, TailPolicy()).run().job_seconds

    def test_benchmark(self, benchmark):
        def sweep():
            return {s: self.run_with(60.0 / s) for s in (10, 20, 40)}

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\ntail job seconds by true speedup:",
              {s: f"{t:.0f}s" for s, t in results.items()})
        # Faster GPUs never lengthen the job under tail scheduling beyond
        # wave-quantization jitter (the curve can plateau once the
        # constant reduce phase dominates).
        assert results[40] <= results[20] * 1.02 <= results[10] * 1.05
        assert results[40] < results[10]


class TestKvpairsClauseSweep:
    """§3.2: the kvpairs clause shrinks the global KV store; smaller
    stores aggregate (and without aggregation, sort) more efficiently."""

    def sort_time(self, kvpairs_value):
        app = get_app("WC")
        source = app.map_source.replace("kvpairs(20)",
                                        f"kvpairs({kvpairs_value})")
        from repro.compiler import translate
        from repro.minic import parse

        opt = OptimizationFlags.all_on().but(kv_aggregation=False)
        tr = translate(parse(source), opt=opt)
        runner = GpuTaskRunner(
            tr, app.translate_combine(opt), GpuDevice(CLUSTER1.gpu),
            IoModel.for_cluster(CLUSTER1), num_reducers=8,
        )
        split = app.generate(300, seed=4).encode()
        return runner.run(split).breakdown.sort

    def test_benchmark(self, benchmark):
        def sweep():
            return {k: self.sort_time(k) for k in (20, 40, 80)}

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nunaggregated sort seconds by kvpairs clause:",
              {k: f"{t * 1e3:.3f}ms" for k, t in results.items()})
        # Over-allocating the store (larger kvpairs) never speeds the
        # whitespace-ridden sort.
        assert results[80] >= results[20] * 0.99


class TestGlobalVsBlockStealing:
    """§4.1's rejected alternative: one global record counter. The paper
    argues its atomics are too expensive; we implement both and measure."""

    def test_benchmark(self, benchmark):
        import random

        from repro.compiler import translate
        from repro.gpu.executor import (
            run_map_kernel,
            run_map_kernel_global_stealing,
        )
        from repro.kvstore import GlobalKVStore, Partitioner
        from repro.minic import parse
        from repro.minic.interpreter import Interpreter

        SOURCE = """
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
            for(i = 0; i < 40; i++) {
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
        rng = random.Random(17)
        records = [b"3.5 " * max(1, min(16, int(rng.paretovariate(1.2))))
                   for _ in range(1200)]
        tr = translate(parse(SOURCE))
        kernel = tr.map_kernel
        snapshot = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)

        def store():
            return GlobalKVStore(kernel.launch.total_threads,
                                 kernel.launch.total_threads * 40)

        def compare():
            device = GpuDevice(CLUSTER1.gpu)
            local = run_map_kernel(device, kernel, records, snapshot,
                                   store(), Partitioner(4)).cost.seconds
            glob = run_map_kernel_global_stealing(
                device, kernel, records, snapshot, store(),
                Partitioner(4)).cost.seconds
            return local, glob

        local, glob = benchmark.pedantic(compare, rounds=1, iterations=1)
        print(f"\nblock-local stealing {local * 1e3:.3f} ms vs "
              f"global counter {glob * 1e3:.3f} ms "
              f"({glob / local:.2f}x slower) — the paper's §4.1 choice wins")
        assert glob > local


class TestLaunchTuningSurface:
    """blocks/threads clauses expose a tuning surface (Table 1)."""

    def map_time(self, blocks, threads):
        app = get_app("CL")
        tr = app.translate_map()
        kernel = copy.copy(tr.map_kernel)
        kernel.launch = LaunchConfig(blocks=blocks, threads=threads)
        from repro.gpu.executor import run_map_kernel
        from repro.kvstore import GlobalKVStore, Partitioner
        from repro.minic.interpreter import Interpreter

        device = GpuDevice(CLUSTER1.gpu)
        store = GlobalKVStore(kernel.launch.total_threads,
                              kernel.launch.total_threads * 8)
        snap = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)
        records = [l.encode() for l in app.generate(600, seed=6).splitlines()]
        from repro.kvstore import Partitioner as P

        return run_map_kernel(device, kernel, records, snap, store,
                              P(16)).cost.seconds

    def test_benchmark(self, benchmark):
        def sweep():
            return {
                (b, t): self.map_time(b, t)
                for b, t in ((15, 64), (30, 128), (60, 128), (120, 256))
            }

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nCL map kernel seconds by launch:",
              {k: f"{v * 1e6:.1f}us" for k, v in results.items()})
        # More blocks than SMs amortize; extremes are not optimal.
        assert min(results.values()) > 0
