"""Record stealing vs global work stealing — the design choice of §4.1.

'A global work-stealing approach would incur high overheads, due to
excessive atomic accesses by the GPU threads. HeteroDoop overcomes this
issue by using a novel record-stealing approach that partitions the
records statically across threadblocks but dynamically within
threadblocks.' We implement both and show the paper's choice wins.
"""

import random

import pytest

from repro.compiler import translate
from repro.config import CLUSTER1, OptimizationFlags
from repro.gpu.device import GpuDevice
from repro.gpu.executor import run_map_kernel, run_map_kernel_global_stealing
from repro.kvstore import GlobalKVStore, Partitioner
from repro.minic import parse
from repro.minic.interpreter import ENGINES, Interpreter, use_engine

# Kmeans-shaped compute-per-record map, small grid (see Fig. 7d notes).
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


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(17)
    records = [b"3.5 " * max(1, min(16, int(rng.paretovariate(1.2))))
               for _ in range(1200)]
    tr = translate(parse(SOURCE), opt=OptimizationFlags.all_on())
    kernel = tr.map_kernel
    snapshot = Interpreter(tr.program, stdin="").run_until_region(
        kernel.original_region)
    return records, kernel, snapshot


def fresh_store(kernel):
    return GlobalKVStore(kernel.launch.total_threads,
                         kernel.launch.total_threads * 40,
                         kernel.key_length, kernel.value_length)


def test_block_local_stealing_beats_global(setup):
    records, kernel, snapshot = setup
    device = GpuDevice(CLUSTER1.gpu)
    local = run_map_kernel(device, kernel, records, snapshot,
                           fresh_store(kernel), Partitioner(4))
    glob = run_map_kernel_global_stealing(
        device, kernel, records, snapshot, fresh_store(kernel), Partitioner(4))
    # Same functional work…
    assert glob.records_processed == local.records_processed == len(records)
    # …but the single global counter's serialized atomics cost more.
    assert glob.cost.seconds > local.cost.seconds


def test_global_variant_charges_global_atomics(setup):
    records, kernel, snapshot = setup
    device = GpuDevice(CLUSTER1.gpu)
    glob = run_map_kernel_global_stealing(
        device, kernel, records, snapshot, fresh_store(kernel), Partitioner(4))
    assert glob.cost.totals.global_atomics > 0
    assert glob.cost.totals.shared_atomics == 0
    local = run_map_kernel(device, kernel, records, snapshot,
                           fresh_store(kernel), Partitioner(4))
    assert local.cost.totals.shared_atomics > 0
    assert local.cost.totals.global_atomics == 0


def test_functional_outputs_identical(setup):
    records, kernel, snapshot = setup
    device = GpuDevice(CLUSTER1.gpu)
    s1, s2 = fresh_store(kernel), fresh_store(kernel)
    run_map_kernel(device, kernel, records, snapshot, s1, Partitioner(4))
    run_map_kernel_global_stealing(device, kernel, records, snapshot,
                                   s2, Partitioner(4))
    pairs = lambda s: sorted((p.key, round(p.value, 6), p.partition)  # noqa: E731
                             for _t, p in s.iter_pairs())
    assert pairs(s1) == pairs(s2)


# Both designs run one launch fold that differs in the record
# assignment, the atomic a steal is charged as and the contention term.
# These are the costs the two separate folds produced before they were
# merged (``repr``, so the last float bit counts), on every lane engine.
LOCAL_COST = (
    "KernelCost(cycles=133335.7325, seconds=0.00017897413758389267, "
    "warps=8, blocks=2, totals=WarpCost(instructions=261884.8425, "
    "global_txn=750.0, shared_accesses=0.0, shared_atomics=1200.0, "
    "global_atomics=0.0, texture_accesses=0.0))")
GLOBAL_COST = (
    "KernelCost(cycles=739143.9525, seconds=0.000992139533557047, "
    "warps=8, blocks=2, totals=WarpCost(instructions=270359.9175, "
    "global_txn=750.0, shared_accesses=0.0, shared_atomics=0.0, "
    "global_atomics=1200.0, texture_accesses=0.0))")


@pytest.mark.parametrize("engine", ENGINES)
def test_both_designs_costs_pinned_on_every_engine(setup, engine):
    records, kernel, snapshot = setup
    device = GpuDevice(CLUSTER1.gpu)
    with use_engine(engine):
        local = run_map_kernel(device, kernel, records, snapshot,
                               fresh_store(kernel), Partitioner(4))
        glob = run_map_kernel_global_stealing(
            device, kernel, records, snapshot, fresh_store(kernel),
            Partitioner(4))
    assert repr(local.cost) == LOCAL_COST
    assert repr(glob.cost) == GLOBAL_COST
    assert local.steals == glob.steals == len(records)
    assert local.counters == glob.counters
