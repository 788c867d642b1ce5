#!/usr/bin/env python3
"""Wordcount end to end, three ways:

1. the CPU-only Hadoop path (Streaming filters, the paper's baseline),
2. the heterogeneous path (translated kernels on the simulated K40),
3. a 48-node cluster simulation at Table 2 scale comparing CPU-only,
   GPU-first, and tail scheduling.

The functional outputs of (1) and (2) are verified identical — the
combiner's §4.2 relaxation disappears after the reduce phase.

Run:  python examples/wordcount_cluster.py
"""

from repro.apps import get_app
from repro.config import CLUSTER1
from repro.hadoop import ClusterSimulator
from repro.hadoop.local import LocalJobRunner
from repro.scenarios import simulated_job, table2_tasks
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy


def main() -> None:
    app = get_app("WC")
    text = app.generate(1200, seed=7)

    # --- functional runs ---------------------------------------------------
    print("Running the job on the CPU path (Hadoop Streaming)...")
    cpu = LocalJobRunner(app, use_gpu=False, split_bytes=16 * 1024).run(text)
    print(f"  {cpu.map_tasks} map tasks, {len(cpu.output)} distinct words")

    print("Running the job on the GPU path (translated kernels)...")
    gpu = LocalJobRunner(app, use_gpu=True, split_bytes=16 * 1024).run(text)
    print(f"  {gpu.map_tasks} map tasks, {len(gpu.output)} distinct words")

    assert cpu.output == gpu.output, "CPU and GPU paths must agree!"
    print("  outputs identical (one source, two processors) ✓")

    sample = sorted(gpu.output.items(), key=lambda kv: -kv[1])[:8]
    print("  most frequent words:", sample)

    # --- cluster-scale simulation ------------------------------------------
    print("\nSimulating WC at Table 2 scale on Cluster1 "
          "(48 nodes x 20 cores + 1 K40)...")
    job = simulated_job("WC", CLUSTER1, *table2_tasks("WC", CLUSTER1.name),
                        seed=7)
    base, gf, tail = (ClusterSimulator(job, policy).run() for policy in
                      (CpuOnlyPolicy(), GpuFirstPolicy(), TailPolicy()))
    print(f"  single-task GPU speedup  : "
          f"{job.cpu_task_seconds / job.gpu_task_seconds:.1f}x")
    print(f"  CPU-only Hadoop          : {base.job_seconds:7.1f} s")
    print(f"  HeteroDoop (GPU-first)   : {gf.job_seconds:7.1f} s "
          f"({base.job_seconds / gf.job_seconds:.2f}x)")
    print(f"  HeteroDoop (tail sched)  : {tail.job_seconds:7.1f} s "
          f"({base.job_seconds / tail.job_seconds:.2f}x)")
    print(f"  GPU task share           : {gf.gpu_tasks}/"
          f"{gf.gpu_tasks + gf.cpu_tasks}")


if __name__ == "__main__":
    main()
