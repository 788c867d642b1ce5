#!/usr/bin/env python3
"""Tail scheduling, from the Fig. 3 example to a full cluster.

First replays the paper's Fig. 3 example (19 tasks, 2 CPU slots, a GPU
that is 6x faster) on a one-node cluster simulation and prints both
schedules; then simulates each of the
paper's apps on the 48-node Cluster1, at its measured single-task GPU
speedup, to show where tail scheduling pays off (taskTail exceeding the
per-node slot count) and where it is neutral (the paper's LR case).

Run:  python examples/tail_scheduling.py
"""

from repro.config import CLUSTER1
from repro.experiments.figures import fig3
from repro.hadoop import ClusterSimulator
from repro.scenarios import PAPER_APP_ORDER, simulated_job, table2_tasks
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy, TailPolicy


def show_schedule(title, schedule) -> None:
    print(f"  {title}:")
    by_slot: dict[str, list[str]] = {}
    for task, slot, start, end in schedule:
        by_slot.setdefault(slot, []).append(f"{task}@{start:.2f}")
    for slot in sorted(by_slot):
        print(f"    {slot:5s}: {' '.join(by_slot[slot])}")
    print(f"    makespan = {max(end for *_x, end in schedule):.2f} CPU-task units")


def main() -> None:
    print("=== Fig. 3: the key idea ===")
    result = fig3()
    show_schedule("GPU-first", result.gpu_first_schedule)
    show_schedule("Tail scheduling", result.tail_schedule)
    gain = result.gpu_first_makespan / result.tail_makespan
    print(f"  tail scheduling is {gain:.2f}x faster on the Fig. 3 example\n")

    print("=== Cluster scale: the paper's apps at Table 2 size "
          "(48 nodes, 1 GPU each) ===")
    print(f"{'app':>4s} {'GPU speedup':>12s} {'cpu-only':>10s} "
          f"{'gpu-first':>10s} {'tail':>10s} {'forced':>7s}")
    for app in PAPER_APP_ORDER:
        job = simulated_job(app, CLUSTER1, *table2_tasks(app, CLUSTER1.name),
                            seed=7)
        base, gf, tail = (ClusterSimulator(job, policy).run() for policy in
                          (CpuOnlyPolicy(), GpuFirstPolicy(), TailPolicy()))
        speedup = job.cpu_task_seconds / job.gpu_task_seconds
        print(f"{app:>4s} {speedup:>11.1f}x {base.job_seconds:>9.0f}s "
              f"{gf.job_seconds:>9.0f}s {tail.job_seconds:>9.0f}s "
              f"{tail.forced_gpu_tasks:>7d}")
    print("\nForcing only engages once taskTail (numGPUs x speedup) rivals")
    print("the 20 CPU slots per node — which is why the paper sees tail")
    print("gains for BS/CL on Cluster1 but none for LR.")


if __name__ == "__main__":
    main()
