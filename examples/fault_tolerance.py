#!/usr/bin/env python3
"""Fault tolerance, both layers (paper §5.1):

1. the GPU task pipeline contains a task failure: the error surfaces to
   the caller (Hadoop's cue to reschedule the attempt), the device is
   left clean, and it keeps serving tasks;
2. the JobTracker reschedules failed attempts cluster-wide until the job
   completes — demonstrated with injected task failures, with and
   without speculative execution rescuing stragglers on slow nodes.

Run:  python examples/fault_tolerance.py
"""

from repro.apps import get_app
from repro.config import CLUSTER1
from repro.costmodel.io import IoModel
from repro.errors import KVStoreOverflow
from repro.gpu.device import GpuDevice
from repro.hadoop import ClusterSimulator, JobConf
from repro.hadoop.simulate import TaskDurationModel
from repro.runtime.gpu_task import GpuTaskRunner
from repro.scheduling import CpuOnlyPolicy, GpuFirstPolicy


def driver_demo() -> None:
    print("=== GPU task: fail, leave the device clean, continue (§5.1) ===")
    app = get_app("WC")
    device = GpuDevice(CLUSTER1.gpu)
    runner = GpuTaskRunner(app.translate_map(), app.translate_combine(),
                           device, IoModel.for_cluster(CLUSTER1),
                           num_reducers=4)
    split = app.generate(150, seed=3).encode()

    ok = runner.run(split)
    print(f"  task-1: ok, simulated {ok.breakdown.total * 1e3:.2f} ms")

    # WC declares kvpairs(20); a one-record split of 50 words overflows
    # its thread's portion of the global KV store mid-kernel.
    try:
        runner.run(b"word " * 50 + b"\n")
    except KVStoreOverflow as exc:
        print(f"  task-2: FAILED ({exc}) -> "
              "reported to the TaskTracker for rescheduling")
    print(f"  device after the failure: {device.memory.used} bytes "
          "still allocated")
    assert device.memory.used == 0

    again = runner.run(split)
    same = (again.partition_output == ok.partition_output
            and repr(again.breakdown.total) == repr(ok.breakdown.total))
    print(f"  task-1 again on the same device: identical output and "
          f"simulated time = {same} — the GPU kept serving\n")
    assert same


def cluster_demo() -> None:
    print("=== Cluster: rescheduling + speculation under stragglers ===")
    job = JobConf(name="ft", num_map_tasks=1500, num_reduce_tasks=8,
                  cluster=CLUSTER1, cpu_task_seconds=60.0,
                  gpu_task_seconds=10.0)
    flaky_slow = lambda: TaskDurationModel(  # noqa: E731
        cpu_seconds=60.0, gpu_seconds=10.0, failure_rate=0.03,
        node_speed_factors={n: 4.0 for n in range(4)}, seed=11,
    )
    plain = ClusterSimulator(job, GpuFirstPolicy()).run()
    faulty = ClusterSimulator(job, GpuFirstPolicy(),
                              durations=flaky_slow()).run()
    spec_sim = ClusterSimulator(job, GpuFirstPolicy(),
                                durations=flaky_slow(), speculative=True)
    spec = spec_sim.run()
    print(f"  healthy cluster        : {plain.job_seconds:7.1f} s")
    print(f"  3% failures + 4 slow nodes: {faulty.job_seconds:7.1f} s "
          f"({faulty.failures} attempts rescheduled)")
    print(f"  + speculative execution: {spec.job_seconds:7.1f} s "
          f"({spec_sim.speculative_attempts} backups, "
          f"{spec_sim.wasted_speculation_seconds:.0f} s wasted work)")
    assert spec.job_seconds <= faulty.job_seconds * 1.02


if __name__ == "__main__":
    driver_demo()
    cluster_demo()
