"""Tail scheduling (paper §6, Algorithm 2).

Two cooperating halves:

* **JobTracker** (``TailScheduleOnJT``): tracks the maximum GPU speedup
  reported by any TaskTracker; once the *job tail* begins — the remaining
  map count drops to what all the cluster's GPUs can finish within one
  CPU-task time (``numGPUs × maxSpeedup × numSlaves``) — it grants at
  most ``numGPUs`` tasks per TaskTracker per heartbeat, so forced-GPU
  tasks don't queue up. It also tells every TaskTracker its estimated
  share of the remaining maps (total remaining ÷ slaves).

* **TaskTracker** (``TailScheduleOnTT``): computes its *task tail*
  (``numGPUs × aveSpeedup`` — the tasks its GPUs retire in one CPU-task
  time). While the node's share of remaining maps exceeds the task tail,
  ordinary GPU-first placement runs; once the share falls to the task
  tail, every subsequent task is forced onto a GPU (Fig. 3's tasks 18–19).

Note on the paper's listing: Algorithm 2 as printed compares
``taskTail <= numMapsRemainingPerNode`` for forcing (and ``jobTail <
remaining`` for capping), which would force GPUs from the *start* of the
job and contradicts both Fig. 3 and the surrounding prose ('the load
imbalance only arises in the execution of the final tasks'). We implement
the prose/figure semantics: forcing begins when the remaining share drops
*below* the tail size.
"""

from __future__ import annotations

from typing import Protocol

from ..obs import trace as obs
from .gpu_first import GpuFirstPolicy, PlacementDecision


class SchedulingPolicy(Protocol):
    """Interface both halves of the simulator consume.

    Contract: a heartbeat advertising no free slot is granted nothing —
    ``tasks_to_grant(0, 0, ...) <= 0`` whatever the other arguments. The
    cluster simulator parks fully busy TaskTrackers on the strength of
    it (``ClusterSimulator._dormant``).
    """

    name: str
    uses_gpus: bool

    def tasks_to_grant(self, free_cpu_slots: int, free_gpu_slots: int,
                       remaining: int, num_gpus_per_node: int,
                       max_speedup: float, num_slaves: int) -> int: ...

    def remote_cap(self, pending: int, num_slaves: int) -> int | None: ...

    def place(self, gpu_free: bool, cpu_free: bool,
              num_gpus: int, ave_speedup: float,
              maps_remaining_per_node: float) -> PlacementDecision: ...


class TailPolicy(GpuFirstPolicy):
    """Algorithm 2 on top of GPU-first."""

    name = "tail"
    uses_gpus = True

    def tasks_to_grant(self, free_cpu_slots: int, free_gpu_slots: int,
                       remaining: int, num_gpus_per_node: int,
                       max_speedup: float, num_slaves: int) -> int:
        job_tail = num_gpus_per_node * max_speedup * num_slaves
        if remaining <= job_tail:
            # Counted per heartbeat that has a slot to fill, so the total
            # is a property of the schedule: a fully busy tracker's
            # heartbeat is granted nothing whether or not it is sent (the
            # simulator parks such trackers instead of dispatching it).
            rec = obs.active()
            if rec.enabled and free_cpu_slots + free_gpu_slots > 0:
                rec.inc("tail.capped_grants")
                rec.gauge("tail.job_tail", job_tail)
            # scheduleNumGPUTasksAtMax: once the job tail begins, grants
            # are capped so forced tasks don't pile up behind busy devices
            # ('the JobTracker only schedules at most numGPUs tasks on a
            # TaskTracker per heartbeat once the jobTail begins', §6.2).
            # free_gpu_slots already nets out queued tasks; the CPU-slot
            # term lets the TaskTracker's fallback guard keep CPUs busy
            # when the GPU speedup is too small for queueing to pay off.
            return min(num_gpus_per_node + free_cpu_slots,
                       free_gpu_slots + free_cpu_slots, remaining)
        return super().tasks_to_grant(
            free_cpu_slots, free_gpu_slots, remaining,
            num_gpus_per_node, max_speedup, num_slaves,
        )

    #: Forcing margin: the JobTracker's remaining-per-node figure is a
    #: cluster average, while queues are node-local; forcing exactly at
    #: taskTail makes unlucky (above-average) nodes drain past one
    #: CPU-task time. A margin below 1 trades a sliver of the ideal win
    #: for never losing to GPU-first.
    FORCE_MARGIN = 0.75

    def place(self, gpu_free: bool, cpu_free: bool,
              num_gpus: int, ave_speedup: float,
              maps_remaining_per_node: float) -> PlacementDecision:
        task_tail = num_gpus * ave_speedup
        if maps_remaining_per_node <= self.FORCE_MARGIN * task_tail:
            rec = obs.active()
            if rec.enabled:
                rec.inc("tail.forced_placements")
                rec.gauge("tail.task_tail", task_tail)
            return PlacementDecision(use_gpu=True, forced=True)
        return super().place(
            gpu_free, cpu_free, num_gpus, ave_speedup, maps_remaining_per_node
        )


class CpuOnlyPolicy(GpuFirstPolicy):
    """The CPU-only Hadoop baseline (no GPU slots exist)."""

    name = "cpu-only"
    uses_gpus = False

    def place(self, gpu_free: bool, cpu_free: bool,
              num_gpus: int, ave_speedup: float,
              maps_remaining_per_node: float) -> PlacementDecision:
        return PlacementDecision(use_gpu=False)
