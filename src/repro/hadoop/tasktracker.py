"""The TaskTracker: slot management and CPU/GPU task placement.

Each slave runs ``max_map_slots`` CPU map slots plus one *reserved* slot
per GPU (paper §5.1: 'TaskTrackers on each slave keep one slot reserved
per GPU. Note that these slots simply offload the tasks on GPUs; no CPU
time is consumed'). Placement between CPU and GPU follows the active
policy; forced-GPU tasks from the tail scheduler queue on the
least-loaded device.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..errors import HadoopError
from ..scheduling.tail import SchedulingPolicy
from .heartbeat import Heartbeat
from .tasks import MapTask, NodeStats, SlotKind


@dataclass
class TaskTracker:
    node: int
    cpu_slots: int
    num_gpus: int
    policy: SchedulingPolicy
    stats: NodeStats = field(default_factory=NodeStats)
    running_cpu: int = 0
    busy_gpus: int = 0
    gpu_queue: list[MapTask] = field(default_factory=list)
    maps_remaining_per_node: float = float("inf")

    def __post_init__(self) -> None:
        if self.cpu_slots < 0 or self.num_gpus < 0:
            raise HadoopError("negative slot counts")
        if not self.policy.uses_gpus:
            self.num_gpus = 0

    # -- heartbeat -------------------------------------------------------------

    @property
    def free_gpu_slots(self) -> int:
        # Free GPU capacity nets out tasks already queued behind devices,
        # so the tail-mode JobTracker never builds deep GPU queues.
        return max(0, self.num_gpus - self.busy_gpus - len(self.gpu_queue))

    @property
    def has_free_slot(self) -> bool:
        """Would the next heartbeat advertise any free slot?"""
        return self.running_cpu < self.cpu_slots or self.free_gpu_slots > 0

    def make_heartbeat(self) -> Heartbeat:
        return Heartbeat(
            node=self.node,
            free_cpu_slots=self.cpu_slots - self.running_cpu,
            free_gpu_slots=self.free_gpu_slots,
            running_tasks=self.running_cpu + self.busy_gpus,
            ave_gpu_speedup=self.stats.ave_speedup,
        )

    # -- placement -------------------------------------------------------------

    def place(self, task: MapTask) -> SlotKind:
        """Decide where an incoming task runs; reserves the slot.

        Returns the slot kind. Forced-GPU placements may queue (the caller
        starts queued tasks as devices free up).
        """
        decision = self.policy.place(
            gpu_free=self.busy_gpus < self.num_gpus,
            cpu_free=self.running_cpu < self.cpu_slots,
            num_gpus=self.num_gpus,
            ave_speedup=self.stats.ave_speedup,
            maps_remaining_per_node=self.maps_remaining_per_node,
        )
        if decision.use_gpu and self.num_gpus > 0:
            task.slot = SlotKind.GPU
            task.forced_gpu = decision.forced
            if self.busy_gpus < self.num_gpus:
                self.busy_gpus += 1
                return SlotKind.GPU
            if decision.forced and self._worth_queueing():
                # 'All slots on a TaskTracker force their tasks on the
                # GPU(s) once the taskTail begins' (§6.2), bounded by the
                # node's own backlog: the queue may only grow while it
                # still drains within about one CPU-task time, which is
                # the profitability condition behind taskTail itself.
                self.gpu_queue.append(task)
                return SlotKind.GPU
            task.forced_gpu = False
            # GPU-first with every device busy falls back to a CPU slot.
        if self.running_cpu >= self.cpu_slots:
            # Tail regime: the JobTracker grants up to numGPUs tasks per
            # heartbeat irrespective of CPU occupancy; with every CPU slot
            # busy the task waits for a device ('queuing might occur on
            # the GPU(s)', §6.2).
            if self.num_gpus > 0:
                task.slot = SlotKind.GPU
                task.forced_gpu = True
                self.gpu_queue.append(task)
                return SlotKind.GPU
            raise HadoopError(
                f"node {self.node} has no free slot for task {task.task_id}"
            )
        task.slot = SlotKind.CPU
        self.running_cpu += 1
        return SlotKind.CPU

    def _worth_queueing(self) -> bool:
        """Queue a forced task behind busy devices only while the node's
        backlog (queued + in-flight, in GPU-task units) still drains within
        one CPU-task time: backlog < numGPUs × aveSpeedup. Past that point
        a CPU slot finishes the task sooner, so forcing would *lengthen*
        the job (§6.1's goal is minimizing job time, not GPU utilization)."""
        backlog = len(self.gpu_queue) + self.busy_gpus
        # Very deep queues (high speedups) amplify cross-node imbalance —
        # committed tasks cannot migrate — so depth is also capped at a
        # small multiple of the device count.
        limit = self.num_gpus * min(self.stats.ave_speedup, 8.0)
        return backlog < limit

    def queued_gpu_task(self) -> MapTask | None:
        """Pop the next forced task waiting for a device, if any."""
        if self.gpu_queue and self.busy_gpus < self.num_gpus:
            self.busy_gpus += 1
            return self.gpu_queue.pop(0)
        return None

    def release_slot(self, slot: SlotKind, seconds: float) -> None:
        """Free a slot and record the attempt's duration (also used for
        speculative attempts, which are not bound to ``task.slot``)."""
        if slot is SlotKind.GPU:
            if self.busy_gpus <= 0:
                raise HadoopError("GPU slot underflow")
            self.busy_gpus -= 1
        else:
            if self.running_cpu <= 0:
                raise HadoopError("CPU slot underflow")
            self.running_cpu -= 1
        self.stats.record(slot, seconds)

    def reserve_cpu_slot(self) -> bool:
        """Claim a CPU slot for a speculative attempt, if one is free."""
        if self.running_cpu < self.cpu_slots:
            self.running_cpu += 1
            return True
        return False

    def task_done(self, task: MapTask, seconds: float) -> None:
        self.release_slot(task.slot, seconds)

    @property
    def waiting_on_gpu(self) -> int:
        return len(self.gpu_queue)
