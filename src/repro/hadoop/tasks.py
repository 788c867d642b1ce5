"""Task state machine (map tasks; reduce is modelled at phase level)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import HadoopError


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


class SlotKind(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"


@dataclass(slots=True, eq=False)
class MapTask:
    """One map task (processes one fileSplit).

    Slotted, and equal only to itself: a 1000-node simulation holds one
    per input split for the whole run, and nothing compares two tasks by
    value.
    """

    task_id: int
    preferred_nodes: tuple[int, ...] = ()   # replica holders (data locality)
    state: TaskState = TaskState.PENDING
    attempts: int = 0
    node: int | None = None
    slot: SlotKind | None = None
    start_time: float = 0.0
    finish_time: float = 0.0
    data_local: bool = False
    forced_gpu: bool = False                # placed by the tail scheduler
    #: Handed to a TaskTracker and not yet completed or failed (it may
    #: still wait in a device queue, PENDING): the JobTracker's lazy
    #: queue pruning skips it.
    granted: bool = False

    def assign(self, node: int, now: float) -> None:
        if self.state is TaskState.RUNNING:
            raise HadoopError(f"task {self.task_id} already running")
        self.state = TaskState.RUNNING
        self.node = node
        self.start_time = now
        self.attempts += 1
        self.data_local = node in self.preferred_nodes

    def complete(self, now: float) -> None:
        if self.state is not TaskState.RUNNING:
            raise HadoopError(f"task {self.task_id} not running")
        self.state = TaskState.COMPLETED
        self.finish_time = now

    def fail(self, now: float) -> None:
        if self.state is not TaskState.RUNNING:
            raise HadoopError(f"task {self.task_id} not running")
        self.state = TaskState.FAILED
        self.finish_time = now

    def reset_for_retry(self) -> None:
        if self.state is not TaskState.FAILED:
            raise HadoopError("only failed tasks can be retried")
        self.state = TaskState.PENDING
        self.node = None
        self.slot = None
        self.forced_gpu = False

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


@dataclass(slots=True)
class NodeStats:
    """Per-TaskTracker execution statistics (feeds aveSpeedup)."""

    cpu_tasks: int = 0
    gpu_tasks: int = 0
    cpu_seconds: float = 0.0
    gpu_seconds: float = 0.0

    def record(self, slot: SlotKind, seconds: float) -> None:
        if slot is SlotKind.CPU:
            self.cpu_tasks += 1
            self.cpu_seconds += seconds
        else:
            self.gpu_tasks += 1
            self.gpu_seconds += seconds

    @property
    def ave_speedup(self) -> float:
        """Observed GPU-slot speedup over a CPU slot (paper §6.2). Falls
        back to 1.0 until both kinds have completed at least once."""
        if self.cpu_tasks == 0 or self.gpu_tasks == 0:
            return 1.0
        mean_cpu = self.cpu_seconds / self.cpu_tasks
        mean_gpu = self.gpu_seconds / self.gpu_tasks
        if mean_gpu <= 0:
            return 1.0
        return mean_cpu / mean_gpu
