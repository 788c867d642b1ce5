"""The JobTracker: pending-task bookkeeping and heartbeat-driven grants."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from ..errors import HadoopError
from ..obs import trace as obs
from ..scheduling.tail import SchedulingPolicy
from .heartbeat import Heartbeat, HeartbeatResponse
from .tasks import MapTask, TaskState


@dataclass
class JobTracker:
    """Tracks the map-task pool for one job and answers heartbeats.

    Scheduling is first-come-first-serve over heartbeats (paper §6.2),
    preferring data-local tasks for the requesting node (stock Hadoop
    behaviour the paper inherits). Per-node locality queues keep each
    heartbeat O(granted), not O(pending). A task sits in the FIFO and in
    the queue of every replica holder; the first queue to grant it sets
    :attr:`MapTask.granted`, and the others drop it when they reach it.
    """

    tasks: list[MapTask]
    policy: SchedulingPolicy
    num_slaves: int
    gpus_per_node: int
    max_task_attempts: int = 4
    max_speedup: float = 1.0     # max aveSpeedup seen across TTs (§6.2)
    _fifo: deque[MapTask] = field(default_factory=deque, init=False)
    _local: defaultdict[int, deque[MapTask]] = field(
        default_factory=lambda: defaultdict(deque), init=False)
    _completed: int = field(default=0, init=False)
    _pending_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.num_slaves < 1:
            raise HadoopError("JobTracker needs slaves")
        for task in self.tasks:
            if task.state is TaskState.PENDING:
                self._enqueue(task)

    def _enqueue(self, task: MapTask) -> None:
        self._fifo.append(task)
        self._pending_count += 1
        for node in task.preferred_nodes:
            self._local[node].append(task)

    def _grantable(self, task: MapTask) -> bool:
        return task.state is TaskState.PENDING and not task.granted

    # -- state -------------------------------------------------------------

    def note_completed(self, task: MapTask) -> None:
        self._completed += 1
        task.granted = False

    @property
    def remaining_maps(self) -> int:
        """Tasks not yet completed (pending + currently running)."""
        return len(self.tasks) - self._completed

    @property
    def pending_maps(self) -> int:
        return self._pending_count

    @property
    def all_maps_done(self) -> bool:
        return self._completed >= len(self.tasks)

    def note_speedup(self, ave_speedup: float) -> None:
        """'The JobTracker remembers the maximum speedup from the
        TaskTrackers' (§6.2)."""
        if ave_speedup > self.max_speedup:
            self.max_speedup = ave_speedup
            rec = obs.active()
            if rec.enabled:
                rec.gauge("jt.max_speedup", ave_speedup)
                rec.inc("jt.speedup_updates")

    def task_failed(self, task: MapTask) -> None:
        """Reschedule a failed attempt (fault tolerance, §5.1)."""
        if task.attempts >= self.max_task_attempts:
            raise HadoopError(
                f"task {task.task_id} failed {task.attempts} times; job aborted"
            )
        task.reset_for_retry()
        task.granted = False
        self._enqueue(task)

    # -- heartbeat handling ---------------------------------------------------

    def handle_heartbeat(self, hb: Heartbeat) -> HeartbeatResponse:
        self.note_speedup(hb.ave_gpu_speedup)
        response = HeartbeatResponse(
            maps_remaining_per_node=self.remaining_maps / self.num_slaves
        )
        if self._pending_count <= 0:
            return response
        grant = self.policy.tasks_to_grant(
            free_cpu_slots=hb.free_cpu_slots,
            free_gpu_slots=hb.free_gpu_slots,
            remaining=self.pending_maps,
            num_gpus_per_node=self.gpus_per_node,
            max_speedup=self.max_speedup,
            num_slaves=self.num_slaves,
        )
        if grant <= 0:
            return response
        chosen = self._pick_tasks(hb.node, grant)
        response.task_ids = [t.task_id for t in chosen]
        return response

    def _pick_tasks(self, node: int, count: int) -> list[MapTask]:
        """Data-local tasks first, then arbitrary (FIFO) — Hadoop's
        locality-aware FIFO. Queues are lazily pruned of tasks already
        granted via another queue."""
        chosen: list[MapTask] = []
        local = self._local.get(node)
        while local and len(chosen) < count:
            task = local.popleft()
            if self._grantable(task):
                chosen.append(task)
                task.granted = True
                self._pending_count -= 1
        while self._fifo and len(chosen) < count:
            task = self._fifo.popleft()
            if self._grantable(task):
                chosen.append(task)
                task.granted = True
                self._pending_count -= 1
        return chosen

    def get_task(self, task_id: int) -> MapTask:
        return self.tasks[task_id]
