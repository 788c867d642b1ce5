"""Discrete-event cluster simulation of one MapReduce job.

Wires HDFS block placement, the JobTracker, per-node TaskTrackers, the
heartbeat protocol, and a scheduling policy into the event loop, then
runs every map task to completion and adds the reduce-phase estimate.
Task durations come from a :class:`TaskDurationModel` (calibrated from
the single-task functional simulations; see
``repro.experiments.calibrate``) with deterministic per-task jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from ..costmodel.io import IoModel
from ..errors import HadoopError
from ..hdfs import Hdfs
from ..obs import trace as obs
from ..scheduling.tail import SchedulingPolicy
from .events import EventLoop
from .job import JobConf, JobResult
from .jobtracker import JobTracker
from .shuffle import estimate_reduce_phase
from .tasks import MapTask, SlotKind, TaskState
from .tasktracker import TaskTracker


@dataclass
class TaskDurationModel:
    """Samples per-task durations with deterministic jitter.

    ``failure_rate`` injects task failures (fault-tolerance tests): a
    failed attempt consumes half its duration, is reported to the
    JobTracker, and is rescheduled (paper §5.1).

    ``node_speed_factors`` models *inter-node* heterogeneity — the
    paper's explicit future work ('We leave handling of extreme
    inter-node heterogeneity to future work', §9): a factor > 1 makes a
    node's CPU tasks proportionally slower (older processors), while its
    GPUs keep their own speed.
    """

    cpu_seconds: float
    gpu_seconds: float
    jitter: float = 0.04
    nonlocal_penalty: float = 2.0
    failure_rate: float = 0.0
    seed: int = 99
    node_speed_factors: dict[int, float] | None = None

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def sample(self, slot: SlotKind, data_local: bool,
               node: int | None = None) -> tuple[float, bool]:
        """(duration, fails) for one attempt."""
        base = self.cpu_seconds if slot is SlotKind.CPU else self.gpu_seconds
        if (slot is SlotKind.CPU and node is not None
                and self.node_speed_factors is not None):
            base *= self.node_speed_factors.get(node, 1.0)
        jit = self._rng.uniform(-self.jitter, self.jitter)
        duration = base * (1.0 + jit)
        if not data_local:
            duration += self.nonlocal_penalty
        fails = self._rng.random() < self.failure_rate
        return duration, fails


@dataclass
class _Attempt:
    """One execution attempt of a map task (speculation can create two)."""

    task: MapTask
    tracker: TaskTracker
    slot: SlotKind
    duration: float
    speculative: bool = False
    #: Open trace span + slot-lane index, set only while tracing.
    span: obs.SpanEvent | None = None
    lane: int | None = None


class ClusterSimulator:
    """Runs one job under one scheduling policy.

    ``speculative`` enables Hadoop's speculative execution (Table 3 rows;
    the paper ran with it Off): once no pending work remains, stragglers
    — running attempts projected to finish well after the completed-task
    mean — get a backup attempt on a free CPU slot; the first finisher
    wins and the loser's result is discarded.

    Heartbeats are event-driven. A TaskTracker beats every
    ``heartbeat_interval_s`` on its own tick grid, but a tracker whose
    next heartbeats provably change nothing (:meth:`_dormant`) is
    *parked*: nothing goes on the event queue until an event that can
    make its heartbeat matter again *wakes* it (:meth:`_wake`) — a slot
    release on it, or failed work re-queued while nothing was pending.
    The ticks slept through are the heartbeats the cluster would still
    have sent, so they are added to ``sim.heartbeats`` arithmetically,
    and the woken heartbeat lands on the same tick, in the same order
    among equal-time events, as if the tracker had polled throughout.
    """

    #: A running task is a straggler once its projected completion exceeds
    #: this multiple of the mean completed-task duration.
    SPECULATION_THRESHOLD = 1.4

    def __init__(self, job: JobConf, policy: SchedulingPolicy,
                 durations: TaskDurationModel | None = None,
                 speculative: bool | None = None):
        self.job = job
        self.policy = policy
        cluster = job.cluster
        self.durations = durations or TaskDurationModel(
            cpu_seconds=job.cpu_task_seconds,
            gpu_seconds=job.gpu_task_seconds,
            jitter=job.duration_jitter,
            nonlocal_penalty=job.nonlocal_read_penalty,
            seed=job.seed,
        )
        self.io = IoModel.for_cluster(cluster)

        # Block placement through the simulated HDFS namenode.
        hdfs = Hdfs(
            num_nodes=cluster.num_slaves,
            block_size=cluster.hdfs_block_size,
            replication=cluster.hdfs_replication,
            seed=job.seed,
        )
        f = hdfs.put_virtual(f"{job.name}.input", job.num_map_tasks)
        self.tasks = [
            MapTask(
                task_id=i,
                split_index=i,
                preferred_nodes=f.blocks[i].replicas,
            )
            for i in range(job.num_map_tasks)
        ]
        self.jobtracker = JobTracker(
            tasks=self.tasks,
            policy=policy,
            num_slaves=cluster.num_slaves,
            gpus_per_node=cluster.gpus_per_node if policy.uses_gpus else 0,
        )
        self.trackers = [
            TaskTracker(
                node=n,
                cpu_slots=cluster.max_map_slots_per_node,
                num_gpus=cluster.gpus_per_node if policy.uses_gpus else 0,
                policy=policy,
            )
            for n in range(cluster.num_slaves)
        ]
        self.loop = EventLoop()
        # One prebound callback per tracker: heartbeats are the most
        # scheduled event, so a fresh closure per beat is measurable waste.
        self._hb_interval = cluster.heartbeat_interval_s
        self._hb_fns = [partial(self._heartbeat, t) for t in self.trackers]
        #: Parked trackers: node → the tick of its last dispatched heartbeat.
        self._parked: dict[int, float] = {}
        self._map_phase_end = 0.0
        #: ``scheduled_at`` of the event that completed the last map.
        self._map_phase_end_scheduled_at = 0.0
        self._failures = 0
        self.speculative = (
            speculative if speculative is not None
            else cluster.speculative_execution
        )
        self._running_attempts: dict[int, _Attempt] = {}  # task_id → primary
        self._speculated: set[int] = set()
        self._completed_durations: list[float] = []
        #: (len(_completed_durations), their mean), see _maybe_speculate.
        self._completed_mean = (0, 0.0)
        self.wasted_speculation_seconds = 0.0
        self.speculative_attempts = 0
        #: Free slot-lane indices per (node, slot kind), only while tracing.
        self._free_lanes: dict[tuple[int, SlotKind], list[int]] = {}
        self._lane_high: dict[tuple[int, SlotKind], int] = {}

    # -- tracing ----------------------------------------------------------------

    def _trace_attempt_start(self, attempt: _Attempt) -> None:
        """Open the attempt's span on a concrete slot lane of its node.

        Lanes mirror the tracker's slot pool: the lowest free index is
        taken at launch and returned at release, so concurrent attempts
        on one node render side by side (cpu0..cpuN / gpu0..gpuM) and a
        lane never holds two overlapping spans.
        """
        rec = obs.active()
        if not rec.enabled:
            return
        key = (attempt.tracker.node, attempt.slot)
        free = self._free_lanes.setdefault(key, [])
        if free:
            free.sort()
            attempt.lane = free.pop(0)
        else:
            attempt.lane = self._lane_high.get(key, 0)
            self._lane_high[key] = attempt.lane + 1
        task = attempt.task
        attempt.span = rec.begin(
            f"map#{task.task_id}", "attempt",
            f"node{attempt.tracker.node}",
            f"{attempt.slot.value}{attempt.lane}",
            ts=self.loop.now,
            args={
                "task": task.task_id,
                "slot": attempt.slot.value,
                "data_local": task.data_local,
                "speculative": attempt.speculative,
                "forced_gpu": task.forced_gpu,
            },
        )
        rec.inc("sim.attempts")

    def _trace_attempt_end(self, attempt: _Attempt, outcome: str) -> None:
        """Close the attempt's span and return its lane to the pool."""
        rec = obs.active()
        if not rec.enabled or attempt.span is None:
            return
        rec.end(attempt.span, ts=self.loop.now, args={"outcome": outcome})
        attempt.span = None
        if attempt.lane is not None:
            key = (attempt.tracker.node, attempt.slot)
            self._free_lanes.setdefault(key, []).append(attempt.lane)
            attempt.lane = None
        rec.inc(f"sim.attempts.{outcome}")
        if outcome == "completed":
            rec.counter(
                "map-progress", "cluster-sim",
                {"completed": float(len(self._completed_durations))},
                ts=self.loop.now,
            )

    def _trace_job_end(self, rec: obs.TraceRecorder, job_span: obs.SpanEvent,
                       reduce_phase, completed, gpu_tasks: int,
                       local: int) -> None:
        """Reduce-phase spans, end-of-job counters, and the job span close."""
        start = self._map_phase_end
        for name, seconds in (
            ("shuffle", reduce_phase.shuffle_seconds),
            ("merge", reduce_phase.merge_seconds),
            ("reduce", reduce_phase.reduce_seconds),
            ("write", reduce_phase.write_seconds),
        ):
            rec.complete(name, "reduce-phase", "cluster-sim", "reduce",
                         seconds, ts=start)
            start += seconds
        rec.inc("sim.tasks.gpu", gpu_tasks)
        rec.inc("sim.tasks.cpu", len(completed) - gpu_tasks)
        rec.inc("sim.tasks.tail_forced",
                sum(1 for t in completed if t.forced_gpu))
        rec.inc("sim.tasks.data_local", local)
        rec.inc("sim.failures", self._failures)
        # Trackers still parked when the last map completed slept through
        # heartbeats that polling would have dispatched before that event.
        for tick in self._parked.values():
            rec.inc("sim.heartbeats", self._ticks_before(
                tick, self._map_phase_end,
                self._map_phase_end_scheduled_at)[0])
        rec.gauge("sim.map_phase_seconds", self._map_phase_end)
        rec.gauge("sim.job_seconds", self._map_phase_end + reduce_phase.total)
        rec.end(job_span, ts=self._map_phase_end + reduce_phase.total,
                args={"map_phase_seconds": self._map_phase_end,
                      "reduce_phase_seconds": reduce_phase.total})

    # -- event handlers ---------------------------------------------------------

    def _heartbeat(self, tracker: TaskTracker) -> None:
        if self.jobtracker.all_maps_done:
            return  # cluster drains; no more heartbeats needed
        response = self.jobtracker.handle_heartbeat(tracker.make_heartbeat())
        rec = obs.active()
        if rec.enabled:
            rec.inc("sim.heartbeats")
            if response.task_ids:
                rec.inc("sim.grants", len(response.task_ids))
        tracker.maps_remaining_per_node = response.maps_remaining_per_node
        for task_id in response.task_ids:
            task = self.jobtracker.get_task(task_id)
            self._launch(tracker, task)
        if self.speculative and not response.task_ids \
                and self.jobtracker.pending_maps == 0:
            self._maybe_speculate(tracker)
        if self._dormant(tracker):
            self._parked[tracker.node] = self.loop.now
        else:
            self.loop.schedule(self._hb_interval, self._hb_fns[tracker.node])

    def _dormant(self, tracker: TaskTracker) -> bool:
        """True when every heartbeat of ``tracker`` is a no-op until one
        of the :meth:`_wake` events happens.

        With nothing pending the JobTracker grants nothing, and only the
        (time-dependent) straggler scan can act, which needs speculation
        on and a free CPU slot. With work pending, a heartbeat that
        advertises no free slot is granted nothing (the
        :class:`SchedulingPolicy` contract). The speedup it would report
        was reported by the heartbeat that just ran and only changes on a
        slot release; ``maps_remaining_per_node`` may go stale meanwhile,
        it is only read by ``place()`` in the heartbeat that sets it.
        """
        if self.jobtracker.pending_maps == 0:
            return not (self.speculative
                        and tracker.running_cpu < tracker.cpu_slots)
        return not tracker.has_free_slot

    def _ticks_before(self, tick: float, when: float,
                      scheduled_at: float) -> tuple[int, float, float]:
        """Walk a parked tracker's tick grid from its last dispatched
        heartbeat at ``tick`` past every heartbeat polling would have
        dispatched before the event ``(when, scheduled_at)``.

        Returns ``(skipped, previous tick, next tick)``. The grid is
        built by the float additions ``schedule(interval)`` would have
        made, and a tick sorts before the event exactly as the polled
        heartbeat would have: it fires at ``tick`` and was scheduled at
        the tick before it.
        """
        interval = self._hb_interval
        skipped = 0
        prev, tick = tick, tick + interval
        while tick < when or (tick == when and prev < scheduled_at):
            prev, tick = tick, tick + interval
            skipped += 1
        return skipped, prev, tick

    def _wake(self, tracker: TaskTracker) -> None:
        """Put a parked tracker's next heartbeat back on the queue."""
        parked_at = self._parked.get(tracker.node)
        if parked_at is None or self.jobtracker.all_maps_done:
            return  # not parked, or draining (counted in _trace_job_end)
        del self._parked[tracker.node]
        loop = self.loop
        skipped, prev, tick = self._ticks_before(
            parked_at, loop.now, loop.scheduled_at)
        loop.schedule_at(tick, self._hb_fns[tracker.node], scheduled_at=prev)
        if skipped:
            rec = obs.active()
            if rec.enabled:
                rec.inc("sim.heartbeats", skipped)

    def _maybe_speculate(self, tracker: TaskTracker) -> None:
        """Launch a backup attempt for the worst straggler on a free CPU
        slot (Hadoop's speculative execution, simplified to projected
        completion vs the completed-task mean)."""
        completed = len(self._completed_durations)
        if not completed:
            return
        if self._completed_mean[0] != completed:
            self._completed_mean = (
                completed, sum(self._completed_durations) / completed)
        mean = self._completed_mean[1]
        now = self.loop.now
        worst: _Attempt | None = None
        worst_remaining = 0.0
        for task_id, attempt in self._running_attempts.items():
            if task_id in self._speculated:
                continue
            projected = attempt.task.start_time + attempt.duration
            if projected - attempt.task.start_time \
                    < self.SPECULATION_THRESHOLD * mean:
                continue
            remaining = projected - now
            if remaining > worst_remaining and remaining > mean * 0.5:
                worst, worst_remaining = attempt, remaining
        if worst is None or not tracker.reserve_cpu_slot():
            return
        duration, _fails = self.durations.sample(
            SlotKind.CPU, data_local=False, node=tracker.node
        )
        backup = _Attempt(task=worst.task, tracker=tracker,
                          slot=SlotKind.CPU, duration=duration,
                          speculative=True)
        self._speculated.add(worst.task.task_id)
        self.speculative_attempts += 1
        rec = obs.active()
        if rec.enabled:
            rec.instant(
                "speculate", "scheduling", "cluster-sim", "decisions",
                ts=self.loop.now,
                args={"task": worst.task.task_id, "node": tracker.node,
                      "remaining": worst_remaining},
            )
            rec.inc("sim.speculative_attempts")
        self._trace_attempt_start(backup)
        self.loop.schedule(duration, lambda: self._attempt_done(backup))

    def _launch(self, tracker: TaskTracker, task: MapTask) -> None:
        slot = tracker.place(task)
        if slot is SlotKind.GPU and task in tracker.gpu_queue:
            return  # queued behind a busy device; started on free-up
        self._start(tracker, task)

    def _start(self, tracker: TaskTracker, task: MapTask) -> None:
        task.assign(tracker.node, self.loop.now)
        duration, fails = self.durations.sample(
            task.slot, task.data_local, node=tracker.node
        )
        attempt = _Attempt(task=task, tracker=tracker, slot=task.slot,
                           duration=duration)
        self._running_attempts[task.task_id] = attempt
        self._trace_attempt_start(attempt)
        if fails:
            self.loop.schedule(
                duration * 0.5, lambda: self._fail(attempt, duration * 0.5)
            )
        else:
            self.loop.schedule(duration, lambda: self._attempt_done(attempt))

    def _fail(self, attempt: _Attempt, elapsed: float) -> None:
        task, tracker = attempt.task, attempt.tracker
        if task.state is TaskState.COMPLETED:
            # A speculative backup already finished this task.
            tracker.release_slot(attempt.slot, elapsed)
            self._trace_attempt_end(attempt, "wasted")
            self._slot_released(tracker)
            return
        task.fail(self.loop.now)
        tracker.release_slot(attempt.slot, elapsed)
        tracker.stats.failures += 1
        self._failures += 1
        self._running_attempts.pop(task.task_id, None)
        self._trace_attempt_end(attempt, "failed")
        was_idle = self.jobtracker.pending_maps == 0
        self.jobtracker.task_failed(task)
        self._slot_released(tracker)
        if was_idle:
            # Work exists again: every tracker parked for lack of it that
            # can take a task has to ask.
            for node in list(self._parked):
                idle = self.trackers[node]
                if idle.has_free_slot:
                    self._wake(idle)

    def _attempt_done(self, attempt: _Attempt) -> None:
        task, tracker = attempt.task, attempt.tracker
        tracker.release_slot(attempt.slot, attempt.duration)
        if task.state is TaskState.COMPLETED:
            # The other (primary or speculative) attempt already won.
            self.wasted_speculation_seconds += attempt.duration
            self._trace_attempt_end(attempt, "wasted")
            self._slot_released(tracker)
            return
        task.complete(self.loop.now)
        if attempt.speculative:
            task.node = tracker.node
            task.slot = attempt.slot
        self._running_attempts.pop(task.task_id, None)
        self._completed_durations.append(attempt.duration)
        self._trace_attempt_end(attempt, "completed")
        self.jobtracker.note_completed(task)
        self._map_phase_end = self.loop.now
        self._map_phase_end_scheduled_at = self.loop.scheduled_at
        self._slot_released(tracker)

    def _slot_released(self, tracker: TaskTracker) -> None:
        """After every ``release_slot``: start the next queued GPU task,
        then wake the tracker — its free slots and its reported speedup
        may both have changed."""
        queued = tracker.queued_gpu_task()
        if queued is not None:
            self._start(tracker, queued)
        self._wake(tracker)

    # -- run ---------------------------------------------------------------------

    def run(self) -> JobResult:
        rec = obs.active()
        job_span = None
        if rec.enabled:
            job_span = rec.begin(
                f"job {self.job.name}", "job", "cluster-sim", "job",
                ts=0.0,
                args={
                    "cluster": self.job.cluster.name,
                    "policy": self.policy.name,
                    "map_tasks": len(self.tasks),
                    "reduce_tasks": self.job.num_reduce_tasks,
                },
            )

        # Stagger initial heartbeats as real TaskTrackers do.
        interval = self._hb_interval
        num = max(len(self.trackers), 1)
        for i, fn in enumerate(self._hb_fns):
            self.loop.schedule(interval * i / num, fn)
        self.loop.run()

        if not self.jobtracker.all_maps_done:
            raise HadoopError(
                f"simulation drained with {self.jobtracker.remaining_maps} "
                "maps unfinished"
            )

        reduce_phase = estimate_reduce_phase(self.job, self.io)
        completed = [t for t in self.tasks if t.state is TaskState.COMPLETED]
        gpu_tasks = sum(1 for t in completed if t.slot is SlotKind.GPU)
        local = sum(1 for t in completed if t.data_local)
        if rec.enabled and job_span is not None:
            self._trace_job_end(rec, job_span, reduce_phase, completed,
                                gpu_tasks, local)
        return JobResult(
            job_seconds=self._map_phase_end + reduce_phase.total,
            map_phase_seconds=self._map_phase_end,
            reduce_phase_seconds=reduce_phase.total,
            cpu_tasks=len(completed) - gpu_tasks,
            gpu_tasks=gpu_tasks,
            forced_gpu_tasks=sum(1 for t in completed if t.forced_gpu),
            data_local_fraction=local / max(len(completed), 1),
            failures=self._failures,
            max_observed_speedup=self.jobtracker.max_speedup,
            timeline=[
                (t.finish_time, t.node or 0, t.slot.value if t.slot else "?")
                for t in completed
            ],
        )
