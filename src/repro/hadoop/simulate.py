"""Discrete-event cluster simulation of one MapReduce job.

Wires HDFS block placement (:func:`place_blocks`), the JobTracker,
per-node TaskTrackers, the heartbeat protocol, and a scheduling policy
into the event loop, then runs every map task to completion and adds
the reduce-phase estimate. Task durations are sampled from the
:class:`~repro.hadoop.job.JobConf` (its seconds come from the
single-task functional simulations; see ``repro.scenarios.task_times``)
with deterministic per-attempt jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from ..costmodel.io import IoModel
from ..errors import ConfigError, HadoopError
from ..obs import trace as obs
from ..scheduling.tail import SchedulingPolicy
from .events import EventLoop
from .job import JobConf, JobResult
from .jobtracker import JobTracker
from .shuffle import estimate_reduce_phase
from .tasks import MapTask, SlotKind, TaskState
from .tasktracker import TaskTracker


#: Node count above which placement switches from shuffling the full
#: node list (O(nodes) per block — fine for the paper's 48-node
#: clusters, ruinous at 1000+ where it dominated sweep setup in
#: profiles) to ``Random.sample`` (O(replication)). Both draw
#: uniformly over distinct nodes; they just consume the seeded RNG
#: differently, and the committed golden traces pin the small-cluster
#: stream byte-for-byte, so the shuffle path stays for those sizes.
SAMPLE_PLACEMENT_NODES = 256


def place_blocks(num_blocks: int, num_nodes: int, replication: int,
                 seed: int) -> list[tuple[int, ...]]:
    """The datanodes holding each of a file's ``num_blocks`` HDFS blocks
    (paper §2.2): every block on ``replication`` distinct random nodes
    (Hadoop's rack policy simplified to distinct nodes), clamped to the
    cluster size as Hadoop does, drawn from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    replication = min(replication, num_nodes)
    if num_nodes > SAMPLE_PLACEMENT_NODES:
        # ``sample`` reads only the population's length and the items at
        # the indices it draws, so a tuple gives the draws a ``range``
        # would, but every block's replicas share its int objects.
        nodes = tuple(range(num_nodes))
        return [tuple(rng.sample(nodes, replication))
                for _ in range(num_blocks)]
    placements = []
    for _ in range(num_blocks):
        nodes = list(range(num_nodes))
        rng.shuffle(nodes)
        placements.append(tuple(nodes[:replication]))
    return placements


@dataclass(slots=True)
class _Attempt:
    """One execution attempt of a map task, and the event that ends it.

    :meth:`ClusterSimulator._start` draws the attempt's ``duration`` and
    ``fails`` outcome and schedules the attempt itself; the event loop
    calls it at the attempt's end, after half the duration if it fails.
    Every map task in flight holds one, so it is slotted and carries its
    simulator instead of a closure.
    """

    sim: ClusterSimulator
    task: MapTask
    tracker: TaskTracker
    slot: SlotKind
    duration: float
    fails: bool
    #: Open trace span + slot-lane index, set only while tracing.
    span: obs.SpanEvent | None = None
    lane: int | None = None

    def __call__(self) -> None:
        if self.fails:
            self.sim._fail(self)
        else:
            self.sim._attempt_done(self)


class ClusterSimulator:
    """Runs one job under one scheduling policy.

    Each simulator draws every attempt's duration from its own
    ``random.Random(job.seed)`` (:meth:`_sample`), so every run of one
    ``JobConf`` gives the same result.

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

    def __init__(self, job: JobConf, policy: SchedulingPolicy):
        self.job = job
        self.policy = policy
        cluster = job.cluster
        gpus = cluster.gpus_per_node if policy.uses_gpus else 0
        if cluster.max_map_slots_per_node + gpus < 1:
            raise ConfigError(
                f"policy {policy.name!r} leaves no usable map slot: "
                f"{cluster.max_map_slots_per_node} CPU slots and {gpus} "
                "scheduled GPUs per node")
        self._rng = random.Random(job.seed)
        self.io = IoModel.for_cluster(cluster)

        # One map task per input split, run preferably where a replica
        # of its HDFS block lives.
        self.tasks = [
            MapTask(task_id=i, preferred_nodes=replicas)
            for i, replicas in enumerate(place_blocks(
                job.num_map_tasks, cluster.num_slaves,
                cluster.hdfs_replication, job.seed))
        ]
        self.jobtracker = JobTracker(
            tasks=self.tasks,
            policy=policy,
            num_slaves=cluster.num_slaves,
            gpus_per_node=cluster.gpus_per_node,
        )
        self.trackers = [
            TaskTracker(
                node=n,
                cpu_slots=cluster.max_map_slots_per_node,
                num_gpus=cluster.gpus_per_node,
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
        #: Completed map tasks, for the ``map-progress`` trace counter.
        self._completed = 0
        #: Free slot-lane indices per (node, slot kind), only while tracing.
        self._free_lanes: dict[tuple[int, SlotKind], list[int]] = {}
        self._lane_high: dict[tuple[int, SlotKind], int] = {}

    def _sample(self, slot: SlotKind, data_local: bool,
                node: int) -> tuple[float, bool]:
        """(duration, fails) of one attempt on ``node``: a jitter draw,
        then a failure draw. A failed attempt consumes half its duration
        and is rescheduled (paper §5.1)."""
        job = self.job
        if slot is SlotKind.CPU:
            base = job.cpu_task_seconds
            if job.node_speed_factors is not None:
                base *= job.node_speed_factors.get(node, 1.0)
        else:
            base = job.gpu_task_seconds
        jit = self._rng.uniform(-job.duration_jitter, job.duration_jitter)
        duration = base * (1.0 + jit)
        if not data_local:
            duration += job.nonlocal_read_penalty
        return duration, self._rng.random() < job.failure_rate

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
                # Speculation is Off (Table 3) and not simulated. The
                # constant stays because tests/golden/wc_cluster1_tail
                # .trace.json pins it on every attempt, and CI refuses
                # that file in a change to src/repro/hadoop/.
                "speculative": False,
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
                {"completed": float(self._completed)},
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
        if self._dormant(tracker):
            self._parked[tracker.node] = self.loop.now
        else:
            self.loop.schedule(self._hb_interval, self._hb_fns[tracker.node])

    def _dormant(self, tracker: TaskTracker) -> bool:
        """True when every heartbeat of ``tracker`` is a no-op until one
        of the :meth:`_wake` events happens.

        With nothing pending the JobTracker grants nothing. With work
        pending, a heartbeat that advertises no free slot is granted
        nothing (the :class:`SchedulingPolicy` contract). The speedup it
        would report was reported by the heartbeat that just ran and only
        changes on a slot release; ``maps_remaining_per_node`` may go
        stale meanwhile, it is only read by ``place()`` in the heartbeat
        that sets it.
        """
        return (self.jobtracker.pending_maps == 0
                or not tracker.has_free_slot)

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

    def _launch(self, tracker: TaskTracker, task: MapTask) -> None:
        if tracker.place(task):
            return  # queued behind a busy device; started on free-up
        self._start(tracker, task)

    def _start(self, tracker: TaskTracker, task: MapTask) -> None:
        task.assign(tracker.node, self.loop.now)
        duration, fails = self._sample(task.slot, task.data_local,
                                       tracker.node)
        attempt = _Attempt(self, task, tracker, task.slot, duration, fails)
        self._trace_attempt_start(attempt)
        self.loop.schedule(duration * 0.5 if fails else duration, attempt)

    def _fail(self, attempt: _Attempt) -> None:
        """A failed attempt ends after half its duration (:meth:`_sample`)."""
        task, tracker = attempt.task, attempt.tracker
        task.fail(self.loop.now)
        tracker.release_slot(attempt.slot, attempt.duration * 0.5)
        self._failures += 1
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
        task.complete(self.loop.now)
        self._completed += 1
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
        )
