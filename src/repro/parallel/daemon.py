"""Persistent daemon worker pool: fork once, reuse across jobs.

PR 5's pool was correct but lost on wall clock: every job paid fork,
cache warmup, and one pickle round-trip *per task* (``chunksize=1``).
This module keeps a process-lifetime pool instead, so those costs are
paid once and amortized over every subsequent job:

* **Workers outlive jobs.** The first parallel phase forks the workers
  (lazily, sized by what the caller resolved via
  :func:`~repro.parallel.pool.resolve_workers`); later jobs reuse them
  with their mini-C program/translation/kernel caches already hot. The
  pool grows on demand and never shrinks except by idle reaping or an
  explicit :func:`shutdown_pool`.
* **Batched task envelopes.** Tasks cross the process boundary in
  batches (:func:`resolve_batch_size`: adaptive from the task/worker
  ratio), so a 64-task map phase costs a handful of IPC round-trips
  instead of 64. Dispatch stays greedy — each worker holds at most
  :data:`DISPATCH_WINDOW` batches and gets the next one when it
  reports a result — and the parent reassembles batches by index, so
  results still stream back in submission order and the deterministic
  merge contract is untouched.
* **Crash detection + respawn.** A worker that dies mid-job (OOM
  killer, segfault, idle self-reap racing a dispatch) is detected by
  liveness polling; the pool respawns the slot, replays the job setup,
  and requeues the dead worker's in-flight batches. A batch that kills
  its worker twice is reported as a :class:`WorkerCrashError` instead
  of looping.
* **Idle reaping.** Workers self-reap after
  :class:`~repro.config.RuntimeConfig`'s ``pool_idle_s`` seconds without
  work (worker-side ``Queue.get`` timeout, exit code 0), so a
  long-lived process that stops running jobs drops its helper
  processes; the next job respawns lazily.

Job results are matched by job id, so a consumer that stops early (the
fuzz driver's time budget) simply abandons the rest: stale results are
drained and discarded at the next job's start, and workers stay warm.

Lifecycle accounting lives in a pool-owned
:class:`~repro.obs.metrics.MetricsRegistry` (``pool.spawned``,
``pool.respawned``, ``pool.reaped`` …) surfaced by ``repro pool
status``; per-job dispatch counters (``pool.jobs``, ``pool.batches``,
``pool.tasks``) additionally land on the active trace recorder — they
are deterministic per job, so traced parallel runs stay reproducible.
"""

from __future__ import annotations

import queue
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..config import RuntimeConfig
from ..errors import ConfigError, ReproError
from ..obs import trace as obs
from ..obs.metrics import MetricsRegistry

__all__ = [
    "DaemonPool",
    "PoolStatus",
    "WorkerCrashError",
    "get_pool",
    "pool_metrics",
    "resolve_batch_size",
    "shutdown_pool",
]

#: Batches a worker may hold queued at once. 2 hides the dispatch
#: round-trip (the worker starts its second batch while the parent
#: processes the first result) without hoarding work a freed-up
#: neighbour could steal.
DISPATCH_WINDOW = 2

#: Adaptive sizing aims for this many batches per worker — enough
#: slack for greedy rebalancing when task costs are uneven.
_BATCHES_PER_WORKER = 4

#: Upper bound on adaptive batch size.
_MAX_BATCH = 64


class WorkerCrashError(ReproError):
    """A worker died executing a batch and its retry died too."""


def resolve_batch_size(tasks: int, workers: int,
                       batch_size: int | None = None) -> int:
    """Tasks per envelope: ``batch_size`` when given (the crash/requeue
    tests' seam), else adaptive — ``ceil(tasks / (workers * 4))``
    capped at 64, so small jobs keep per-task dispatch (maximum
    overlap) and large jobs amortize the IPC round-trip."""
    if batch_size:
        return batch_size
    return max(1, min(_MAX_BATCH,
                      -(-tasks // (max(workers, 1) * _BATCHES_PER_WORKER))))


# -- worker side -------------------------------------------------------------


def _safe_payload(exc: BaseException) -> tuple[BaseException | None, str]:
    """An exception as a picklable (instance, traceback) pair.

    The instance crosses the boundary when it pickles cleanly (so the
    parent re-raises the original type); otherwise only the formatted
    traceback does and the parent wraps it.
    """
    tb = traceback.format_exc()
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc, tb
    except Exception:
        return None, tb


def _worker_main(slot: int, inbox: Any, outbox: Any,
                 idle_timeout: float) -> None:  # pragma: no cover - subprocess
    """The daemon worker loop (runs in the child process).

    One job's state is held at a time: a ``setup`` message replaces it,
    ``batch`` messages execute against it, and an idle ``get`` timeout
    exits the loop cleanly (exit code 0 = reaped, anything else is a
    crash as far as the parent's accounting goes).
    """
    from .pool import _mark_leaf_worker

    _mark_leaf_worker()
    job_id: int | None = None
    job_ok = False
    while True:
        try:
            msg = inbox.get(timeout=idle_timeout if idle_timeout > 0
                            else None)
        except queue.Empty:
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "setup":
            _kind, job_id, init_fn, init_args, ack = msg
            try:
                if init_fn is not None:
                    init_fn(*init_args)
                job_ok = True
                if ack:
                    outbox.put(("ready", slot, job_id, -1, None))
            except BaseException as exc:
                job_ok = False
                outbox.put(("error", slot, job_id, -1, _safe_payload(exc)))
        elif kind == "batch":
            _kind, batch_job, index, task_fn, payloads = msg
            if batch_job != job_id or not job_ok:
                outbox.put(("error", slot, batch_job, index,
                            (None, "worker has no setup for this job")))
                continue
            try:
                results = [task_fn(p) for p in payloads]
            except BaseException as exc:
                outbox.put(("error", slot, batch_job, index,
                            _safe_payload(exc)))
            else:
                outbox.put(("done", slot, batch_job, index, results))
    from .arena import _evict

    _evict()  # release any arena attachment before a clean exit


# -- parent side -------------------------------------------------------------


@dataclass
class _Worker:
    slot: int
    proc: Any
    inbox: Any
    #: Job id of the last setup message sent (a respawned worker needs
    #: the current job's setup replayed before any batch).
    setup_job: int | None = None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()


@dataclass
class PoolStatus:
    """One snapshot of the daemon pool, for ``repro pool status``."""

    start_method: str
    idle_timeout: float
    alive: list[int] = field(default_factory=list)  # worker pids
    slots: int = 0
    counters: dict[str, float] = field(default_factory=dict)


#: Pool-lifetime accounting (spawns, respawns, reaps, jobs, batches,
#: tasks) — owned by the pool, not the trace recorder, because spawn
#: timing depends on process history and must not perturb deterministic
#: traces.
_METRICS = MetricsRegistry()


def pool_metrics() -> MetricsRegistry:
    return _METRICS


class DaemonPool:
    """A process-lifetime worker pool with batched, ordered dispatch."""

    def __init__(self, start_method: str | None = None,
                 idle_timeout: float | None = None):
        import multiprocessing

        config = RuntimeConfig.from_env()
        self.start_method = start_method or config.pool_start
        self.idle_timeout = (config.pool_idle_s if idle_timeout is None
                             else idle_timeout)
        self._ctx = multiprocessing.get_context(self.start_method)
        self._outbox = self._ctx.Queue()
        self._workers: list[_Worker] = []
        self._job_seq = 0

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        inbox = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, inbox, self._outbox, self.idle_timeout),
            daemon=True,
            name=f"repro-pool-{slot}",
        )
        proc.start()
        _METRICS.inc("pool.spawned")
        return _Worker(slot=slot, proc=proc, inbox=inbox)

    def ensure(self, workers: int) -> list[_Worker]:
        """The first ``workers`` slots, spawning or reviving as needed."""
        if workers < 1:
            raise ConfigError(f"pool needs >= 1 worker, got {workers}")
        while len(self._workers) < workers:
            self._workers.append(self._spawn(len(self._workers)))
        for i in range(workers):
            w = self._workers[i]
            if not w.alive:
                _METRICS.inc("pool.reaped" if w.proc.exitcode == 0
                             else "pool.crashed")
                self._workers[i] = self._spawn(i)
        _METRICS.gauge("pool.workers", sum(
            1 for w in self._workers if w.alive))
        return self._workers[:workers]

    def _respawn_mid_job(self, dead: _Worker, job_id: int,
                         init_fn: Any, init_args: tuple) -> _Worker:
        _METRICS.inc("pool.respawned")
        fresh = self._spawn(dead.slot)
        self._workers[dead.slot] = fresh
        fresh.inbox.put(("setup", job_id, init_fn, init_args, False))
        fresh.setup_job = job_id
        return fresh

    def shutdown(self, timeout: float = 5.0) -> int:
        """Stop every worker; returns how many were alive."""
        stopped = 0
        for w in self._workers:
            if w.alive:
                stopped += 1
                try:
                    w.inbox.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for w in self._workers:
            w.proc.join(timeout)
            if w.proc.is_alive():  # pragma: no cover - stuck worker
                w.proc.terminate()
                w.proc.join(timeout)
        self._workers.clear()
        _METRICS.inc("pool.shutdowns")
        _METRICS.gauge("pool.workers", 0)
        return stopped

    def status(self) -> PoolStatus:
        return PoolStatus(
            start_method=self.start_method,
            idle_timeout=self.idle_timeout,
            alive=[w.proc.pid for w in self._workers if w.alive],
            slots=len(self._workers),
            counters=dict(_METRICS.snapshot()["counters"]),
        )

    # -- job execution -------------------------------------------------------

    def broadcast(self, fn: Callable[..., None], args: tuple = (),
                  workers: int = 1, timeout: float = 60.0) -> list[int]:
        """Run ``fn(*args)`` once in each of ``workers`` workers (cache
        warming); returns the pids that acknowledged."""
        active = self.ensure(workers)
        self._drain_stale()
        self._job_seq += 1
        job_id = self._job_seq
        for w in active:
            w.inbox.put(("setup", job_id, fn, args, True))
            w.setup_job = job_id
        acked: list[int] = []
        pending = {w.slot for w in active}
        while pending:
            try:
                kind, slot, jid, _index, payload = self._outbox.get(
                    timeout=timeout)
            except queue.Empty:
                raise ReproError(
                    f"pool warm timed out waiting for workers {pending}")
            if jid != job_id:
                continue
            if kind == "error":
                self._raise_worker_error(payload)
            pending.discard(slot)
            acked.append(self._workers[slot].proc.pid)
        return acked

    def run_job(self, workers: int, task_fn: Callable[[Any], Any],
                payloads: list[Any], init_fn: Callable[..., None] | None = None,
                init_args: tuple = (), batch_size: int | None = None) -> list[Any]:
        """Run every payload; results in submission order."""
        return list(self.imap_job(workers, task_fn, payloads,
                                  init_fn=init_fn, init_args=init_args,
                                  batch_size=batch_size))

    def imap_job(self, workers: int, task_fn: Callable[[Any], Any],
                 payloads: list[Any],
                 init_fn: Callable[..., None] | None = None,
                 init_args: tuple = (),
                 batch_size: int | None = None) -> Iterator[Any]:
        """Stream results back in submission order.

        Greedy batched dispatch: batches go to whichever worker frees
        up, bounded by :data:`DISPATCH_WINDOW`; the parent buffers
        out-of-order batches so the yield order is exactly the payload
        order. Abandoning the iterator abandons the job — whatever is
        still in flight finishes in the background and is discarded as
        stale by the next job.
        """
        payloads = list(payloads)
        if not payloads:
            return
        size = resolve_batch_size(len(payloads), workers, batch_size)
        batches = [payloads[i:i + size]
                   for i in range(0, len(payloads), size)]
        active = self.ensure(min(workers, len(batches)))
        self._drain_stale()
        self._job_seq += 1
        job_id = self._job_seq

        rec = obs.active()
        if rec.enabled:
            rec.inc("pool.jobs")
            rec.inc("pool.batches", len(batches))
            rec.inc("pool.tasks", len(payloads))
        _METRICS.inc("pool.jobs")
        _METRICS.inc("pool.batches", len(batches))
        _METRICS.inc("pool.tasks", len(payloads))

        for w in active:
            w.inbox.put(("setup", job_id, init_fn, init_args, False))
            w.setup_job = job_id

        todo = list(range(len(batches)))
        todo.reverse()  # pop() from the front of the batch order
        inflight: dict[int, list[int]] = {w.slot: [] for w in active}
        retried: set[int] = set()
        buffered: dict[int, list[Any]] = {}
        completed: set[int] = set()
        next_index = 0
        done = 0

        def feed(worker: _Worker) -> None:
            load = inflight[worker.slot]
            while todo and len(load) < DISPATCH_WINDOW:
                index = todo.pop()
                worker.inbox.put(("batch", job_id, index, task_fn,
                                  batches[index]))
                load.append(index)

        for w in active:
            feed(w)
        while done < len(batches):
            try:
                kind, slot, jid, index, payload = self._outbox.get(
                    timeout=0.25)
            except queue.Empty:
                active = self._revive_dead(active, job_id, init_fn,
                                           init_args, inflight, todo,
                                           retried, feed)
                continue
            if jid != job_id:
                continue  # stale result from an abandoned job
            if kind == "error":
                self._raise_worker_error(payload)
            worker = self._workers[slot]
            if index in inflight[worker.slot]:
                inflight[worker.slot].remove(index)
            feed(worker)
            if index in completed:
                continue  # duplicate: batch was requeued, then the
                # original worker's result surfaced anyway
            completed.add(index)
            buffered[index] = payload
            done += 1
            while next_index in buffered:
                for result in buffered.pop(next_index):
                    yield result
                next_index += 1

    # -- internals -----------------------------------------------------------

    def _drain_stale(self) -> None:
        """Discard results of abandoned jobs so their memory is freed
        before new dispatch starts."""
        while True:
            try:
                self._outbox.get_nowait()
            except queue.Empty:
                return

    def _raise_worker_error(self, payload: tuple) -> None:
        exc, tb = payload
        if exc is not None:
            raise exc
        raise ReproError(f"pool worker task failed:\n{tb}")

    def _revive_dead(self, active: list[_Worker], job_id: int,
                     init_fn: Any, init_args: tuple,
                     inflight: dict[int, list[int]], todo: list[int],
                     retried: set[int],
                     feed: Callable[["_Worker"], None]) -> list[_Worker]:
        """Replace dead workers, requeue their in-flight batches, and
        feed the fresh processes."""
        revived = list(active)
        fresh_workers: list[_Worker] = []
        for i, w in enumerate(active):
            if w.alive:
                continue
            lost = list(inflight[w.slot])
            for index in lost:
                if index in retried:
                    raise WorkerCrashError(
                        f"batch {index} crashed worker slot {w.slot} "
                        f"twice (exit code {w.proc.exitcode})")
                retried.add(index)
            inflight[w.slot] = []
            fresh = self._respawn_mid_job(w, job_id, init_fn, init_args)
            revived[i] = fresh
            fresh_workers.append(fresh)
            # Requeue ahead of the undispatched tail: these batches are
            # earliest in submission order and gate the ordered yield.
            for index in lost:
                todo.append(index)
            todo.sort(reverse=True)
        for fresh in fresh_workers:
            feed(fresh)
        return revived


# -- process-global pool -----------------------------------------------------

_pool: DaemonPool | None = None


def get_pool() -> DaemonPool:
    """The process's daemon pool, created (or recreated) to match the
    current :class:`~repro.config.RuntimeConfig`."""
    global _pool
    config = RuntimeConfig.from_env()
    wanted = (config.pool_start, config.pool_idle_s)
    if _pool is not None and \
            (_pool.start_method, _pool.idle_timeout) != wanted:
        _pool.shutdown()
        _pool = None
    if _pool is None:
        _pool = DaemonPool(*wanted)
    return _pool


def shutdown_pool() -> int:
    """Stop the global pool's workers (it respawns lazily on next use);
    returns how many workers were stopped."""
    global _pool
    if _pool is None:
        return 0
    stopped = _pool.shutdown()
    _pool = None
    return stopped
