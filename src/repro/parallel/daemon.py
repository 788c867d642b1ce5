"""Persistent daemon worker pool: fork once, reuse across jobs.

A process-lifetime pool, so fork and cold caches are paid once and
amortized over every job the process runs:

* **Workers outlive jobs.** The first parallel phase forks the workers
  (lazily, sized by what the caller resolved via
  :func:`~repro.parallel.pool.resolve_workers`); later jobs reuse them
  with their mini-C program/translation/kernel caches already hot. The
  pool grows on demand and never shrinks except by an explicit
  :func:`shutdown_pool`.
* **Workers live exactly as long as their driver.** An idle worker
  checks every :data:`_PARENT_POLL_S` seconds that its driver is alive
  and exits once it is not, as a Hadoop task child exits with its
  TaskTracker; otherwise it lives until :func:`shutdown_pool` or the
  driver's exit.
* **Batched task envelopes.** Tasks cross the process boundary in
  batches (:func:`resolve_batch_size`: adaptive from the task/worker
  ratio), so a 64-task map phase costs a handful of IPC round-trips
  instead of 64. Dispatch stays greedy — each worker holds at most
  :data:`DISPATCH_WINDOW` batches and gets the next one when it
  reports a result — and the parent reassembles batches by index, so
  results still stream back in submission order and the deterministic
  merge contract is untouched.
* **Crash detection + respawn.** A worker that dies (OOM killer,
  segfault) is detected by liveness polling; the pool respawns the
  slot, replays the job setup, and requeues the dead worker's in-flight
  batches. A batch that kills its worker twice is reported as a
  :class:`WorkerCrashError` instead of looping.

Job results are matched by job id, so a consumer that stops early (the
fuzz driver's time budget) simply abandons the rest: stale results are
drained and discarded at the next job's start, and workers stay warm.

Lifecycle accounting lives in a pool-owned
:class:`~repro.obs.metrics.MetricsRegistry` (``pool.spawned``,
``pool.respawned``, ``pool.crashed`` …) that :func:`pool_metrics`
returns to ``perf/run.py`` and the tests; per-job dispatch counters
(``pool.jobs``, ``pool.batches``, ``pool.tasks``) additionally land on
the active trace recorder — they are deterministic per job, so traced
parallel runs stay reproducible.
"""

from __future__ import annotations

import os
import queue
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..config import RuntimeConfig
from ..errors import ConfigError, ReproError
from ..obs import trace as obs
from ..obs.metrics import MetricsRegistry

__all__ = [
    "DaemonPool",
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

#: Seconds an idle worker waits on its inbox before it checks that its
#: driver is still alive. A batch that arrives wakes the wait at once.
_PARENT_POLL_S = 1.0


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


def _worker_main(slot: int, inbox: Any,
                 outbox: Any) -> None:  # pragma: no cover - subprocess
    """The daemon worker loop (runs in the child process).

    One job's state is held at a time: a ``setup`` message replaces it
    — the driver's engine first, then the job's own init, if any — and
    ``batch`` messages execute against it. The loop ends at ``stop`` or
    at an idle poll that finds the driver gone: a new parent pid (fork,
    spawn) or the driver's sentinel pipe at EOF (forkserver, whose
    server outlives the driver). Nobody reads the outbox then, so
    ``cancel_join_thread`` keeps an unread result from holding the exit.
    """
    import multiprocessing

    from ..minic.interpreter import set_engine
    from .pool import _mark_leaf_worker

    _mark_leaf_worker()
    parent, parent_pid = multiprocessing.parent_process(), os.getppid()
    job_id: int | None = None
    job_ok = False
    while True:
        try:
            msg = inbox.get(timeout=_PARENT_POLL_S)
        except queue.Empty:
            if os.getppid() != parent_pid or not parent.is_alive():
                outbox.cancel_join_thread()
                break
            continue
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "setup":
            _kind, job_id, engine, init_fn, init_args = msg
            try:
                set_engine(engine)
                if init_fn is not None:
                    init_fn(*init_args)
                job_ok = True
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


# -- parent side -------------------------------------------------------------


@dataclass
class _Worker:
    slot: int
    proc: Any
    inbox: Any

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()


#: Pool-lifetime accounting (spawns, respawns, crashes, jobs, batches,
#: tasks) — owned by the pool, not the trace recorder, because spawn
#: timing depends on process history and must not perturb deterministic
#: traces.
_METRICS = MetricsRegistry()


def pool_metrics() -> MetricsRegistry:
    return _METRICS


class DaemonPool:
    """A process-lifetime worker pool with batched, ordered dispatch."""

    def __init__(self, start_method: str | None = None):
        import multiprocessing

        self.start_method = start_method or RuntimeConfig.from_env().pool_start
        self._ctx = multiprocessing.get_context(self.start_method)
        self._outbox = self._ctx.Queue()
        self._workers: list[_Worker] = []
        self._job_seq = 0

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        inbox = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, inbox, self._outbox),
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
                _METRICS.inc("pool.crashed")
                self._workers[i] = self._spawn(i)
        _METRICS.gauge("pool.workers", sum(
            1 for w in self._workers if w.alive))
        return self._workers[:workers]

    def _respawn_mid_job(self, dead: _Worker, setup: tuple) -> _Worker:
        _METRICS.inc("pool.respawned")
        fresh = self._spawn(dead.slot)
        self._workers[dead.slot] = fresh
        fresh.inbox.put(setup)
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

    # -- job execution -------------------------------------------------------

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

        # Every job runs under the driver's engine, init-less ones too:
        # a worker never keeps the engine an earlier job left behind.
        from ..minic.interpreter import current_engine

        setup = ("setup", job_id, current_engine(), init_fn, init_args)
        for w in active:
            w.inbox.put(setup)

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
                active = self._revive_dead(active, setup, inflight, todo,
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

    def _revive_dead(self, active: list[_Worker], setup: tuple,
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
            fresh = self._respawn_mid_job(w, setup)
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
    current :class:`~repro.config.RuntimeConfig`'s start method."""
    global _pool
    start_method = RuntimeConfig.from_env().pool_start
    if _pool is not None and _pool.start_method != start_method:
        _pool.shutdown()
        _pool = None
    if _pool is None:
        _pool = DaemonPool(start_method)
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
