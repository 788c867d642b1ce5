"""Worker-count resolution and the leaf-worker rule.

The parallel layer fans independent tasks (map tasks, reduce tasks, fuzz
cases) across ``workers`` OS processes of the persistent daemon pool
(:mod:`repro.parallel.daemon`) and hands results back in task order,
so a run is observably identical at every worker count. What lives
here is what every phase shares:

* **One worker count** — :func:`resolve_workers` turns an explicit
  ``workers=`` argument or the process's
  :class:`~repro.config.RuntimeConfig` (``REPRO_WORKERS``) into the
  effective fan-out of one phase, capped by that phase's task count. A
  job's map and reduce phases both resolve the job's one setting.
* **Leaf workers** — a worker process never creates its own pool.
  :func:`resolve_workers` answers 1 inside a worker regardless of the
  configuration or explicit ``workers=`` arguments, so
  nested parallelism (a fuzz worker running a parallel job) runs its
  tasks inline instead of fork-bombing the host.
* **Deterministic makespan** — :func:`list_schedule_makespan` is the
  simulated wall-clock-equivalent duration of a phase whose tasks the
  pool drains in submission order.
"""

from __future__ import annotations

import heapq
import os
from typing import Iterable

from ..config import RuntimeConfig
from ..errors import ConfigError

__all__ = [
    "in_worker",
    "list_schedule_makespan",
    "resolve_workers",
]

#: True in pool worker processes (set by :func:`_mark_leaf_worker`);
#: guards against nested pools.
_in_worker = False


def in_worker() -> bool:
    """Is this process a pool worker? (Workers never nest pools.)"""
    return _in_worker


def resolve_workers(workers: int | None = None,
                    tasks: int | None = None) -> int:
    """The effective worker count for one parallel phase.

    Precedence: explicit ``workers`` argument, then
    :class:`~repro.config.RuntimeConfig`'s (``REPRO_WORKERS``, default 1:
    tasks run inline). A value of 0 (either source) means
    ``os.cpu_count()``. ``tasks`` caps the answer at the number of
    available tasks — a single-split job runs inline no matter what was
    requested. Inside a pool worker the answer is always 1.
    """
    if _in_worker:
        return 1
    if workers is None:
        workers = RuntimeConfig.from_env().workers
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    if tasks is not None:
        workers = min(workers, max(tasks, 1))
    return max(workers, 1)


def list_schedule_makespan(durations: Iterable[float], workers: int) -> float:
    """Makespan of the deterministic in-order list schedule.

    Task ``i`` is assigned to the worker that frees up earliest (ties
    broken by lowest worker index) — the classic greedy schedule, and
    exactly how a pool with ``chunksize=1`` drains an ordered queue when
    task costs are uniform enough. This is the *wall-clock-equivalent*
    simulated duration of a parallel map phase; with ``workers <= 1``
    the accumulation order degenerates to ``sum()``'s left-to-right
    fold, bit for bit.
    """
    if workers <= 1:
        total = 0.0
        for d in durations:
            total += d
        return total
    free = [(0.0, i) for i in range(workers)]  # sorted ⇒ already a heap
    busiest = 0.0
    for d in durations:
        t, i = heapq.heappop(free)
        t += d
        if t > busiest:
            busiest = t
        heapq.heappush(free, (t, i))
    return busiest


def _mark_leaf_worker() -> None:
    """Per-worker setup, before any warmup or task runs."""
    global _in_worker
    _in_worker = True
    # Belt and braces for anything this worker might exec: a worker is
    # a leaf and must never fan out again.
    os.environ["REPRO_WORKERS"] = "1"
    # A forked worker inherits the parent's *active* TraceRecorder;
    # recording into it from another process would interleave garbage.
    # Workers trace into their own per-task recorders (maptask.capture).
    from ..obs import trace as obs

    obs.install(obs.NULL_RECORDER)
