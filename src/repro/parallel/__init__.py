"""Multi-core task execution (paper §5's one-slot-per-core model).

HeteroDoop's TaskTrackers run one map task per CPU core concurrently
(plus the reserved GPU slot); this package gives the functional runner
the same property without giving it a second code path. A job has one
map task body and one reduce task body, both owned by
:class:`~repro.hadoop.local.LocalJobRunner`;
:func:`~repro.parallel.maptask.run_map_tasks` and
:func:`~repro.parallel.reducetask.run_reduce_tasks` run them and return
the results in task order at every worker count. With one worker they
call the task inline on the driver's runner — that is what "serial"
means here. With more, the persistent daemon pool
(:mod:`repro.parallel.daemon`) forks workers once per process lifetime
and fans the same calls (and fuzz cases) across them in batched
envelopes, with input bytes published through a write-once arena
(:mod:`repro.parallel.arena`) instead of per-task pickles; workers
rebuild the runner from one job spec. Either way the driver's single
fold sees the same results in the same order, so output, counters,
simulated seconds and trace spans are **byte-identical** across worker
counts. :mod:`repro.parallel.pool` holds the shared worker-count
resolution and the leaf-worker rule. What is configurable from outside
a job — the worker count, the pool's idle timeout and its start method
— is :class:`repro.config.RuntimeConfig`, whose ``from_env()`` is the
one place the ``REPRO_*`` environment is read; the arena has one
backing (a temp file the workers mmap).
"""

from .daemon import (
    DaemonPool,
    PoolStatus,
    WorkerCrashError,
    get_pool,
    pool_metrics,
    resolve_batch_size,
    shutdown_pool,
)
from .pool import in_worker, list_schedule_makespan, resolve_workers

__all__ = [
    "DaemonPool",
    "PoolStatus",
    "WorkerCrashError",
    "get_pool",
    "in_worker",
    "list_schedule_makespan",
    "pool_metrics",
    "resolve_batch_size",
    "resolve_workers",
    "shutdown_pool",
]
