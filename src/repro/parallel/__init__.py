"""Multi-core map-task execution (paper §5's one-slot-per-core model).

HeteroDoop's TaskTrackers run one map task per CPU core concurrently
(plus the reserved GPU slot); this package gives the functional runner
the same property. The persistent daemon pool
(:mod:`repro.parallel.daemon`) forks workers once per process lifetime
and fans map tasks, reduce tasks, and fuzz cases across
them in batched envelopes, with input bytes published through a
write-once arena (:mod:`repro.parallel.arena`) instead of per-task
pickles. The job-level plumbing (:mod:`repro.parallel.maptask` for the
map phase, :mod:`repro.parallel.reducetask` for the shuffle-merge/
reduce tail) keeps the parallel run **byte-identical** to the serial
one — same output, same counters, same simulated seconds — by
rebuilding caches per worker and merging results in task/partition
order. :mod:`repro.parallel.pool` holds the shared worker-count
resolution and the leaf-worker rule.
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
