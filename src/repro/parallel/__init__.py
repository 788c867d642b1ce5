"""Multi-core host execution of a local job's tasks.

HeteroDoop's TaskTrackers run one map task per CPU core concurrently
(plus the reserved GPU slot); this package spreads the functional
runner's map tasks over host cores the same way, for wall-clock speed,
without giving it a second code path. A job has one
map task body and one reduce task body, both owned by
:class:`~repro.hadoop.local.LocalJobRunner`;
:func:`~repro.parallel.maptask.run_map_tasks` and
:func:`~repro.parallel.reducetask.run_reduce_tasks` run them and return
the results in task order at every worker count. Reduce tasks always
run in the driver — reducers are the job's CPU tail (paper §3.1), and
shipping the shuffle to another process costs more than it saves. Map
tasks run inline on the driver's runner with one worker — that is what
"serial" means here. With more, the persistent daemon pool
(:mod:`repro.parallel.daemon`) forks workers once per process lifetime
and fans the same calls (and fuzz cases) across them in batched
envelopes: each worker receives a copy of the driver's runner once per
job, and each task carries its own split. Either way the driver's single
fold sees the same results in the same order, so output, counters,
simulated seconds and trace spans are **byte-identical** across worker
counts. The worker count is host execution only: the simulated job
runs its tasks on one modelled slot whatever it is.
:mod:`repro.parallel.pool` holds the shared worker-count resolution and
the leaf-worker rule. What is configurable from outside
a job — the worker count and the pool's start method — is
:class:`repro.config.RuntimeConfig`, whose ``from_env()`` is the one
place the ``REPRO_*`` environment is read. Pool workers live exactly as
long as the process that started them.

The daemon's names resolve through this package's module
``__getattr__``: :mod:`repro.parallel.daemon` (and its queue, pickle
and multiprocessing stack) loads at the first pooled map phase or at an
import of one of those names, so a job whose map phase runs inline
never maps it.
"""

from .pool import in_worker, resolve_workers

_DAEMON_NAMES = frozenset({
    "DaemonPool",
    "WorkerCrashError",
    "get_pool",
    "pool_metrics",
    "resolve_batch_size",
    "shutdown_pool",
})

__all__ = [
    "DaemonPool",
    "WorkerCrashError",
    "get_pool",
    "in_worker",
    "pool_metrics",
    "resolve_batch_size",
    "resolve_workers",
    "shutdown_pool",
]


def __getattr__(name: str):
    if name in _DAEMON_NAMES:
        from . import daemon

        return getattr(daemon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
