"""The reduce phase's executor — the shuffle-merge/reduce tail the
paper's Table 2 blames for dampened speedups.

:func:`run_reduce_tasks` runs one :meth:`LocalJobRunner.reduce_partition
<repro.hadoop.local.LocalJobRunner.reduce_partition>` per partition and
returns the ``(reduced pairs, ReduceTaskTiming)`` results in partition
order. As on the map side (:mod:`repro.parallel.maptask`, which owns
the shared job spec, worker setup, capture and splice), ``workers``
only decides where the call happens:

* ``workers == 1`` — inline on the driver's runner; the partition's
  runs are handed over as the objects the map fold built.
* ``workers > 1`` — on the daemon pool. The arena blob is the pickled
  per-partition runs laid end to end, so each partition's data is
  published once and never re-pickled per dispatch retry; tasks ship as
  ``(partition, start, stop)`` triples naming their slice of the blob.

The driver folds the reduced pairs into the output dict itself (reduce
tasks are pure), so the output insertion order, the duplicate-key
check, the counters, and every simulated float are the same at every
worker count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .maptask import TaskEnvelope, capture, run_on_pool, worker_state

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner
    from ..hadoop.shuffle import ReduceTaskTiming

__all__ = ["run_reduce_tasks"]


def _run_reduce_task(payload: tuple[int, int, int]) -> TaskEnvelope:
    import pickle

    partition, start, stop = payload
    runs = pickle.loads(bytes(worker_state["view"][start:stop]))
    return capture(worker_state["runner"].reduce_partition, partition, runs)


def run_reduce_tasks(
    runner: "LocalJobRunner", parts: list[int],
    shuffle: dict[int, list[list]], workers: int,
) -> list[tuple[list, "ReduceTaskTiming"]]:
    """Run one reduce task per partition in ``parts`` (a partition
    without an entry in ``shuffle`` reduces no runs); results in
    partition order.

    On the pool each partition's sorted runs are pickled once into a
    contiguous blob — workers slice and unpickle exactly the objects
    the driver held (key groups with their map-side renderings),
    so no value crosses the boundary through a lossy re-parse."""
    if workers == 1:
        return [runner.reduce_partition(part, shuffle.get(part, []))
                for part in parts]
    import pickle

    blob = bytearray()
    payloads: list[tuple[int, int, int]] = []
    for part in parts:
        data = pickle.dumps(shuffle.get(part, []),
                            protocol=pickle.HIGHEST_PROTOCOL)
        payloads.append((part, len(blob), len(blob) + len(data)))
        blob += data
    return run_on_pool(runner, workers, _run_reduce_task, payloads,
                       bytes(blob))
