"""The reduce phase's executor — the shuffle-merge/reduce tail the
paper's Table 2 blames for dampened speedups.

:func:`run_reduce_tasks` runs one :meth:`LocalJobRunner.reduce_partition
<repro.hadoop.local.LocalJobRunner.reduce_partition>` per partition in
the driver, at every worker count: reducers always run on CPUs (paper
§3.1), and each partition's runs are handed over as the objects the map
fold built, never pickled. A map-only job has no reduce tasks and never
comes here.

The driver folds the reduced pairs into the output dict itself, so the
output insertion order, the duplicate-key check, the counters, the
trace spans and every simulated float are the same at every worker
count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner
    from ..hadoop.shuffle import ReduceTaskTiming

__all__ = ["run_reduce_tasks"]


def run_reduce_tasks(
    runner: "LocalJobRunner", parts: list[int],
    shuffle: dict[int, list[list]],
) -> list[tuple[list, "ReduceTaskTiming"]]:
    """Run one reduce task per partition in ``parts`` (a partition
    without an entry in ``shuffle`` reduces no runs); results in
    partition order."""
    return [runner.reduce_partition(part, shuffle.get(part, []))
            for part in parts]
