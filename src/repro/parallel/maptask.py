"""The map phase's executor.

:func:`run_map_tasks` runs a job's map tasks and returns their
:class:`~repro.hadoop.local.MapTaskResult` in task-index order. Every
task is one call of :meth:`LocalJobRunner.map_task
<repro.hadoop.local.LocalJobRunner.map_task>` on its own fileSplit's
bytes (paper §2.2: a map task is its split); ``workers`` only decides
where the call happens:

* ``workers == 1`` — inline, on the driver's own runner, by reference:
  no pickle, no recorder swap — and none of their modules loaded; the
  daemon pool is imported by the first pooled map phase. Serial is
  this case, not a second code path.
* ``workers > 1`` — on the daemon pool, which makes the same call on a
  copy of the driver's runner. What crosses the process boundary is:

  * down, once per phase: the runner itself and the trace flag, in the
    pool's setup message (:func:`_init_worker`). The runner pickles its
    configuration only — its per-process caches, the GPU task runner
    and its device among them, stay behind and are rebuilt at the
    worker's first task, just as the driver builds them at its own.
  * down, per task: ``(task_index, split_bytes)``.
  * up, per batch: one :class:`TaskEnvelope` per task — the task's
    result and, when the parent traces, the events and metrics of the
    fresh recorder the task ran under (:func:`_run_map_task`).

  :func:`run_map_tasks` hands results back in task-index order after
  splicing each envelope's events onto ``<pid>@w<worker pid>`` tracks
  of the parent's recorder, so the driver's fold cannot tell a pooled
  task from an inline one.

The reduce phase always runs in the driver
(:mod:`repro.parallel.reducetask`), so this is the pool's only job
phase.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from ..errors import ReproError
from ..obs import trace as obs

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner, MapTaskResult

__all__ = [
    "TaskEnvelope",
    "run_map_tasks",
]


@dataclass
class TaskEnvelope:
    """One task's result, shipped worker → parent, with the worker
    recorder's events and metrics when the parent traces."""

    result: Any
    worker_pid: int
    events: list | None = None
    metrics: Any | None = None


#: This worker's job state — the job's ``runner`` and its ``trace``
#: flag — replaced by each pooled map phase's setup. Module-level (not
#: closure-captured) because pool task functions must be importable
#: top-level callables.
worker_state: dict[str, Any] = {}


def _init_worker(runner: "LocalJobRunner", trace: bool) -> None:
    worker_state["runner"] = runner
    worker_state["trace"] = trace


def _run_map_task(payload: tuple[int, bytes]) -> TaskEnvelope:
    """Run one map task in this worker; when the parent traces, under
    a fresh recorder whose events and metrics ride home in the
    envelope."""
    index, split = payload
    runner = worker_state["runner"]
    if not worker_state["trace"]:
        return TaskEnvelope(runner.map_task(index, split), os.getpid())
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = runner.map_task(index, split)
    if rec.open_spans():
        raise ReproError("map_task left spans open in worker recorder")
    return TaskEnvelope(result, os.getpid(), rec.events, rec.metrics)


def run_map_tasks(runner: "LocalJobRunner", data: bytes,
                  ranges: list[tuple[int, int]],
                  workers: int) -> list["MapTaskResult"]:
    """Run one map task per split range; results in task-index order.

    On the pool, the runner is pickled once per worker per phase and
    each task carries its own split's bytes."""
    if workers == 1:
        return [runner.map_task(index, data[start:stop])
                for index, (start, stop) in enumerate(ranges)]
    from .daemon import get_pool

    rec = obs.active()
    payloads = [(index, data[start:stop])
                for index, (start, stop) in enumerate(ranges)]
    results = []
    for envelope in get_pool().imap_job(
            workers, _run_map_task, payloads,
            init_fn=_init_worker, init_args=(runner, bool(rec.enabled))):
        if envelope.events is not None:
            rec.splice(envelope.events,
                       pid_suffix=f"@w{envelope.worker_pid}")
            rec.metrics.merge(envelope.metrics)
        results.append(envelope.result)
    return results
