"""The map phase's executor.

:func:`run_map_tasks` runs a job's map tasks and returns their
:class:`~repro.hadoop.local.MapTaskResult` in task-index order. Every
task is one call of :meth:`LocalJobRunner.map_task
<repro.hadoop.local.LocalJobRunner.map_task>`; ``workers`` only decides
where the call happens:

* ``workers == 1`` — inline, on the driver's own runner, by reference:
  no arena, no pickle, no recorder swap — and none of their modules
  loaded; the daemon pool is imported by the first pooled map phase.
  Serial is this case, not a second code path.
* ``workers > 1`` — on the daemon pool. A worker cannot be handed a
  live runner (its hot state — generated mini-C functions, kernel
  bodies, host snapshots — is exec'd code and does not pickle), so what
  crosses the process boundary is:

  * down, once per phase: a frozen :class:`JobSpec` carrying only
    sources and plain-dataclass configuration, plus the input arena's
    token (:mod:`repro.parallel.arena` — the split bytes are published
    once and never pickled per task). :func:`_init_worker` rebuilds the
    runner from the spec and warms the program/translation caches; on a
    warm daemon worker that is a string of cache hits.
  * down, per batch: ``(task_index, start, stop)`` range triples.
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

from ..apps.base import Application
from ..config import ClusterConfig, OptimizationFlags
from ..errors import ReproError
from ..obs import trace as obs

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner, MapTaskResult

__all__ = [
    "JobSpec",
    "TaskEnvelope",
    "run_map_tasks",
]


@dataclass(frozen=True)
class JobSpec:
    """Everything a worker needs to rebuild one job's runner."""

    app: Application
    cluster: ClusterConfig
    use_gpu: bool
    opt: OptimizationFlags
    num_reducers: int
    split_bytes: int
    trace: bool


@dataclass
class TaskEnvelope:
    """One task's result, shipped worker → parent, with the worker
    recorder's events and metrics when the parent traces."""

    result: Any
    worker_pid: int
    events: list | None = None
    metrics: Any | None = None


#: This worker's job state — ``spec``, the rebuilt ``runner`` and the
#: arena ``view`` — replaced by each pooled map phase's setup.
#: Module-level (not closure-captured) because pool task functions must
#: be importable top-level callables.
worker_state: dict[str, Any] = {}


def _warm_app(app: Application, opt: OptimizationFlags,
              use_gpu: bool) -> None:
    """Populate this process's mini-C caches for one application under
    the worker's engine (set before the job's init runs): ``"tree"``
    runs no generated code, so it builds none."""
    from ..minic.cache import warm_program
    from ..minic.interpreter import current_engine

    if current_engine() != "tree":
        for program in (app.map_program(), app.combine_program(),
                        app.reduce_program()):
            if program is not None:
                warm_program(program)
    if use_gpu:
        app.translate_map(opt)
        app.translate_combine(opt)


def _init_worker(spec: JobSpec, arena_token: tuple) -> None:
    from ..hadoop.local import LocalJobRunner
    from .arena import attach_view

    _warm_app(spec.app, spec.opt, spec.use_gpu)
    worker_state["spec"] = spec
    worker_state["runner"] = LocalJobRunner(
        spec.app,
        cluster=spec.cluster,
        use_gpu=spec.use_gpu,
        opt=spec.opt,
        num_reducers=spec.num_reducers,
        split_bytes=spec.split_bytes,
        workers=1,
    )
    worker_state["view"] = attach_view(arena_token)


def _run_map_task(payload: tuple[int, int, int]) -> TaskEnvelope:
    """Run one map task in this worker; when the parent traces, under
    a fresh recorder whose events and metrics ride home in the
    envelope."""
    index, start, stop = payload
    runner = worker_state["runner"]
    split = bytes(worker_state["view"][start:stop])
    if not worker_state["spec"].trace:
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

    On the pool, ``data`` is published once through a
    :class:`~repro.parallel.arena.SplitArena`; only range triples and
    envelopes are pickled."""
    if workers == 1:
        return [runner.map_task(index, data[start:stop])
                for index, (start, stop) in enumerate(ranges)]
    from .arena import SplitArena
    from .daemon import get_pool

    rec = obs.active()
    spec = JobSpec(
        app=runner.app,
        cluster=runner.cluster,
        use_gpu=runner.use_gpu,
        opt=runner.opt,
        num_reducers=runner.num_reducers,
        split_bytes=runner.split_bytes,
        trace=bool(rec.enabled),
    )
    payloads = [(i, start, stop) for i, (start, stop) in enumerate(ranges)]
    with SplitArena(data) as arena:
        envelopes = get_pool().run_job(
            workers, _run_map_task, payloads,
            init_fn=_init_worker, init_args=(spec, arena.token),
        )
    results = []
    for envelope in envelopes:
        if envelope.events is not None:
            rec.splice(envelope.events,
                       pid_suffix=f"@w{envelope.worker_pid}")
            rec.metrics.merge(envelope.metrics)
        results.append(envelope.result)
    return results
