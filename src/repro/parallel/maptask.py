"""The map phase's executor, and the job plumbing both phases share.

:func:`run_map_tasks` runs a job's map tasks and returns their
:class:`~repro.hadoop.local.MapTaskResult` in task-index order. Every
task is one call of :meth:`LocalJobRunner.map_task
<repro.hadoop.local.LocalJobRunner.map_task>`; ``workers`` only decides
where the call happens:

* ``workers == 1`` — inline, on the driver's own runner, by reference:
  no arena, no pickle, no recorder swap. Serial is this case, not a
  second code path.
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
    fresh recorder the task ran under (:func:`capture`).

  :func:`run_on_pool` hands results back in submission order after
  splicing each envelope's events onto ``<pid>@w<worker pid>`` tracks
  of the parent's recorder, so the driver's fold cannot tell a pooled
  task from an inline one.

:mod:`repro.parallel.reducetask` is the reduce phase's twin and reuses
the spec, the worker setup, the capture and the splice from here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from ..apps.base import Application
from ..config import ClusterConfig, OptimizationFlags
from ..errors import ReproError
from ..obs import trace as obs
from .daemon import get_pool

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner, MapTaskResult

__all__ = [
    "JobSpec",
    "TaskEnvelope",
    "capture",
    "run_map_tasks",
    "run_on_pool",
    "warm_worker_caches",
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
    gpu_engine: str          # resolved name — ambient defaults don't ship
    minic_backend: str
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
#: arena ``view`` — replaced by each phase's setup. Module-level (not
#: closure-captured) because pool task functions must be importable
#: top-level callables.
worker_state: dict[str, Any] = {}


def _warm_app(app: Application, opt: OptimizationFlags,
              use_gpu: bool) -> None:
    """Populate this process's mini-C caches for one application."""
    from ..minic.cache import warm_program

    for program in (app.map_program(), app.combine_program(),
                    app.reduce_program()):
        if program is not None:
            warm_program(program)
    if use_gpu:
        app.translate_map(opt)
        app.translate_combine(opt)


def warm_worker_caches(tags: tuple[str, ...]) -> None:
    """``repro pool warm``'s broadcast target: prime the mini-C and
    translation caches for the named apps in this worker."""
    from ..apps import get_app

    opt = OptimizationFlags.all_on()
    for tag in tags:
        _warm_app(get_app(tag), opt, use_gpu=True)


def _init_worker(spec: JobSpec, arena_token: tuple) -> None:
    from ..gpu.engine import set_default_gpu_engine
    from ..hadoop.local import LocalJobRunner
    from ..minic.interpreter import set_default_backend
    from .arena import attach_view

    set_default_gpu_engine(spec.gpu_engine)
    set_default_backend(spec.minic_backend)
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


def capture(task: Callable[..., Any], *args: Any) -> TaskEnvelope:
    """Run one task in this worker; when the parent traces, under a
    fresh recorder whose events and metrics ride home in the envelope."""
    if not worker_state["spec"].trace:
        return TaskEnvelope(task(*args), os.getpid())
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        result = task(*args)
    if rec.open_spans():
        raise ReproError(
            f"{task.__name__} left spans open in worker recorder")
    return TaskEnvelope(result, os.getpid(), rec.events, rec.metrics)


def run_on_pool(runner: "LocalJobRunner", workers: int,
                task_fn: Callable[[Any], TaskEnvelope],
                payloads: list[tuple[int, int, int]],
                data: bytes) -> list[Any]:
    """Run one phase's payloads on the daemon pool; results come back
    in submission order. ``data`` — what the payloads' ranges index —
    is published once through a :class:`~repro.parallel.arena.
    SplitArena`; only range triples and envelopes are pickled."""
    from ..gpu.engine import default_gpu_engine
    from ..minic.interpreter import default_backend
    from .arena import SplitArena

    rec = obs.active()
    spec = JobSpec(
        app=runner.app,
        cluster=runner.cluster,
        use_gpu=runner.use_gpu,
        opt=runner.opt,
        num_reducers=runner.num_reducers,
        split_bytes=runner.split_bytes,
        gpu_engine=default_gpu_engine(),
        minic_backend=default_backend(),
        trace=bool(rec.enabled),
    )
    with SplitArena(data) as arena:
        envelopes = get_pool().run_job(
            workers, task_fn, payloads,
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


def _run_map_task(payload: tuple[int, int, int]) -> TaskEnvelope:
    index, start, stop = payload
    return capture(worker_state["runner"].map_task, index,
                   bytes(worker_state["view"][start:stop]))


def run_map_tasks(runner: "LocalJobRunner", data: bytes,
                  ranges: list[tuple[int, int]],
                  workers: int) -> list["MapTaskResult"]:
    """Run one map task per split range; results in task-index order."""
    if workers == 1:
        return [runner.map_task(index, data[start:stop])
                for index, (start, stop) in enumerate(ranges)]
    payloads = [(i, start, stop) for i, (start, stop) in enumerate(ranges)]
    return run_on_pool(runner, workers, _run_map_task, payloads, data)
