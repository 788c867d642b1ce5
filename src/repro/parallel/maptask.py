"""Map tasks as pool work items: job specs, warmup, and envelopes.

A worker cannot be handed a live :class:`~repro.hadoop.local.
LocalJobRunner` or :class:`~repro.runtime.gpu_task.GpuTaskRunner` —
their hot state (generated mini-C functions, kernel bodies, host
snapshots) is exec'd code and closures and does not pickle. What
crosses the process boundary instead:

* down, once per job: a frozen *job spec* carrying only sources and
  plain-dataclass configuration, plus the input arena's token
  (:mod:`repro.parallel.arena` — the split bytes are published once and
  never pickled per task). The per-worker job setup rebuilds the runner
  from the spec and **warms** the program/translation/kernel caches.
  With the persistent daemon pool the warmup is paid once per worker
  *process lifetime* per program, not once per job — a warm worker's
  setup is a string of cache hits.
* down, per batch: ``(task_index, start, stop)`` range triples, several
  per IPC round-trip (:func:`~repro.parallel.daemon.resolve_batch_size`).
* up, per batch: compact :class:`MapTaskEnvelope` results — partitioned
  triples or the :class:`GpuTaskResult`, the timing dataclass, and
  (when the parent traces) the worker recorder's events and metrics.

The parent consumes envelopes **in task-index order** (the daemon pool
reassembles batches by index) and folds them exactly as the serial loop
would have, which is what makes ``workers=N`` byte-identical to serial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from ..apps.base import Application
from ..config import ClusterConfig, OptimizationFlags
from ..costmodel.cpu import CpuTaskTiming
from ..errors import ReproError
from ..obs import trace as obs
from .arena import SplitArena, attach_view
from .daemon import get_pool

if TYPE_CHECKING:  # runtime import would be circular (local.py uses us)
    from ..hadoop.local import LocalJobRunner
    from ..runtime.gpu_task import GpuTaskResult, GpuTaskRunner

__all__ = [
    "MapJobSpec",
    "MapTaskEnvelope",
    "run_map_tasks",
    "warm_worker_caches",
]


@dataclass(frozen=True)
class MapJobSpec:
    """Everything a worker needs to rebuild one job's map-side runner."""

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
class MapTaskEnvelope:
    """One map task's result, shipped worker → parent.

    ``parts`` carries the partition → decorated-run mapping on *both*
    paths: streaming-sorted ``(sort_key, (key, value, line))`` entries,
    rendered and decorated in the worker so the driver's fold never
    re-encodes a pair. The GPU path additionally ships its
    :class:`GpuTaskResult` for the timing/Fig. 6 bookkeeping.
    """

    index: int
    worker_pid: int
    map_pairs: int
    parts: dict[int, list] | None = None
    cpu_timing: CpuTaskTiming | None = None
    gpu_result: "GpuTaskResult | None" = None
    events: list | None = None
    metrics: Any | None = None


# Worker-global runner state, rebuilt by the job setup once per worker
# per job. Module-level (not closure-captured) because pool task
# functions must be importable top-level callables.
_map_state: dict[str, Any] = {}


def _warm_app(app: Application, opt: OptimizationFlags,
              use_gpu: bool) -> None:
    """Populate this process's mini-C caches for one application."""
    from ..minic.cache import warm_program

    warm_program(app.map_program())
    combine = app.combine_program()
    if combine is not None:
        warm_program(combine)
    reduce_prog = app.reduce_program()
    if reduce_prog is not None:
        # Workers never reduce, but warming is cheap and keeps the
        # worker's cache state a superset of what any task touches.
        warm_program(reduce_prog)
    if use_gpu:
        app.translate_map(opt)
        app.translate_combine(opt)


def warm_worker_caches(tags: tuple[str, ...]) -> None:
    """``repro pool warm``'s broadcast target: prime the mini-C and
    translation caches for the named apps in this worker."""
    from ..apps import get_app
    from ..config import OptimizationFlags

    opt = OptimizationFlags.all_on()
    for tag in tags:
        _warm_app(get_app(tag), opt, use_gpu=True)


def _init_map_worker(spec: MapJobSpec, arena_token: tuple) -> None:
    from ..gpu.device import GpuDevice
    from ..hadoop.local import LocalJobRunner
    from ..minic.interpreter import set_default_backend

    set_default_backend(spec.minic_backend)
    _warm_app(spec.app, spec.opt, spec.use_gpu)
    runner = LocalJobRunner(
        spec.app,
        cluster=spec.cluster,
        use_gpu=spec.use_gpu,
        opt=spec.opt,
        num_reducers=spec.num_reducers,
        split_bytes=spec.split_bytes,
        gpu_engine=spec.gpu_engine,
        workers=1,
    )
    gpu_runner = None
    if spec.use_gpu:
        gpu_runner = runner._make_gpu_runner(GpuDevice(spec.cluster.gpu))
        gpu_runner.map_snapshot()
        if gpu_runner.combine_tr is not None:
            gpu_runner.combine_snapshot()
    _map_state["spec"] = spec
    _map_state["runner"] = runner
    _map_state["gpu_runner"] = gpu_runner
    _map_state["view"] = attach_view(arena_token)


def _run_map_task(payload: tuple[int, int, int]) -> MapTaskEnvelope:
    from ..hadoop.local import LocalJobResult

    index, start, stop = payload
    spec: MapJobSpec = _map_state["spec"]
    runner: "LocalJobRunner" = _map_state["runner"]
    split = bytes(_map_state["view"][start:stop])
    rec = obs.TraceRecorder() if spec.trace else None
    previous = obs.install(rec) if rec is not None else None
    try:
        scratch = LocalJobResult()
        if spec.use_gpu:
            gpu_runner: "GpuTaskRunner" = _map_state["gpu_runner"]
            task = gpu_runner.run(split, task_index=index)
            envelope = MapTaskEnvelope(
                index=index, worker_pid=os.getpid(),
                map_pairs=task.emitted_pairs, gpu_result=task,
                parts=task.rendered_runs(),
            )
        else:
            parts = runner._run_cpu_map_task(split, scratch,
                                             task_index=index)
            envelope = MapTaskEnvelope(
                index=index, worker_pid=os.getpid(),
                map_pairs=scratch.map_output_pairs, parts=parts,
                cpu_timing=scratch.cpu_task_timings[0],
            )
    finally:
        if rec is not None:
            obs.install(previous)
    if rec is not None:
        if rec.open_spans():
            raise ReproError("map task left spans open in worker recorder")
        envelope.events = rec.events
        envelope.metrics = rec.metrics
    return envelope


def run_map_tasks(runner: "LocalJobRunner", data: bytes,
                  ranges: list[tuple[int, int]],
                  workers: int) -> list[MapTaskEnvelope]:
    """Fan a job's split ranges across the daemon pool; envelopes come
    back in task-index order. ``data`` is published once through a
    :class:`~repro.parallel.arena.SplitArena`; only range triples and
    result envelopes are pickled."""
    from ..gpu.engine import default_gpu_engine
    from ..minic.interpreter import default_backend

    spec = MapJobSpec(
        app=runner.app,
        cluster=runner.cluster,
        use_gpu=runner.use_gpu,
        opt=runner.opt,
        num_reducers=runner.num_reducers,
        split_bytes=runner.split_bytes,
        gpu_engine=runner.gpu_engine or default_gpu_engine(),
        minic_backend=default_backend(),
        trace=bool(obs.active().enabled),
    )
    payloads = [(i, start, stop) for i, (start, stop) in enumerate(ranges)]
    with SplitArena(data) as arena:
        return get_pool().run_job(
            workers, _run_map_task, payloads,
            init_fn=_init_map_worker, init_args=(spec, arena.token),
        )
