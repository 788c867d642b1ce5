"""Single-task measurement: one fileSplit through the CPU path and the
GPU pipeline, timed by the respective models.

These measurements are the substrate for Fig. 5 (task speedups), Fig. 6
(GPU breakdown), Fig. 7 (ablations), and — scaled to realistic task
lengths — the per-task durations driving the Fig. 4 cluster simulations.

Scaling note: simulation splits are laptop-sized (hundreds of records,
not 256 MB), but every modelled cost is linear in split size (records,
bytes, KV pairs; sort is n·log n, a mild correction), so CPU/GPU *ratios*
are scale-invariant. For the cluster simulator we rescale both sides so
the CPU task lasts ``target_cpu_seconds`` (a realistic Hadoop map-task
length), preserving the ratio exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..apps.base import Application
from ..apps import get_app
from ..config import CLUSTER1, CLUSTER2, ClusterConfig, OptimizationFlags
from ..costmodel.breakdown import TaskBreakdown
from ..errors import ConfigError
from ..hadoop.local import LocalJobRunner, MapTaskResult
from ..scenarios.registry import APP_ORDER, get_workload

#: Default records per calibration split, per app — the registry's
#: ``calibration`` figures (BS interprets 128 pricing iterations per
#: record, so fewer records suffice).
DEFAULT_RECORDS = {app: get_workload(app).calibration
                   for app in APP_ORDER}


@dataclass
class TaskTimes:
    """Single-task timing for one (app, cluster, optimization) point."""

    app: str
    cluster: str
    cpu_seconds: float
    gpu_seconds: float
    cpu_breakdown: TaskBreakdown
    gpu_breakdown: TaskBreakdown
    map_output_pairs: int = 0
    output_bytes: int = 0
    records: int = 0

    @property
    def gpu_speedup(self) -> float:
        """GPU task speedup over a single-core CPU task (Fig. 5's metric)."""
        if self.gpu_seconds <= 0:
            raise ConfigError("GPU task time is zero")
        return self.cpu_seconds / self.gpu_seconds

    def scaled(self, target_cpu_seconds: float = 60.0) -> tuple[float, float]:
        """(cpu_s, gpu_s) rescaled so the CPU task lasts the target."""
        factor = target_cpu_seconds / self.cpu_seconds
        return target_cpu_seconds, self.gpu_seconds * factor


def _cluster_by_name(name: str) -> ClusterConfig:
    if name == "Cluster1":
        return CLUSTER1
    if name == "Cluster2":
        return CLUSTER2
    raise ConfigError(f"unknown cluster {name!r}")


def _map_tasks(app_short: str, cluster_name: str, opt: OptimizationFlags,
               records: int, seed: int,
               *paths: bool) -> list[MapTaskResult]:
    """The calibration split through the job runner's one map-task
    body, once per requested path (``use_gpu`` False: Streaming
    filters, True: translated kernels), with the app's Table 2 reducer
    count for this cluster."""
    app = get_app(app_short)
    cluster = _cluster_by_name(cluster_name)
    split = app.generate(records, seed).encode("utf-8")
    return [
        LocalJobRunner(app, cluster=cluster, use_gpu=use_gpu,
                       opt=opt).map_task(0, split)
        for use_gpu in paths
    ]


@lru_cache(maxsize=256)
def _single_task_times_cached(
    app_short: str, cluster_name: str, opt: OptimizationFlags,
    records: int, seed: int,
) -> TaskTimes:
    cpu, gpu = _map_tasks(app_short, cluster_name, opt, records, seed,
                          False, True)
    return TaskTimes(
        app=app_short,
        cluster=cluster_name,
        cpu_seconds=cpu.seconds,
        gpu_seconds=gpu.seconds,
        cpu_breakdown=cpu.breakdown,
        gpu_breakdown=gpu.breakdown,
        map_output_pairs=cpu.map_pairs,
        output_bytes=cpu.output_bytes,
        records=records,
    )


def single_task_times(
    app: Application | str,
    cluster: ClusterConfig = CLUSTER1,
    opt: OptimizationFlags | None = None,
    records: int | None = None,
    seed: int = 7,
) -> TaskTimes:
    """Measure one map(+combine) task on both processors (cached)."""
    short = app if isinstance(app, str) else app.short
    opt = opt if opt is not None else OptimizationFlags.all_on()
    records = records if records is not None else DEFAULT_RECORDS.get(short, 300)
    return _single_task_times_cached(short, cluster.name, opt, records, seed)


@lru_cache(maxsize=64)
def _traced_phase_seconds_cached(
    app_short: str, cluster_name: str, opt: OptimizationFlags,
    records: int, seed: int,
) -> dict[str, float]:
    from .. import obs

    recorder = obs.TraceRecorder()
    with obs.use_recorder(recorder):
        _map_tasks(app_short, cluster_name, opt, records, seed, True)
    phases: dict[str, float] = {}
    for span in recorder.spans("phase"):
        phases[span.name] = phases.get(span.name, 0.0) + (span.dur or 0.0)
    return phases


def gpu_breakdown_from_trace(
    app: Application | str,
    cluster: ClusterConfig = CLUSTER1,
    opt: OptimizationFlags | None = None,
    records: int | None = None,
    seed: int = 7,
) -> dict[str, float]:
    """Per-phase GPU-task seconds aggregated from *trace spans*.

    This is the Fig. 6 data path: the task runs once under a
    :class:`~repro.obs.TraceRecorder` and the breakdown is read back from
    the ``phase`` spans the pipeline emitted, rather than from the
    returned :class:`~repro.costmodel.breakdown.TaskBreakdown`. The two
    agree exactly (a phase span's duration *is* the charged stage time) —
    the trace tests assert it — but deriving the figure from traces keeps
    the observable data the single source of truth.
    """
    short = app if isinstance(app, str) else app.short
    opt = opt if opt is not None else OptimizationFlags.all_on()
    records = records if records is not None else DEFAULT_RECORDS.get(short, 300)
    return dict(_traced_phase_seconds_cached(
        short, cluster.name, opt, records, seed
    ))
