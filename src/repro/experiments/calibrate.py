"""Single-task measurement: one fileSplit through the CPU path and the
GPU pipeline, timed by the respective models.

These measurements are the substrate for Fig. 5 (task speedups), Fig. 6
(GPU breakdown), Fig. 7 (ablations), and — scaled to realistic task
lengths — the per-task durations driving the Fig. 4 cluster simulations.

Scaling note: simulation splits are laptop-sized (hundreds of records,
not 256 MB), but every modelled cost is linear in split size (records,
bytes, KV pairs; sort is n·log n, a mild correction), so CPU/GPU *ratios*
are scale-invariant. For the cluster simulator we rescale both sides so
the CPU task lasts 60 s (a realistic Hadoop map-task length), preserving
the ratio exactly: :func:`simulated_task_times` writes the rows of
:mod:`repro.scenarios.task_times`, which every simulated job reads.
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


def simulated_task_times(app: str, cluster: ClusterConfig) -> dict[str, float]:
    """One row of :mod:`repro.scenarios.task_times`: a task's seconds and
    output bytes rescaled so the CPU task lasts 60 s, and each reducer's
    compute, the share Table 2 leaves outside map+combine."""
    times = single_task_times(app, cluster)
    cpu_s, gpu_s = times.scaled(60.0)
    scale = cpu_s / times.cpu_seconds
    pct = get_app(app).pct_map_combine_active
    return {
        "cpu_task_seconds": cpu_s,
        "gpu_task_seconds": gpu_s,
        "map_output_bytes": max(times.output_bytes * scale, 1.0),
        "reduce_compute_seconds": cpu_s * (100 - pct) / 100.0,
    }


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
