"""Job configuration and result records."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ClusterConfig
from ..errors import ConfigError


@dataclass
class JobConf:
    """Everything the cluster simulator needs to run one job."""

    name: str
    num_map_tasks: int
    num_reduce_tasks: int
    cluster: ClusterConfig
    # Per-task durations (simulated seconds) on one CPU core vs one GPU.
    cpu_task_seconds: float = 60.0
    gpu_task_seconds: float = 10.0
    #: Relative jitter of task durations (paper §7.3 reports <5% variation).
    duration_jitter: float = 0.04
    #: Extra input-read seconds when a map is not data-local.
    nonlocal_read_penalty: float = 2.0
    #: Map output bytes per map task (drives the shuffle/reduce model).
    map_output_bytes: float = 8.0 * 1024 * 1024
    #: Reduce-side compute seconds per reducer (merge + reduce function).
    reduce_compute_seconds: float = 20.0
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_map_tasks < 1:
            raise ConfigError("job needs at least one map task")
        if self.num_reduce_tasks < 0:
            raise ConfigError("negative reduce task count")
        if self.cpu_task_seconds <= 0 or self.gpu_task_seconds <= 0:
            raise ConfigError("task durations must be positive")

    @property
    def map_only(self) -> bool:
        return self.num_reduce_tasks == 0


@dataclass
class JobResult:
    """Outcome of one simulated job."""

    job_seconds: float = 0.0
    map_phase_seconds: float = 0.0
    reduce_phase_seconds: float = 0.0
    cpu_tasks: int = 0
    gpu_tasks: int = 0
    forced_gpu_tasks: int = 0
    data_local_fraction: float = 0.0
    failures: int = 0
    max_observed_speedup: float = 1.0
    #: (finish_time, node, slot-kind) per map task, for timeline plots.
    timeline: list[tuple[float, int, str]] = field(default_factory=list)
