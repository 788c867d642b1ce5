"""Job configuration and result records."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import ClusterConfig
from ..errors import ConfigError


@dataclass
class JobConf:
    """One simulated job: everything :class:`ClusterSimulator` reads.

    Every run of one ``JobConf`` gives the same result: each simulator
    draws its task durations from its own ``random.Random(seed)``.
    """

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
    #: Probability that a map attempt fails halfway and is rescheduled
    #: (paper §5.1; the fault-tolerance runs).
    failure_rate: float = 0.0
    #: node → CPU slowdown factor: inter-node heterogeneity, the paper's
    #: §9 future work. A factor > 1 makes the node's CPU tasks that much
    #: slower (older processors); its GPUs keep their own speed.
    node_speed_factors: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if self.num_map_tasks < 1:
            raise ConfigError("job needs at least one map task")
        if self.num_reduce_tasks < 0:
            raise ConfigError("negative reduce task count")
        if not all(_positive(s) for s in (self.cpu_task_seconds,
                                          self.gpu_task_seconds)):
            raise ConfigError("task durations must be finite and positive")
        # Jitter below 1 keeps every attempt's duration positive; a
        # failure rate of 1 would fail every attempt of every task.
        if not 0.0 <= self.duration_jitter < 1.0:
            raise ConfigError("duration jitter must be in [0, 1)")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ConfigError("failure rate must be in [0, 1)")
        if not (math.isfinite(self.nonlocal_read_penalty)
                and self.nonlocal_read_penalty >= 0):
            raise ConfigError("non-local read penalty must be finite and >= 0")
        if self.node_speed_factors is not None and not all(
                _positive(f) for f in self.node_speed_factors.values()):
            raise ConfigError("node speed factors must be finite and positive")

    @property
    def map_only(self) -> bool:
        return self.num_reduce_tasks == 0


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


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
