"""Hadoop 1.x engine (paper §2.2): JobTracker/TaskTracker orchestration
with heartbeats and slots, in two complementary forms:

* :mod:`repro.hadoop.local` — a **functional** single-process job runner
  (Hadoop's LocalJobRunner analogue): real map → shuffle → sort → reduce
  over real bytes, on the CPU path or the GPU path (one device per
  job). Used by the correctness tests and the examples. Import it from
  its module: the package leaves it unloaded, and it loads the GPU
  stack only for a GPU-path job.
* :mod:`repro.hadoop.simulate` — a **discrete-event cluster simulator**
  driving thousands of tasks over 48+ nodes with heartbeat scheduling,
  data locality, and the GPU-first / tail-scheduling policies. Used by
  the Fig. 3/4 experiments. A simulated job is one :class:`JobConf`.
  ``ClusterSimulator`` is importable from this package, but the
  simulator (and its cost-model and scheduling closure) loads at that
  import, not with the package — a functional job never pays for it.
"""

from .events import EventLoop
from .job import JobConf, JobResult
from .tasks import MapTask, TaskState

__all__ = [
    "EventLoop",
    "JobConf",
    "JobResult",
    "MapTask",
    "TaskState",
    "ClusterSimulator",
]


def __getattr__(name: str):
    if name == "ClusterSimulator":
        from .simulate import ClusterSimulator

        return ClusterSimulator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
