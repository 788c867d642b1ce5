"""The Fig. 6 time breakdown of one map(+combine) task, on either device."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class TaskBreakdown:
    """Seconds per map-task stage (the paper's Fig. 6 categories).

    Filled by :meth:`CpuTaskModel.task_timing
    <repro.costmodel.cpu.CpuTaskModel.task_timing>` for a Hadoop
    Streaming task and by :meth:`GpuTaskRunner.run
    <repro.runtime.gpu_task.GpuTaskRunner.run>` for a GPU task.
    ``record_count`` and ``aggregate`` are GPU pipeline stages; a CPU
    task leaves them at 0.0, which adds exactly nothing to ``total``.
    """

    input_read: float = 0.0
    record_count: float = 0.0
    map: float = 0.0
    aggregate: float = 0.0
    sort: float = 0.0
    combine: float = 0.0
    output_write: float = 0.0

    @property
    def total(self) -> float:
        # Spelled out left to right: the goldens pin this float sum's
        # order (builtin sum() compensates from Python 3.12 on).
        return (
            self.input_read + self.record_count + self.map + self.aggregate
            + self.sort + self.combine + self.output_write
        )

    def as_dict(self) -> dict[str, float]:
        """Stage → seconds, in pipeline (field) order."""
        return asdict(self)
