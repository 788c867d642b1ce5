"""Cost models for CPU task execution and IO.

The GPU side is timed by the architecture simulator; the CPU side (plain
Hadoop Streaming tasks) and the IO paths (HDFS read, local-disk spill,
shuffle network) are timed by the analytical models here. Absolute
numbers are simulated seconds; only *ratios* are calibrated against the
paper (see ``calibration.py``).
"""

from .breakdown import TaskBreakdown
from .io import IoModel
from .cpu import CpuTaskModel

__all__ = ["IoModel", "CpuTaskModel", "TaskBreakdown"]
