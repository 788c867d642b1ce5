"""CPU map-task timing (the Hadoop Streaming baseline path).

A CPU map task runs the *original* mini-C program over its fileSplit on
one core: read split → map filter → sort KV pairs → combine filter →
write spill. The functional work is done by the real interpreter; this
model converts its :class:`~repro.minic.interpreter.ExecCounters` into
simulated seconds on one Xeon core.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..config import CpuSpec
from .breakdown import TaskBreakdown
from .io import IoModel

if TYPE_CHECKING:  # the simulator imports this model, never mini-C
    from ..minic.interpreter import ExecCounters

#: Simulated scalar operations one Xeon core retires per second. The
#: interpreter counts *source-level* operations (each stands for several
#: machine instructions), so this is far below the GHz clock; the value is
#: calibrated so single-task GPU/CPU ratios land in the paper's Fig. 5
#: ranges (see costmodel/calibration.py).
CPU_OPS_PER_SECOND = 55e6

#: Streaming's per-KV pipe/serialization overhead (stdin/stdout framing).
STREAMING_OVERHEAD_S_PER_KV = 1.5e-7

#: Comparison cost of the CPU-side sort per element (qsort over records).
CPU_SORT_OP_FACTOR = 6.0


#: The Fig. 6 stages a Streaming task charges, in pipeline order — the
#: phase children of a CPU task's trace span (``record_count`` and
#: ``aggregate`` are GPU pipeline stages).
CPU_TASK_PHASES = ("input_read", "map", "sort", "combine", "output_write")


class CpuTaskModel:
    def __init__(self, cpu: CpuSpec, io: IoModel):
        self.cpu = cpu
        self.io = io
        self.ops_per_second = CPU_OPS_PER_SECOND * cpu.relative_speed

    def compute_s(self, counters: ExecCounters) -> float:
        """Seconds of pure computation for interpreted work on one core."""
        work = (
            counters.ops
            + 2.0 * counters.fp_ops
            + counters.loads
            + counters.stores
            + 2.0 * counters.calls
            + counters.branches
        )
        return work / self.ops_per_second

    def streaming_s(self, kv_pairs: int) -> float:
        return kv_pairs * STREAMING_OVERHEAD_S_PER_KV

    def sort_s(self, kv_pairs: int, key_length: int) -> float:
        """In-memory sort of the map output before the combiner runs."""
        if kv_pairs <= 1:
            return 0.0
        comparisons = kv_pairs * math.log2(kv_pairs)
        op_cost = CPU_SORT_OP_FACTOR * (1.0 + key_length / 16.0)
        return comparisons * op_cost / self.ops_per_second

    def task_timing(
        self,
        split_bytes: int,
        map_counters: ExecCounters,
        map_kv_pairs: int,
        key_length: int,
        combine_counters: ExecCounters | None,
        output_bytes: int,
        map_only: bool,
        replication: int,
    ) -> TaskBreakdown:
        timing = TaskBreakdown()
        # A functional task's split is data-local; locality misses are
        # the cluster simulator's business (JobConf.nonlocal_read_penalty).
        timing.input_read = self.io.hdfs_read_s(split_bytes)
        timing.map = self.compute_s(map_counters) + self.streaming_s(map_kv_pairs)
        timing.sort = self.sort_s(map_kv_pairs, key_length)
        if combine_counters is not None:
            timing.combine = self.compute_s(combine_counters) + \
                self.streaming_s(map_kv_pairs)
        if map_only:
            timing.output_write = self.io.hdfs_write_s(output_bytes, replication)
        else:
            timing.output_write = self.io.local_write_s(output_bytes)
        return timing
