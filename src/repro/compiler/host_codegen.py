"""Host driver code generation (paper Fig. 1).

The generated host code orchestrates the GPU task. We represent it as an
ordered :class:`HostPlan` of :class:`HostStep` entries, which
``repro translate`` and ``examples/quickstart.py`` print. The runtime
(:mod:`repro.runtime.gpu_task`) does not read the plan: it runs the same
Fig. 1 stages itself and charges time to each, producing the Fig. 6
breakdown categories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class HostStep(enum.Enum):
    """The flowchart boxes of Fig. 1 (dark boxes are runtime functions)."""

    COPY_INPUT = "copy fileSplit from HDFS to GPU memory"
    COUNT_RECORDS = "run record locator/counter kernel"
    ALLOC_STORAGE = "allocate global KV store and working memory"
    MAP_KERNEL = "launch map kernel"
    AGGREGATE = "aggregate KV pairs per partition (scan + reindex)"
    SORT = "sort each partition on the GPU"
    COMBINE_KERNEL = "launch combine kernel per partition"
    WRITE_OUTPUT = "write output (SequenceFile to local disk, or HDFS if map-only)"
    FREE = "free device memory"


@dataclass
class HostPlan:
    """Ordered host steps for one GPU task."""

    steps: list[HostStep] = field(default_factory=list)

    @classmethod
    def build(cls, has_combiner: bool) -> "HostPlan":
        steps = [
            HostStep.COPY_INPUT,
            HostStep.COUNT_RECORDS,
            HostStep.ALLOC_STORAGE,
            HostStep.MAP_KERNEL,
            HostStep.AGGREGATE,
            HostStep.SORT,
        ]
        if has_combiner:
            steps.append(HostStep.COMBINE_KERNEL)
        steps.extend([HostStep.WRITE_OUTPUT, HostStep.FREE])
        return cls(steps=steps)

    def describe(self) -> str:
        lines = ["host driver plan:"]
        for i, step in enumerate(self.steps, 1):
            lines.append(f"  {i}. {step.value}")
        return "\n".join(lines)
