"""Heartbeat messages (paper §2.2, extended per §6.2).

HeteroDoop modifies the stock heartbeat to carry the TaskTracker's
observed average GPU speedup (TT → JT) and the JobTracker's estimate of
remaining maps per node (JT → TT).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Heartbeat:
    """TaskTracker → JobTracker. A plain slotted dataclass: one is built
    per heartbeat event, and at 1000-node sweep scale the frozen variant's
    ``object.__setattr__`` init showed up in profiles."""

    node: int
    free_cpu_slots: int
    free_gpu_slots: int
    ave_gpu_speedup: float          # HeteroDoop extension (§6.2)


@dataclass(slots=True)
class HeartbeatResponse:
    """JobTracker → TaskTracker."""

    task_ids: list[int] = field(default_factory=list)
    maps_remaining_per_node: float = 0.0   # HeteroDoop extension (§6.2)
