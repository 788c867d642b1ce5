"""GPU-first scheduling — the baseline HeteroDoop improves on (§6.1).

'Whenever a new task is issued on a node, the task is scheduled on a GPU
if such a device is free; otherwise, the CPU is chosen.' The JobTracker
side is stock Hadoop: fill every free slot per heartbeat.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PlacementDecision:
    use_gpu: bool
    forced: bool = False   # tail scheduling may force a queued GPU placement


class GpuFirstPolicy:
    """Baseline placement: free GPU wins, else CPU."""

    name = "gpu-first"
    uses_gpus = True

    def tasks_to_grant(self, free_cpu_slots: int, free_gpu_slots: int,
                       remaining: int, num_gpus_per_node: int,
                       max_speedup: float, num_slaves: int) -> int:
        """JobTracker side: stock Hadoop grants one task per free slot."""
        return min(free_cpu_slots + free_gpu_slots, remaining)

    def place(self, gpu_free: bool, num_gpus: int, ave_speedup: float,
              maps_remaining_per_node: float) -> PlacementDecision:
        """TaskTracker side."""
        if gpu_free:
            return PlacementDecision(use_gpu=True)
        return PlacementDecision(use_gpu=False)
