"""GPU architecture simulator.

A functional + timing simulation of a CUDA device at warp granularity:
kernels from :mod:`repro.compiler` execute for real (every record is
mapped, every KV pair combined), while a cost model charges simulated
cycles for instruction issue, (un)coalesced memory transactions, shared/
global atomics, texture accesses, and divergence — the exact mechanisms
HeteroDoop's optimizations manipulate (paper §4, Fig. 7).

See DESIGN.md §5 for the substitution argument: the paper's GPU results
follow from these mechanisms, not from NVIDIA silicon.
"""

from .charging import LaneCharges
from .device import DeviceMemory, GpuDevice
from .timing import KernelCost, TimingModel

__all__ = [
    "GpuDevice", "DeviceMemory", "TimingModel", "KernelCost",
    "LaneCharges",
]
