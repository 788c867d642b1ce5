"""Device model: memory allocation and host↔device transfers.

GPUs have no virtual memory (paper §1, §2.1): allocations beyond physical
capacity fail with :class:`~repro.errors.GpuOutOfMemory` — which is what
forces HeteroDoop's record-parallel (rather than fileSplit-parallel)
processing scheme, and what excludes KM from Cluster2 in Fig. 4b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import GpuSpec, TESLA_K40
from ..errors import GpuError, GpuOutOfMemory

if TYPE_CHECKING:
    from ..compiler.kernel_ir import KernelIR


@dataclass
class Allocation:
    label: str
    nbytes: int
    freed: bool = False


class DeviceMemory:
    """A simple bump-count allocator over the device's global memory."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise GpuError("device memory capacity must be positive")
        self.capacity = capacity
        self.allocations: list[Allocation] = []

    @property
    def used(self) -> int:
        return sum(a.nbytes for a in self.allocations if not a.freed)

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def malloc(self, nbytes: int, label: str = "") -> Allocation:
        if nbytes < 0:
            raise GpuError(f"cudaMalloc of negative size: {nbytes}")
        if nbytes > self.free:
            raise GpuOutOfMemory(nbytes, self.free)
        alloc = Allocation(label=label, nbytes=nbytes)
        self.allocations.append(alloc)
        return alloc

    def free_(self, alloc: Allocation) -> None:
        if alloc.freed:
            raise GpuError(f"double cudaFree of {alloc.label!r}")
        alloc.freed = True

    def free_all(self) -> None:
        for alloc in self.allocations:
            alloc.freed = True
        self.allocations.clear()


class GpuDevice:
    """One simulated GPU (an SM array plus global memory)."""

    def __init__(self, spec: GpuSpec = TESLA_K40, device_id: int = 0):
        self.spec = spec
        self.device_id = device_id
        self.memory = DeviceMemory(spec.global_mem)

    def check_launch(self, kernel: KernelIR) -> None:
        """Refuse a launch this device could not start, as CUDA does
        with an invalid launch configuration: the kernel's ``threads``
        and ``blocks`` clauses against the spec's limits, and its
        shared memory per threadblock against one SM's."""
        spec = self.spec
        launch = kernel.launch
        for clause, used, limit in (
                ("threads", launch.threads, "max_threads_per_block"),
                ("blocks", launch.blocks, "max_blocks")):
            if used > getattr(spec, limit):
                raise GpuError(
                    f"kernel {kernel.name!r}: {clause}({used}) exceeds "
                    f"the {spec.name}'s {limit} of {getattr(spec, limit)}")
        shared = kernel.shared_mem_bytes
        if shared > spec.shared_mem_per_sm:
            raise GpuError(
                f"kernel {kernel.name!r}: {shared} B of shared memory per "
                f"block at threads({launch.threads}) exceeds the "
                f"{spec.name}'s shared_mem_per_sm of "
                f"{spec.shared_mem_per_sm} B")

    def transfer_time(self, nbytes: int) -> float:
        """Host↔device copy time over PCIe (seconds)."""
        if nbytes < 0:
            raise GpuError("negative transfer size")
        return self.spec.pcie_latency_s + nbytes / self.spec.pcie_bw

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles * self.spec.cycle_time_s

    def reset(self) -> None:
        """Revive the device after a fault (paper §5.1 fault tolerance)."""
        self.memory.free_all()

    def __repr__(self) -> str:
        return f"GpuDevice({self.spec.name!r}, id={self.device_id})"
