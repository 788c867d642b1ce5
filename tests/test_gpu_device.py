"""Device model tests: memory limits (no virtual memory!), transfers."""

import pytest

from repro.config import GB, MB, TESLA_K40, TESLA_M2090, GpuSpec
from repro.errors import GpuError, GpuOutOfMemory
from repro.gpu.device import DeviceMemory, GpuDevice


class TestDeviceMemory:
    def test_alloc_and_free(self):
        mem = DeviceMemory(1024)
        a = mem.malloc(512, "a")
        assert mem.used == 512 and mem.free == 512
        mem.free_(a)
        assert mem.used == 0

    def test_exhaustion_raises_oom(self):
        mem = DeviceMemory(1024)
        mem.malloc(1000)
        with pytest.raises(GpuOutOfMemory) as exc:
            mem.malloc(100)
        assert exc.value.requested == 100 and exc.value.free == 24

    def test_no_overcommit_ever(self):
        # GPUs have no virtual memory: exact accounting, no swapping.
        mem = DeviceMemory(10 * MB)
        allocs = [mem.malloc(3 * MB) for _ in range(3)]
        with pytest.raises(GpuOutOfMemory):
            mem.malloc(2 * MB)
        mem.free_(allocs[0])
        mem.malloc(2 * MB)  # now it fits

    def test_double_free_raises(self):
        mem = DeviceMemory(64)
        a = mem.malloc(8)
        mem.free_(a)
        with pytest.raises(GpuError, match="double"):
            mem.free_(a)

    def test_negative_alloc_raises(self):
        with pytest.raises(GpuError):
            DeviceMemory(64).malloc(-1)


class TestGpuDevice:
    def test_k40_capacity(self):
        dev = GpuDevice(TESLA_K40)
        assert dev.memory.capacity == 12 * GB

    def test_m2090_smaller_than_k40(self):
        assert TESLA_M2090.global_mem < TESLA_K40.global_mem

    def test_transfer_time_monotonic_in_bytes(self):
        dev = GpuDevice(TESLA_K40)
        assert dev.transfer_time(MB) < dev.transfer_time(256 * MB)

    def test_transfer_includes_latency(self):
        dev = GpuDevice(TESLA_K40)
        assert dev.transfer_time(0) == pytest.approx(TESLA_K40.pcie_latency_s)

    def test_reset_revives_device(self):
        dev = GpuDevice(TESLA_K40)
        dev.memory.malloc(GB)
        dev.reset()
        assert dev.memory.used == 0
        dev.memory.malloc(GB)  # and it serves allocations again

    def test_invalid_spec_rejected(self):
        with pytest.raises(Exception):
            GpuSpec(warp_size=0)
