"""Device model tests: memory limits (no virtual memory!), transfers."""

import pytest

from repro.apps import all_apps
from repro.compiler import translate
from repro.config import GB, MB, TESLA_K40, TESLA_M2090, GpuSpec
from repro.errors import GpuError, GpuOutOfMemory
from repro.gpu.device import DeviceMemory, GpuDevice
from repro.gpu.executor import run_combine_kernel, run_map_kernel
from repro.minic import parse

from .conftest import WORDCOUNT_COMBINE, WORDCOUNT_MAP


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


# -- launch limits -------------------------------------------------------------

PAPER_GPUS = pytest.mark.parametrize(
    "spec", [TESLA_K40, TESLA_M2090], ids=["K40", "M2090"])


def _map_kernel(clauses: str):
    """Listing 1's map kernel with extra directive clauses."""
    source = WORDCOUNT_MAP.replace("kvpairs(20)", f"kvpairs(20) {clauses}")
    return translate(parse(source)).map_kernel


def _combine_kernel(array_bytes: int, threads: int):
    """Listing 2's combine kernel, its two per-warp shared arrays
    ``array_bytes`` long, at ``threads`` per block."""
    source = (WORDCOUNT_COMBINE
              .replace("[30]", f"[{array_bytes}]")
              .replace("vallength(4)", f"vallength(4) threads({threads})"))
    return translate(parse(source)).combine_kernel


class TestLaunchLimits:
    """A launch the simulated part could not start is refused where the
    kernel meets the device, naming the clause and the limit."""

    @PAPER_GPUS
    def test_threads_over_the_limit_refused(self, spec):
        GpuDevice(spec).check_launch(_map_kernel("threads(1024)"))
        with pytest.raises(GpuError, match=r"threads\(2048\) exceeds the "
                           + spec.name + "'s max_threads_per_block of 1024"):
            run_map_kernel(GpuDevice(spec), _map_kernel("threads(2048)"),
                           [], {}, None, None)

    @PAPER_GPUS
    def test_blocks_over_the_limit_refused(self, spec):
        GpuDevice(spec).check_launch(_map_kernel("blocks(65535)"))
        with pytest.raises(GpuError, match=r"blocks\(70000\) exceeds the "
                           + spec.name + "'s max_blocks of 65535"):
            run_map_kernel(GpuDevice(spec), _map_kernel("blocks(70000)"),
                           [], {}, None, None)

    @PAPER_GPUS
    def test_shared_memory_over_one_sm_refused(self, spec):
        fits = _combine_kernel(700, threads=1024)
        assert fits.shared_mem_bytes == 2 * 700 * 32 <= spec.shared_mem_per_sm
        GpuDevice(spec).check_launch(fits)
        over = _combine_kernel(800, threads=1024)
        assert over.shared_mem_bytes == 2 * 800 * 32
        with pytest.raises(GpuError, match=r"51200 B of shared memory per "
                           r"block at threads\(1024\) exceeds the "
                           + spec.name + "'s shared_mem_per_sm of 49152 B"):
            run_combine_kernel(GpuDevice(spec), over, [], {})

    @PAPER_GPUS
    def test_every_registry_kernel_launches(self, spec):
        kernels = [kernel for app in all_apps()
                   for result in (app.translate_map(), app.translate_combine())
                   if result is not None
                   for kernel in (result.map_kernel, result.combine_kernel)
                   if kernel is not None]
        assert len(kernels) > len(all_apps())  # every mapper, some combiners
        device = GpuDevice(spec)
        for kernel in kernels:
            device.check_launch(kernel)
