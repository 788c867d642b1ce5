"""Hardware and cluster configurations (paper Table 3).

All sizes are in bytes, all rates in bytes per simulated second, and all
times in simulated seconds. The cost model is calibrated to reproduce the
paper's *ratios* (GPU-task vs CPU-task speedups, end-to-end speedups), not
absolute wall-clock numbers; see ``repro.costmodel.calibration``.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace

from .errors import ConfigError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Threads per warp on every modelled part (Kepler and Fermi alike).
WARP_SIZE = 32


@dataclass(frozen=True)
class GpuSpec:
    """Architectural parameters of a simulated GPU device.

    The defaults model a Tesla K40 (Kepler); :data:`TESLA_M2090` models the
    Fermi parts in Cluster2. Only parameters the timing model consumes or
    a launch is checked against
    (:meth:`~repro.gpu.device.GpuDevice.check_launch`) are included.
    """

    name: str = "Tesla K40"
    num_sms: int = 15
    max_threads_per_block: int = 1024
    max_blocks: int = 65535
    shared_mem_per_sm: int = 48 * KB
    global_mem: int = 12 * GB
    # Timing-model knobs (simulated cycles / costs).
    clock_ghz: float = 0.745
    issue_cycles: float = 1.0            # per warp instruction
    global_mem_cycles: float = 400.0     # per memory transaction
    shared_mem_cycles: float = 30.0      # per shared-memory access
    shared_atomic_cycles: float = 40.0   # per (serialized) shared atomic
    global_atomic_cycles: float = 500.0  # per (serialized) global atomic
    texture_hit_cycles: float = 150.0    # texture cache hit
    texture_miss_cycles: float = 400.0   # texture cache miss
    texture_hit_rate: float = 0.9
    transaction_bytes: int = 128         # coalesced transaction width
    pcie_bw: float = 6.0 * GB            # host<->device copy bandwidth (B/s)
    pcie_latency_s: float = 20e-6        # per-transfer latency

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError("GPU must have a positive SM count")
        if self.global_mem <= 0:
            raise ConfigError("GPU global memory must be positive")

    @property
    def cycle_time_s(self) -> float:
        """Seconds per GPU clock cycle."""
        return 1e-9 / self.clock_ghz


TESLA_K40 = GpuSpec()

# Fermi-generation part: the nominal clock is 1.3 GHz, but per-SM issue
# width, cache sizes, and DRAM throughput are roughly half of Kepler's —
# modelled as a lower effective clock plus costlier memory.
TESLA_M2090 = GpuSpec(
    name="Tesla M2090",
    num_sms=16,
    shared_mem_per_sm=48 * KB,
    global_mem=6 * GB,
    clock_ghz=0.45,
    global_mem_cycles=500.0,
    texture_hit_cycles=170.0,
    pcie_bw=4.0 * GB,
)


@dataclass(frozen=True)
class CpuSpec:
    """CPU node processor model. ``relative_speed`` scales the per-record
    costs in :mod:`repro.costmodel.cpu`; 1.0 corresponds to one Xeon
    E5-2680 core."""

    name: str = "Intel Xeon E5-2680"
    cores: int = 20
    relative_speed: float = 1.0


XEON_E5_2680 = CpuSpec()
XEON_X5560 = CpuSpec(name="Intel Xeon X5560", cores=12, relative_speed=0.8)


@dataclass(frozen=True)
class ClusterConfig:
    """A full cluster setup (paper Table 3)."""

    name: str
    num_slaves: int
    cpu: CpuSpec
    gpus_per_node: int
    gpu: GpuSpec
    ram: int
    has_disk: bool
    disk_bw: float                 # local disk bandwidth, B/s
    network_bw: float              # per-link bandwidth, B/s
    hdfs_block_size: int = 256 * MB
    hdfs_replication: int = 3
    max_map_slots_per_node: int = 20
    max_reduce_slots_per_node: int = 2
    slowstart_maps_fraction: float = 0.20   # % maps done before reduce starts
    heartbeat_interval_s: float = 0.6
    hadoop_version: str = "Hadoop 1.2.1"
    cuda_version: str = "CUDA 6.0"

    def __post_init__(self) -> None:
        if self.num_slaves <= 0:
            raise ConfigError("cluster needs at least one slave node")
        if self.gpus_per_node < 0:
            raise ConfigError("gpus_per_node must be >= 0")
        if self.hdfs_replication < 1:
            raise ConfigError("replication factor must be >= 1")
        if not 0.0 <= self.slowstart_maps_fraction <= 1.0:
            raise ConfigError("slowstart fraction must be in [0, 1]")
        if not (math.isfinite(self.heartbeat_interval_s)
                and self.heartbeat_interval_s > 0):
            raise ConfigError(
                "heartbeat interval must be a finite number of seconds > 0, "
                f"got {self.heartbeat_interval_s!r}")
        if self.hdfs_block_size <= 0:
            raise ConfigError("HDFS block size must be positive")
        if self.max_reduce_slots_per_node < 1:
            raise ConfigError(
                "max_reduce_slots_per_node must be >= 1, got "
                f"{self.max_reduce_slots_per_node}")
        if self.max_map_slots_per_node < 0:
            raise ConfigError(
                "max_map_slots_per_node must be >= 0, got "
                f"{self.max_map_slots_per_node}")
        if self.max_map_slots_per_node + self.gpus_per_node < 1:
            raise ConfigError(
                "a node needs at least one map slot or GPU "
                "(max_map_slots_per_node + gpus_per_node >= 1)")

    def with_gpus(self, gpus_per_node: int) -> "ClusterConfig":
        """A copy with a different GPU count per node (Fig. 4b sweeps)."""
        return replace(self, gpus_per_node=gpus_per_node)

    def cpu_only(self) -> "ClusterConfig":
        """The CPU-only Hadoop baseline configuration."""
        return replace(self, gpus_per_node=0)


# Paper Table 3. Cluster2 is disk-less: input/output/temporary storage live
# in RAM, which the IO cost model treats as a very fast "disk".
CLUSTER1 = ClusterConfig(
    name="Cluster1",
    num_slaves=48,
    cpu=XEON_E5_2680,
    gpus_per_node=1,
    gpu=TESLA_K40,
    ram=256 * GB,
    has_disk=True,
    # Effective per-task HDFS streaming rate (Java stream + checksum +
    # contended spindle), not raw platter bandwidth.
    disk_bw=40 * MB,
    network_bw=6 * GB,       # FDR InfiniBand
    hdfs_replication=3,
    max_map_slots_per_node=20,
    cuda_version="CUDA 6.0",
)

CLUSTER2 = ClusterConfig(
    name="Cluster2",
    num_slaves=32,
    cpu=XEON_X5560,
    gpus_per_node=3,
    gpu=TESLA_M2090,
    ram=24 * GB,
    has_disk=False,
    disk_bw=2 * GB,          # in-memory "disk"
    network_bw=4 * GB,       # QDR InfiniBand
    hdfs_replication=1,
    max_map_slots_per_node=4,
    cuda_version="CUDA 5.5",
)


@dataclass(frozen=True)
class LaunchConfig:
    """Kernel launch geometry, settable via ``blocks``/``threads`` clauses."""

    blocks: int = 60
    threads: int = 128

    def __post_init__(self) -> None:
        if self.blocks <= 0 or self.threads <= 0:
            raise ConfigError("launch geometry must be positive")
        if self.threads % WARP_SIZE != 0:
            raise ConfigError("threads per block must be a multiple of warp size")

    @property
    def total_threads(self) -> int:
        return self.blocks * self.threads


@dataclass(frozen=True)
class OptimizationFlags:
    """Compiler/runtime optimization toggles (paper Fig. 5 and Fig. 7).

    ``baseline()`` is the straight translated code; ``all_on()`` is the full
    HeteroDoop optimizer. Individual flags drive the Fig. 7 ablations.
    Frozen, so the object itself keys the translation and calibration
    caches.
    """

    use_texture: bool = True
    vectorize_map: bool = True
    vectorize_combine: bool = True
    record_stealing: bool = True
    kv_aggregation: bool = True

    @classmethod
    def baseline(cls) -> "OptimizationFlags":
        return cls(False, False, False, False, False)

    @classmethod
    def all_on(cls) -> "OptimizationFlags":
        return cls()

    def but(self, **kw: bool) -> "OptimizationFlags":
        for key in kw:
            if key not in self.__dataclass_fields__:
                raise ConfigError(f"unknown optimization flag {key!r}")
        return replace(self, **kw)


#: ``fork`` wherever the platform offers it (workers inherit the
#: parent's warm caches), else ``spawn`` — decided without importing
#: ``multiprocessing``, which a serial job never needs.
_DEFAULT_POOL_START = "spawn" if sys.platform == "win32" else "fork"


@dataclass(frozen=True)
class RuntimeConfig:
    """How this process runs jobs: the two deployment knobs, validated.

    :meth:`from_env` is the only reader of the ``REPRO_*`` environment
    under ``src/repro``. An explicit ``--workers``/``workers=`` overrides
    ``workers`` where it is taken; nothing else about a job is
    configurable from outside it. A pool worker lives as long as the
    process that started it, so its lifetime is not a knob.
    """

    #: ``REPRO_WORKERS``: worker processes of a parallel phase
    #: (0 = one per CPU core, 1 = tasks run inline).
    workers: int = 1
    #: ``REPRO_POOL_START``: the pool's ``multiprocessing`` start method.
    pool_start: str = _DEFAULT_POOL_START

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError(
                f"REPRO_WORKERS must be >= 0, got {self.workers}")
        if self.pool_start != _DEFAULT_POOL_START:
            import multiprocessing  # only a non-default method pays this

            methods = multiprocessing.get_all_start_methods()
            if self.pool_start not in methods:
                raise ConfigError(
                    f"REPRO_POOL_START={self.pool_start!r} is not a start "
                    f"method on this platform (have: {', '.join(methods)})")

    @classmethod
    def from_env(cls) -> "RuntimeConfig":
        """The configuration the environment asks for; unset (or blank)
        variables keep the field defaults. Raises :class:`ConfigError`
        naming the variable — before anything forks."""
        fields: dict = {}
        for name, attr, parse in (
            ("REPRO_WORKERS", "workers", int),
            ("REPRO_POOL_START", "pool_start", str),
        ):
            raw = os.environ.get(name, "").strip()
            if raw:
                try:
                    fields[attr] = parse(raw)
                except ValueError:
                    raise ConfigError(f"{name}={raw!r} is not an integer") \
                        from None
        return cls(**fields)
