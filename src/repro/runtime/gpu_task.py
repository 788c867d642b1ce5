"""The GPU task pipeline (paper Fig. 1) with a Fig. 6 time breakdown.

One GPU task processes one fileSplit end to end:

  copy input → count records → allocate storage → map kernel →
  aggregate KV pairs → sort each partition → combine kernel →
  write output (SequenceFile to local disk, or HDFS if map-only) → free.

Every stage runs functionally (real records in, real KV pairs out) and is
charged simulated time; the per-stage seconds are exactly the categories
of the paper's Fig. 6 breakdown.

Fault containment (§5.1) lives here, in the pipeline that runs the task:
whatever stage raises — a kernel's ``CRuntimeError``, ``KVStoreOverflow``,
``GpuOutOfMemory`` — both device allocations are released on the way out,
so the job's one device serves the next task exactly as a fresh one
would. (``GpuDevice.reset()`` is the heavier revival primitive, for the
attempt model to call.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..compiler import TranslationResult
from ..errors import GpuError, GpuOutOfMemory
from ..gpu.device import GpuDevice
from ..gpu.executor import (
    MapLaunchResult,
    run_combine_kernel,
    run_map_kernel,
)
from ..gpu.scan import reindex_cycles, scan_cycles
from ..gpu.sort import sort_partition
from ..kvstore import GlobalKVStore, KVPair, Partitioner
from ..kvstore.aggregation import aggregate, scattered_partitions
from ..kvstore.coerce import coerce_pair
from ..costmodel.breakdown import TaskBreakdown
from ..costmodel.io import IoModel
from ..hadoop.shuffle import render_run
from ..minic.interpreter import Interpreter
from ..obs import trace as obs
from .records import locate_records
from .seqfile import SequenceFileWriter

#: Host-side formatting + CRC cost per output byte (the 'calculating the
#: checksum' part of the Fig. 6 output-write bar).
_FORMAT_S_PER_BYTE = 8.0e-9

#: Upper bound on KV-store slots when the kvpairs clause is absent and the
#: host grabs "all free GPU memory" (paper §3.2). The *cost* model still
#: uses the true byte figure; this only caps Python-side bookkeeping.
_DEFAULT_STORE_FRACTION = 0.9


@dataclass
class GpuTaskResult:
    """Functional output + timing of one GPU task."""

    partition_output: dict[int, list[tuple[Any, Any]]] = field(default_factory=dict)
    breakdown: TaskBreakdown = field(default_factory=TaskBreakdown)
    map_launch: MapLaunchResult | None = None
    records: int = 0
    emitted_pairs: int = 0
    output_pairs: int = 0
    output_bytes: int = 0
    seqfiles: dict[int, bytes] = field(default_factory=dict)

    def rendered_runs(self) -> dict[int, list]:
        """Per-partition shuffle runs: the pairs grouped by key in
        streaming-sort order (:func:`~repro.hadoop.shuffle.render_run`).

        This is the form the reduce-side merge consumes. Rendering and
        sort-key computation happen here, in whatever process ran the
        task, instead of in the driver's fold (pool workers ship these
        runs in their envelopes). The GPU sort ordered pairs byte-wise
        before type coercion, so sorting the groups also restores
        streaming key order for coerced numerics.
        """
        return {part: render_run(kvs)
                for part, kvs in self.partition_output.items()}


class GpuTaskRunner:
    """Executes GPU map(+combine) tasks for one translated application.

    Parameters
    ----------
    map_translation:
        Translation of the map program (must contain a mapper kernel).
    combine_translation:
        Translation of the combine program, or None for apps without a
        combiner (paper Table 2: KM, CL, BS have none) and for map-only
        jobs, where no combiner runs (the job runner decides).
    device:
        The simulated GPU that runs the kernels.
    io:
        IO model of the hosting cluster.
    num_reducers:
        Reduce-task count (partition count). 0 means a map-only job whose
        output goes straight to HDFS.
    replication:
        HDFS replication factor (charged on map-only output writes).
    min_gpu_mem:
        Application working-set floor; allocation fails if the device is
        smaller (this is what excludes KM from Cluster2 in Fig. 4b).
    """

    def __init__(
        self,
        map_translation: TranslationResult,
        combine_translation: TranslationResult | None,
        device: GpuDevice,
        io: IoModel,
        num_reducers: int,
        replication: int = 3,
        min_gpu_mem: int = 0,
    ):
        if map_translation.map_kernel is None:
            raise GpuError("map translation lacks a mapper kernel")
        if combine_translation is not None and \
                combine_translation.combine_kernel is None:
            raise GpuError("combine translation lacks a combiner kernel")
        self.map_tr = map_translation
        self.combine_tr = combine_translation
        self.device = device
        self.io = io
        self.num_reducers = num_reducers
        self.replication = replication
        self.min_gpu_mem = min_gpu_mem
        self.map_only = num_reducers == 0
        self._map_snapshot: dict[str, Any] | None = None
        self._combine_snapshot: dict[str, Any] | None = None

    # -- host snapshots --------------------------------------------------------

    def _snapshot_for(self, translation: TranslationResult, kernel_attr: str) \
            -> dict[str, Any]:
        # Snapshots are memoized on the TranslationResult itself, so the
        # N GpuTaskRunner instances a job may create (one per map task)
        # share one host pre-region run. Safe to share: the executor
        # clones every buffer it materializes from a snapshot and copies
        # scalars by value (kernel_cell_factories / prepare_shared_ro).
        cache = translation.__dict__.get("_snapshots")
        if cache is None:
            cache = {}
            setattr(translation, "_snapshots", cache)
        snap = cache.get(kernel_attr)
        if snap is None:
            kernel = getattr(translation, kernel_attr)
            if kernel.original_region is None:
                raise GpuError("kernel has no original region to snapshot")
            interp = Interpreter(translation.program, stdin="")
            snap = interp.run_until_region(kernel.original_region)
            cache[kernel_attr] = snap
        return snap

    def map_snapshot(self) -> dict[str, Any]:
        if self._map_snapshot is None:
            self._map_snapshot = self._snapshot_for(self.map_tr, "map_kernel")
        return self._map_snapshot

    def combine_snapshot(self) -> dict[str, Any]:
        if self._combine_snapshot is None:
            assert self.combine_tr is not None
            self._combine_snapshot = self._snapshot_for(
                self.combine_tr, "combine_kernel"
            )
        return self._combine_snapshot

    # -- pipeline -------------------------------------------------------------

    def run(self, split: bytes,
            task_index: int | None = None) -> GpuTaskResult:
        """Run one split. ``task_index`` names the task in trace spans
        (defaults to this process's running ``gpu.tasks`` count; pool
        workers pass the job-wide index so spliced parent traces number
        tasks the way the serial run does)."""
        kernel = self.map_tr.map_kernel
        assert kernel is not None
        device = self.device
        spec = device.spec
        result = GpuTaskResult()
        bd = result.breakdown

        if self.min_gpu_mem > spec.global_mem:
            raise GpuOutOfMemory(self.min_gpu_mem, spec.global_mem)

        # 1. Copy the (data-local) fileSplit from HDFS into GPU memory.
        input_alloc = device.memory.malloc(len(split), "fileSplit")
        store_alloc = None
        bd.input_read = self.io.hdfs_read_s(len(split)) \
            + device.transfer_time(len(split))

        try:
            # 2. Record locator/counter kernel.
            locator = locate_records(split, spec)
            result.records = locator.count
            bd.record_count = device.cycles_to_seconds(locator.cycles)

            # 3. Allocate the global KV store.
            total_threads = kernel.launch.total_threads
            slot = kernel.kv_slot_bytes
            if kernel.kvpairs_per_record is not None:
                # storesPerThread must cover each thread's (possibly stolen)
                # record share: kvpairs × the per-thread record quota, with
                # 2× headroom for stealing imbalance.
                records_per_block = -(-locator.count // kernel.launch.blocks)
                per_thread_records = max(
                    1, -(-records_per_block // kernel.launch.threads)
                )
                stores_per_thread = (
                    kernel.kvpairs_per_record * per_thread_records * 2
                )
                capacity = stores_per_thread * total_threads
            else:
                capacity = int(
                    device.memory.free * _DEFAULT_STORE_FRACTION
                ) // max(slot, 1)
                capacity = max(capacity, total_threads)
            store_alloc = device.memory.malloc(capacity * slot, "globalKVStore")
            store = GlobalKVStore(total_threads, capacity)
            partitions = max(self.num_reducers, 1)
            partitioner = Partitioner(partitions)

            # 4. Map kernel.
            map_launch = run_map_kernel(
                device, kernel, locator.records, self.map_snapshot(),
                store, partitioner,
            )
            result.map_launch = map_launch
            result.emitted_pairs = store.emitted_pairs
            bd.map = map_launch.cost.seconds

            # 5. Aggregate KV pairs (scan + reindex) — or skip (Fig. 7e).
            if kernel.opt.kv_aggregation:
                agg = aggregate(store, partitions)
                agg_cycles = scan_cycles(agg.scan_elements, spec) \
                    + reindex_cycles(agg.pairs_moved, spec)
                bd.aggregate = device.cycles_to_seconds(agg_cycles)
            else:
                agg = scattered_partitions(store, partitions)
                bd.aggregate = 0.0

            # 6. Sort each partition on the GPU (indirection merge sort).
            sorted_partitions: dict[int, list[KVPair]] = {}
            for part in range(partitions):
                pairs = agg.partition_list(part)
                if not pairs and agg.span_after == agg.span_before == 0:
                    continue
                if kernel.opt.kv_aggregation:
                    span = len(pairs)
                else:
                    # Unaggregated: the indirection sort walks whitespace
                    # interleaved with live pairs. Fully empty per-thread
                    # regions are skipped at block granularity, so the
                    # traversal penalty is bounded (calibrated to Fig. 7e's
                    # ≤7.6× sort-kernel effect).
                    span = min(
                        max(len(pairs), agg.span_before // partitions),
                        max(len(pairs), 1) * 8,
                    )
                sr = sort_partition(pairs, span, kernel.key_length, spec)
                sorted_partitions[part] = sr.pairs
                bd.sort += sr.seconds

            # 7. Combine kernel per partition. Leaving the device, pairs
            # cross the textual streaming wire — the same coercion the
            # CPU path applies when parsing filter stdout, so a word key
            # like "42" types identically on both paths.
            output: dict[int, list[tuple[Any, Any]]] = {}
            if self.combine_tr is not None:
                ck = self.combine_tr.combine_kernel
                assert ck is not None
                snapshot = self.combine_snapshot()
                for part, pairs in sorted_partitions.items():
                    launch = run_combine_kernel(device, ck, pairs, snapshot)
                    output[part] = [coerce_pair(k, v)
                                    for k, v in launch.output]
                    bd.combine += launch.cost.seconds
            else:
                for part, pairs in sorted_partitions.items():
                    output[part] = [coerce_pair(p.key, p.value)
                                    for p in pairs]
            result.partition_output = output
            result.output_pairs = sum(len(v) for v in output.values())

            # 8. Write the output (SequenceFile + checksum).
            total_bytes = 0
            for part, pairs in output.items():
                writer = SequenceFileWriter()
                writer.extend(pairs)
                image = writer.finish()
                result.seqfiles[part] = image
                total_bytes += len(image)
            result.output_bytes = total_bytes
            copy_back = device.transfer_time(total_bytes)
            format_s = total_bytes * _FORMAT_S_PER_BYTE
            if self.map_only:
                io_s = self.io.hdfs_write_s(total_bytes, self.replication)
            else:
                io_s = self.io.local_write_s(total_bytes)
            bd.output_write = copy_back + format_s + io_s
        finally:
            # 9. Free device memory — also when a stage raised, so a
            # failed task cannot starve the tasks that follow it.
            if store_alloc is not None:
                device.memory.free_(store_alloc)
            device.memory.free_(input_alloc)

        rec = obs.active()
        if rec.enabled:
            # Phase children on the simulated-seconds cursor of the
            # device's ``tasks`` lane, one per Fig. 6 category.
            index = task_index if task_index is not None \
                else int(rec.metrics.count("gpu.tasks"))
            rec.tiled(
                f"gpu-task#{index} {kernel.name}", "gpu-task",
                f"gpu:{spec.name}", "tasks", bd.as_dict().items(),
                args={
                    "records": result.records,
                    "emitted_pairs": result.emitted_pairs,
                    "output_pairs": result.output_pairs,
                    "output_bytes": result.output_bytes,
                },
            )
            rec.inc("gpu.tasks")
            rec.inc("gpu.records", result.records)
            rec.inc("gpu.emitted_pairs", result.emitted_pairs)

        return result
