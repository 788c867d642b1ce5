"""Functional single-process job runner (Hadoop's LocalJobRunner).

Executes a complete MapReduce job over real bytes: input splitting,
map tasks on the CPU path (Hadoop Streaming filters) or the GPU path
(translated kernels on the simulated device), hash partitioning, the
shuffle, per-reducer merge sort, and the reduce function. This is the
correctness backbone: CPU output, GPU output, and the app's pure-Python
reference must all agree after reduce — including under the combiner's
§4.2 relaxation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

from ..apps.base import Application
from ..config import CLUSTER1, ClusterConfig, OptimizationFlags
from ..costmodel.breakdown import TaskBreakdown
from ..costmodel.cpu import CPU_TASK_PHASES, CpuTaskModel
from ..costmodel.io import IoModel
from ..errors import ConfigError, HadoopError
from ..kvstore import Partitioner
from ..kvstore.coerce import kv_line, parse_kv_line, utf8_len
from ..obs import trace as obs
from ..parallel.maptask import run_map_tasks
from ..parallel.pool import list_schedule_makespan, resolve_workers
from ..parallel.reducetask import run_reduce_tasks
from .shuffle import (
    ReduceTaskTiming,
    grouped_values,
    merge_sorted_runs,
    reduce_task_timing,
    run_bytes,
    run_pairs,
    run_text,
    spill_runs,
)
from .tasks import SlotKind

if TYPE_CHECKING:  # a CPU-path job never loads the GPU stack
    from ..runtime.gpu_task import GpuTaskResult, GpuTaskRunner

__all__ = ["LocalJobResult", "LocalJobRunner", "MapTaskResult"]


@dataclass
class MapTaskResult:
    """One map(+combine) task's outcome — the same shape whichever
    ``device`` ran it, which is all the job fold reads.

    ``breakdown`` is the task's Fig. 6 stage seconds. ``parts`` maps
    partition → run (:mod:`repro.hadoop.shuffle`): the task's output
    pairs grouped by key in streaming-sort order, built by the process
    that ran the task and merged group by group on the reduce side;
    ``output_bytes`` is their lines' UTF-8 size, the task's share of
    the shuffle. ``gpu_task`` is the GPU pipeline's own detail (launch
    counters and costs, record count, SequenceFile images), present
    only where a GPU ran.
    """

    device: SlotKind
    breakdown: TaskBreakdown
    map_pairs: int
    parts: dict[int, list]
    output_bytes: int
    gpu_task: GpuTaskResult | None = None

    @property
    def seconds(self) -> float:
        return self.breakdown.total


@dataclass
class LocalJobResult:
    """Functional + timing outcome of one local job."""

    output: dict[Any, Any] = field(default_factory=dict)
    map_tasks: int = 0
    #: Every map task's result, in task-index order (``parts`` emptied:
    #: the job fold moved the runs into the shuffle).
    map_task_results: list[MapTaskResult] = field(default_factory=list)
    map_output_pairs: int = 0
    shuffle_bytes: int = 0
    #: Worker processes the map phase ran on (1 = inline in the driver).
    workers: int = 1
    #: Worker processes the reduce phase ran on (1 = inline).
    reduce_workers: int = 1
    #: Per-reduce-task timings in partition order, one per configured
    #: reducer (empty for map-only jobs, whose output is written by the
    #: map tasks themselves).
    reduce_task_timings: list[ReduceTaskTiming] = field(default_factory=list)

    def task_seconds(self) -> list[float]:
        """Per-map-task simulated seconds, in task-index order."""
        return [task.seconds for task in self.map_task_results]

    def device_tasks(self, device: SlotKind) -> int:
        """How many map tasks ran on ``device``."""
        return sum(task.device is device for task in self.map_task_results)

    @property
    def total_map_seconds(self) -> float:
        """Summed per-task map seconds (total device/core *work*).

        This is the Fig. 6-style resource-consumption figure and is
        independent of ``workers`` — N tasks cost the same work whether
        they overlapped or not. For the wall-clock-equivalent duration
        of the map phase, use :attr:`map_critical_path_seconds`.
        """
        return sum(self.task_seconds())

    def critical_path_seconds(self, workers: int) -> float:
        """Map-phase makespan if tasks ran on ``workers`` slots (greedy
        in-order list schedule, the pool's own dispatch order)."""
        return list_schedule_makespan(self.task_seconds(), workers)

    @property
    def map_critical_path_seconds(self) -> float:
        """Wall-clock-equivalent map-phase seconds at this run's
        ``workers`` (equals :attr:`total_map_seconds` at one)."""
        return self.critical_path_seconds(self.workers)

    def reduce_seconds(self) -> list[float]:
        """Per-reduce-task simulated seconds, in partition order."""
        return [t.total for t in self.reduce_task_timings]

    @property
    def total_reduce_seconds(self) -> float:
        """Summed per-reduce-task seconds (total core *work*), the
        reduce-phase analogue of :attr:`total_map_seconds`."""
        return sum(t.total for t in self.reduce_task_timings)

    def reduce_critical_path(self, workers: int) -> float:
        """Reduce-phase makespan if its tasks ran on ``workers`` slots
        (same greedy in-order list schedule as the map phase)."""
        return list_schedule_makespan(self.reduce_seconds(), workers)

    @property
    def reduce_critical_path_seconds(self) -> float:
        """Wall-clock-equivalent reduce-phase seconds at this run's
        ``reduce_workers``."""
        return self.reduce_critical_path(self.reduce_workers)


class LocalJobRunner:
    """Run a full job for one application in-process.

    Parameters
    ----------
    app:
        The benchmark application.
    cluster:
        Supplies the GPU spec, IO rates, and replication factor.
    use_gpu:
        True → map tasks run through the translated kernels on the
        simulated device; False → plain Hadoop Streaming on the CPU path.
    split_bytes:
        fileSplit size for input splitting (tests use small splits; the
        real 256 MB default would make functional runs needlessly slow).
    workers:
        Worker processes for the map phase, and for the reduce phase
        capped by its partition count. None defers to the
        ``REPRO_WORKERS`` environment variable (default 1); 0 means one
        worker per CPU core. Every count runs the same two task bodies
        — :meth:`map_task` and :meth:`reduce_partition` — inline at 1,
        on the daemon pool above it, with byte-identical output,
        counters, simulated seconds and trace shape (see
        :mod:`repro.parallel`).
    """

    def __init__(
        self,
        app: Application,
        cluster: ClusterConfig = CLUSTER1,
        use_gpu: bool = True,
        opt: OptimizationFlags | None = None,
        num_reducers: int | None = None,
        split_bytes: int = 64 * 1024,
        workers: int | None = None,
    ):
        if split_bytes <= 0:
            raise ConfigError(
                f"split_bytes must be positive, got {split_bytes}"
            )
        if num_reducers is not None and num_reducers < 0:
            raise ConfigError(
                f"num_reducers must be >= 0, got {num_reducers}"
            )
        if workers is not None and workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        self.app = app
        self.cluster = cluster
        self.use_gpu = use_gpu
        self.opt = opt if opt is not None else OptimizationFlags.all_on()
        figures = app.cluster1 if cluster.name == "Cluster1" else app.cluster2
        default_reducers = figures.reduce_tasks if figures else 1
        self.num_reducers = (
            num_reducers if num_reducers is not None else default_reducers
        )
        self.split_bytes = split_bytes
        self.workers = workers
        self.io = IoModel.for_cluster(cluster)
        self.partitioner = Partitioner(max(self.num_reducers, 1))
        self._gpu_runner: GpuTaskRunner | None = None
        if use_gpu:
            # A GPU job loads the GPU task stack with its runner, not at
            # its first task: code that rebinds module globals of a
            # constructed job (perf/layers.py's timers) must find the
            # modules loaded. A CPU-path job never loads them.
            from ..runtime import gpu_task  # noqa: F401

    # -- input splitting ---------------------------------------------------------

    def split_ranges(self, data: bytes) -> list[tuple[int, int]]:
        """Split boundaries as ``(start, stop)`` byte ranges at
        ~split_bytes, never inside a record (LineRecordReader's
        behaviour). Ranges — not copies — are what the pool ships to
        workers; inline tasks slice them locally."""
        ranges: list[tuple[int, int]] = []
        start = 0
        while start < len(data):
            end = min(start + self.split_bytes, len(data))
            if end < len(data):
                nl = data.find(b"\n", end)
                end = len(data) if nl == -1 else nl + 1
            ranges.append((start, end))
            start = end
        return ranges or [(0, 0)]

    def make_splits(self, input_text: str) -> list[bytes]:
        """The split ranges materialized as byte strings."""
        data = input_text.encode("utf-8")
        return [data[a:b] for a, b in self.split_ranges(data)]

    # -- map side ------------------------------------------------------------------

    def _gpu_task_runner(self) -> GpuTaskRunner:
        """This job's GpuTaskRunner, built at its first GPU map task:
        one device and one runner per job per process (:meth:`run`
        drops the previous job's). Translations are resolved once
        (memoized — see translate_cached) and the host snapshots the
        runner computes are reused by every map task."""
        if self._gpu_runner is None:
            from ..gpu.device import GpuDevice
            from ..runtime.gpu_task import GpuTaskRunner

            self._gpu_runner = GpuTaskRunner(
                self.app.translate_map(self.opt),
                self.app.translate_combine(self.opt),
                GpuDevice(self.cluster.gpu),
                self.io,
                num_reducers=self.num_reducers,
                replication=self.cluster.hdfs_replication,
                min_gpu_mem=self.app.min_gpu_mem,
            )
        return self._gpu_runner

    @cached_property
    def _cpu_key_length(self) -> int:
        """The translated map kernel's key length — all the CPU cost
        model needs of the translation. Resolved at the first CPU map
        task, not per task: translate_map is memoized, but CPU tasks
        shouldn't touch the translator per split."""
        return (self.app.translate_map().map_kernel.key_length
                if self.app.map_source else 16)

    def map_task(self, index: int, split: bytes) -> MapTaskResult:
        """Run map task ``index`` over one fileSplit: the translated
        kernels on the simulated device or the Hadoop Streaming filters
        on a core, behind one call (paper §2.2, §5.1).

        This is the only map-task body: the driver calls it inline,
        pool workers call it on the runner they rebuild from the job
        spec (:mod:`repro.parallel.maptask`), and
        :mod:`repro.experiments.calibrate` calls it for its single-task
        measurements. ``index`` is the job-wide task number the trace
        spans carry.
        """
        if self.use_gpu:
            task = self._gpu_task_runner().run(split, task_index=index)
            runs = task.rendered_runs()
            return MapTaskResult(SlotKind.GPU, task.breakdown,
                                 task.emitted_pairs, runs,
                                 sum(map(run_bytes, runs.values())),
                                 gpu_task=task)

        text = split.decode("utf-8", errors="replace")
        map_out, map_counters = self.app.cpu_map(text)
        # Partitioned and sorted in one pass; the combiner filter then
        # runs over each partition's sorted text, and its output is
        # spilled back into that partition the same way.
        where = f"{self.app.name} map task {index}"
        runs = spill_runs(map_out.splitlines(), self.partitioner.partition,
                          where)
        map_pairs = sum(map(run_pairs, runs.values()))
        combine_counters = None
        if self.app.has_combiner:
            for part, run in runs.items():
                out, counters = self.app.cpu_combine(run_text(run))
                combine_counters = counters if combine_counters is None \
                    else combine_counters.merged(counters)
                runs[part] = spill_runs(
                    out.splitlines(), lambda _key, part=part: part,
                    f"{where} combiner, partition {part}").get(part, [])
        output_bytes = sum(map(run_bytes, runs.values()))

        model = CpuTaskModel(self.cluster.cpu, self.io)
        timing = model.task_timing(
            split_bytes=len(split),
            map_counters=map_counters,
            map_kv_pairs=map_pairs,
            key_length=self._cpu_key_length,
            combine_counters=combine_counters,
            output_bytes=output_bytes,
            map_only=self.app.map_only,
            replication=self.cluster.hdfs_replication,
        )
        rec = obs.active()
        if rec.enabled:
            rec.tiled(
                f"cpu-task#{index} {self.app.name}", "cpu-task",
                "cpu-streaming", "tasks",
                [(phase, getattr(timing, phase)) for phase in CPU_TASK_PHASES],
                args={"split_bytes": len(split), "map_pairs": map_pairs},
            )
            rec.inc("cpu.tasks")
            rec.inc("cpu.map_pairs", map_pairs)
        return MapTaskResult(SlotKind.CPU, timing, map_pairs, runs,
                             output_bytes)

    # -- reduce side ---------------------------------------------------------------

    def reduce_partition(self, partition: int,
                         runs: list[list]) -> tuple[list, ReduceTaskTiming]:
        """Run one reduce task: k-way merge of the partition's sorted
        runs, then the reduce function — preferably the app's mini-C
        Streaming reducer (reducers always run on CPUs, paper §3.1),
        else the Python one. Returns the reduced pairs plus the task's
        deterministic simulated timing.

        Pure with respect to the job, and the only reduce-task body:
        the driver calls it inline, pool workers call it through
        :mod:`repro.parallel.reducetask`, and the driver folds the
        returned pairs in partition order either way.
        """
        merged = merge_sorted_runs(runs)
        input_pairs = run_pairs(merged)
        input_bytes = run_bytes(merged)
        if self.app.reduce_source is not None:
            out_text, _counters = self.app.cpu_reduce(run_text(merged))
            reduced = [parse_kv_line(ln)
                       for ln in out_text.splitlines() if ln]
            output_bytes = utf8_len(out_text)
        else:
            reduced = [
                pair
                for key, values in grouped_values(merged).items()
                for pair in self.app.reduce(key, values)
            ]
            output_bytes = sum(utf8_len(kv_line(k, v)) for k, v in reduced)
        timing = reduce_task_timing(
            partition=partition,
            merge_runs=len(runs),
            input_pairs=input_pairs,
            input_bytes=input_bytes,
            output_pairs=len(reduced),
            output_bytes=output_bytes,
            io=self.io,
            replication=self.cluster.hdfs_replication,
        )
        rec = obs.active()
        # A map-only job's identity fold is free (see run): no span.
        if rec.enabled and self.num_reducers > 0:
            rec.tiled(
                f"reduce-task#{partition} {self.app.name}", "reduce-task",
                "reduce", "tasks",
                [("merge", timing.merge), ("reduce", timing.reduce),
                 ("output_write", timing.output_write)],
                args={"merge_runs": timing.merge_runs,
                      "input_pairs": timing.input_pairs,
                      "output_pairs": timing.output_pairs,
                      "output_bytes": timing.output_bytes},
            )
            rec.inc("reduce.tasks")
            rec.inc("reduce.merge_runs", timing.merge_runs)
            rec.inc("reduce.pairs", timing.input_pairs)
        return reduced, timing

    def _fold_reduced(self, output: dict[Any, Any], partition: int,
                      reduced: list) -> None:
        """Fold one partition's reduce output into the job output dict
        — always in the driver, always in partition order, so the
        insertion order and the duplicate-key check are identical at
        every worker count."""
        for out_k, out_v in reduced:
            if out_k in output:
                raise HadoopError(
                    f"{self.app.name} reducer emitted duplicate key "
                    f"{out_k!r} in partition {partition}"
                )
            output[out_k] = out_v

    # -- full job --------------------------------------------------------------------

    def run(self, input_text: str) -> LocalJobResult:
        result = LocalJobResult()
        data = input_text.encode("utf-8")
        ranges = self.split_ranges(data)
        result.map_tasks = len(ranges)
        result.workers = resolve_workers(self.workers, tasks=len(ranges))
        self._gpu_runner = None  # a fresh device + task runner per job

        rec = obs.active()
        job_span = None
        if rec.enabled:
            job_span = rec.begin(
                f"job {self.app.name}", "job", "local-job", "driver",
                args={
                    "cluster": self.cluster.name,
                    "path": "gpu" if self.use_gpu else "cpu",
                    "map_tasks": len(ranges),
                    "reducers": self.num_reducers,
                    "workers": result.workers,
                },
            )

        # Map phase → shuffle inputs grouped by reduce partition, kept
        # as per-task *runs* (see MapTaskResult) so the reduce side can
        # k-way merge instead of re-sorting. Task results arrive in
        # task-index order at every worker count, so each accumulation
        # below — task-result lists, pair counts, shuffle extension
        # order — is the same fold whether the tasks ran inline or on
        # the pool.
        shuffle: dict[int, list[list]] = defaultdict(list)
        for task in run_map_tasks(self, data, ranges, result.workers):
            result.map_task_results.append(task)
            result.map_output_pairs += task.map_pairs
            result.shuffle_bytes += task.output_bytes
            for part, run in task.parts.items():
                shuffle[part].append(run)
            # Moved, not shared: the results the job keeps must not pin
            # the whole map output after the reduce phase is done.
            task.parts = {}

        # Reduce phase: one reduce task per partition — Hadoop starts
        # every configured reducer, whether or not its partition
        # received data — and the reduced pairs fold into the output
        # dict here, in partition order. A map-only job (num_reducers
        # == 0) writes output at the map tasks; its identity fold
        # through the one partition is free, like
        # estimate_reduce_phase's zero-cost map-only answer.
        partitions = list(range(max(self.num_reducers, 1)))
        charge_reduce = self.num_reducers > 0
        result.reduce_workers = resolve_workers(self.workers,
                                                tasks=len(partitions))
        output: dict[Any, Any] = {}
        reduced_per_part = run_reduce_tasks(self, partitions, shuffle,
                                            result.reduce_workers)
        for part, (reduced, timing) in zip(partitions, reduced_per_part):
            if charge_reduce:
                result.reduce_task_timings.append(timing)
            self._fold_reduced(output, part, reduced)
        result.output = output

        if job_span is not None:
            # The job span covers the job's wall-clock-equivalent
            # duration: the map phase's critical path at this run's
            # worker count (the task-seconds sum at 1), then the reduce
            # phase's.
            map_end = job_span.ts + result.map_critical_path_seconds
            rec.counter(
                "shuffle", "local-job",
                {"bytes": result.shuffle_bytes,
                 "pairs": result.map_output_pairs},
                ts=map_end,
            )
            rec.inc("shuffle.bytes", result.shuffle_bytes)
            rec.inc("job.map_output_pairs", result.map_output_pairs)
            rec.inc("jobs")
            rec.end(
                job_span,
                ts=map_end + result.reduce_critical_path_seconds,
                args={"output_keys": len(output),
                      "shuffle_bytes": result.shuffle_bytes,
                      "reduce_workers": result.reduce_workers,
                      "reduce_tasks": len(result.reduce_task_timings)},
            )
        return result
